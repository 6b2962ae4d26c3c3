"""Continuous-variable quantum teleportation in the quadrature wave-function picture."""

from .channel import (
    ConvolutionOnly,
    General,
    Ideal,
    KernelRegime,
    MeasurementOutcome,
    MultiplicationOnly,
    OutcomeDistribution,
    build_outcome_distribution,
    oracle_teleport,
    regime_for,
    sample_outcome,
    sample_outcomes,
    teleport,
    validate_span,
)
from .errors import (
    EmptyScenarioListError,
    GridMismatchError,
    GridTooNarrowError,
    IdealChannelOutcomeUnboundedError,
    NonUniformSpacingError,
    OracleGridTooLargeError,
    OutcomeTooLargeError,
    ParseError,
    SentinelNotMaterializableError,
    ShiftOffGridError,
    TeleportError,
    UnsupportedFormatError,
    ZeroNormError,
)
from .grid import (
    GridSpec,
    MomentSummary,
    SampledWaveFunction,
    gaussian_packet,
    inner_product,
    moments,
    normalize,
    resample,
    shift_p,
    shift_x,
    to_momentum,
    to_position,
)
from .optics import (
    IDEAL,
    SqueezingParams,
    TwoModeState,
    beam_splitter,
    epr_from_beam_splitter,
    epr_state,
    product_state,
    squeezed_vacuum,
)
from .analysis import (
    EnvelopeProfile,
    FidelityReport,
    KernelProfile,
    SampleWithSeed,
    Scenario,
    envelope_profile,
    fidelity,
    kernel_profile,
    l2_distortion,
    run_sweep,
)
from .config import RunConfig, parse_config, parse_grid
from .images import ImageAsset, ImageTeleportResult, load_image, save_image, teleport_image
from .runner import run
from .signals import (
    load_bundled_silhouette,
    load_signal,
    save_signal,
)

__version__ = "0.1.0"
