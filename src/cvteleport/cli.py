"""Command-line interface.

Subcommands::

    teleport [-v | -vv] run <config> [--seed N] [--grid xmin:xmax:n]
    teleport kernel --sigma-a S --p4 P --window A:B -o out.csv
    teleport envelope --sigma-b S --x3 X --window A:B -o out.csv
    teleport info <signal> [--grid xmin:xmax:n]

Exit codes: 0 success, 1 configuration or I/O failure, 2 when some scenarios
errored (the report is still written).
"""

from __future__ import annotations

import argparse
import logging
import math
import sys

from .config import DEFAULT_GRID, parse_config, parse_grid
from .errors import TeleportError
from .grid import moments
from .runner import (
    EXIT_CONFIG_ERROR,
    resolve_input_path,
    run,
    write_envelope_profile,
    write_kernel_profile,
)
from .signals import load_signal


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; usage errors are config errors here.
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_CONFIG_ERROR)

    # options whose values may begin with a dash (negative coordinates)
    _DASH_VALUE_OPTIONS = ("--window", "--grid", "--x3", "--p4")

    def parse_known_args(self, args=None, namespace=None):
        # Fuse "--window -3:3" into "--window=-3:3" so negative values are
        # not mistaken for option flags.
        if args is None:
            args = sys.argv[1:]
        merged, queue = [], iter(args)
        for token in queue:
            if token in self._DASH_VALUE_OPTIONS:
                value = next(queue, None)
                merged.append(token if value is None else f"{token}={value}")
            else:
                merged.append(token)
        return super().parse_known_args(merged, namespace)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _width(text: str) -> float:
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"width must be positive: {text!r}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative: {text!r}")
    return value


def _parse_window(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("window must be A:B")
    return _finite(parts[0]), _finite(parts[1])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="teleport", description=__doc__.splitlines()[0])
    parser.add_argument(
        "-v", "--verbose", action="count", default=0, help="log INFO (-v) or DEBUG (-vv)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario configuration")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=_seed, help="override the master seed")
    p_run.add_argument(
        "--grid", help="override the config's grid, signal inputs only (xmin:xmax:n)"
    )

    p_kernel = sub.add_parser("kernel", help="emit a convolution kernel profile")
    p_kernel.add_argument("--sigma-a", type=_width, required=True)
    p_kernel.add_argument("--p4", type=_finite, required=True)
    p_kernel.add_argument("--window", type=_parse_window, required=True)
    p_kernel.add_argument("-o", "--output", required=True)

    p_env = sub.add_parser("envelope", help="emit a multiplication envelope profile")
    p_env.add_argument("--sigma-b", type=_width, required=True)
    p_env.add_argument("--x3", type=_finite, required=True)
    p_env.add_argument("--window", type=_parse_window, required=True)
    p_env.add_argument("-o", "--output", required=True)

    p_info = sub.add_parser("info", help="print the moments of a signal")
    p_info.add_argument("signal")
    p_info.add_argument("--grid", help=f"grid to sample on (default {DEFAULT_GRID})")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.getLogger().setLevel(max(logging.DEBUG, logging.WARNING - 10 * args.verbose))
    try:
        return _dispatch(args)
    except TeleportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


def _dispatch(args) -> int:
    if args.command == "run":
        config = parse_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
        if args.grid is not None:
            config.grid = parse_grid(args.grid)
        return run(config)
    if args.command == "kernel":
        write_kernel_profile(args.output, args.sigma_a, args.p4, args.window)
        return 0
    if args.command == "envelope":
        write_envelope_profile(args.output, args.sigma_b, args.x3, args.window)
        return 0
    if args.command == "info":
        grid = parse_grid(args.grid or DEFAULT_GRID)
        state = load_signal(resolve_input_path(args.signal), grid)
        m = moments(state)
        print(f"grid: [{grid.x_min:g}, {grid.x_max:g}] n={grid.n} dx={grid.dx:g}")
        print(f"mean_x = {m.mean_x:.12g}")
        print(f"std_x = {m.std_x:.12g}")
        print(f"support_length = {m.support_length:.12g}")
        print(f"mean_p = {m.mean_p:.12g}")
        print(f"std_p = {m.std_p:.12g}")
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
