"""Start-up probe: what a fresh ``teleport run`` pays before any scenario runs.

Imports ``cvteleport.cli``, parses the config and loads its input.  Run as
``python3 setup_probe.py <src dir> <config>``; the benchmark times the whole
process.
"""

import sys


def main(src: str, config: str) -> None:
    sys.path.insert(0, src)
    from cvteleport import cli, images

    cfg = cli.parse_config(config)
    path = cli.resolve_input_path(cfg.input_path)
    with open(path, "rb") as fh:
        graymap = fh.read(2) in (b"P2", b"P5")
    if graymap:
        images.load_image(path)
    else:
        cli.load_signal(path, cfg.grid)


if __name__ == "__main__":
    main(*sys.argv[1:])
