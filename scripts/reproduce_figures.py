#!/usr/bin/env python3
"""Regenerate the plot data behind every figure panel.

Writes one subdirectory per panel under the output directory; see the
figure table in ramphop.cli for the parameter sets.
"""

import argparse
import sys
import time
from pathlib import Path

from ramphop.cli import FIGURES, main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("figure_data"))
    parser.add_argument(
        "--panels",
        nargs="*",
        default=sorted(FIGURES),
        help="panel ids to run (default: all)",
    )
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    args = parser.parse_args()

    for panel in args.panels:
        t0 = time.time()
        rc = cli_main(["figure", panel, "--out", str(args.out / panel), "--format", args.format])
        if rc != 0:
            print(f"{panel}: FAILED (exit {rc})", file=sys.stderr)
            return rc
        print(f"{panel}: done in {time.time() - t0:.1f}s -> {args.out / panel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
