"""Command-line entry point, installed as ``vqdet``.

    vqdet grad-check [NAME ...]

runs the named finite-difference gradient checks of :mod:`vqdet.gradcheck`
(all of them when no name is given) and prints one row per check: its name,
the worst relative error, the tolerance, and ``ok`` or ``FAIL``. The exit
status is 1 when any check fails.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import gradcheck


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="vqdet")
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("grad-check", help="compare tape gradients with central differences")
    check.add_argument("names", nargs="*", metavar="NAME",
                       help=f"checks to run (default: all): {', '.join(gradcheck.REGISTRY)}")
    args = parser.parse_args(argv)
    unknown = [n for n in args.names if n not in gradcheck.REGISTRY]
    if unknown:
        parser.error(f"unknown gradient check: {', '.join(unknown)}")
    rows = gradcheck.run_suite(names=args.names or None)
    width = max(len(name) for name, *_ in rows)
    for name, err, tol, ok in rows:
        print(f"{name:<{width}}  {err:.3e}  {tol:.0e}  {'ok' if ok else 'FAIL'}")
    return 0 if all(ok for *_, ok in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
