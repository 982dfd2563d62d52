#!/usr/bin/env python3
"""Exponential sum accuracy against the node count, one CSV per matrix."""

import argparse
import pathlib
import sys

from sincint.cli import main as cli


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--nu-max", type=int, default=15)
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for matrix in ("lap1d", "lap2d"):
        out = outdir / f"expsum_{matrix}.csv"
        cmd = ["expsum-bench", "--matrix", matrix,
               "--nu-max", str(args.nu_max), "--out", str(out)]
        if args.small:
            cmd.append("--small")
        rc = cli(cmd)
        if rc != 0:
            return rc
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
