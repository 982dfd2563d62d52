#!/usr/bin/env python3
"""Step size refinement study of the filtered scheme, several backends.

The closed-form reference of the forced oscillator benchmark serves as
the exact solution, so the observed_order column should settle near 2.
"""

import argparse
import pathlib
import sys

from sincint.cli import main as cli

BACKENDS = (
    ("dense", "dense"),
    ("ratkrylov_E_tol", "ratkrylov:E:1e-12"),
    ("ratkrylov_pade_n6", "ratkrylov:pade-sinc:n6"),
    ("expsum", "expsum:12"),
)


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--N", type=int, default=20)
    ap.add_argument("--h-list", default="1e-1,5e-2,2.5e-2,1e-2")
    args = ap.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for tag, backend in BACKENDS:
        out = outdir / f"converge_{tag}.csv"
        rc = cli(["converge", "--N", str(args.N), "--h-list", args.h_list,
                  "--backend", backend, "--out", str(out)])
        if rc != 0:
            return rc
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
