#!/usr/bin/env python3
"""Run the patch-size / noise-level sweep on a synthetic scene.

Builds the scene of acceptance criterion 7 (``tests/conftest.py``
``make_scene``: fine texture and gratings on both sides of a low-gradient
corridor at the focus split), saves it as PGM, and invokes the
``cosfuse sweep`` command, which trains one operator per patch size n in
{5..9} and fuses/evaluates at noise levels {0, 5, 10, 15, 20}.
The resulting CSV (columns n, sigma, q_mi, q_abf, psnr) is left at --out.
"""

import argparse
import os
import sys

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tests")]

from conftest import make_scene  # noqa: E402
from cosfuse import imageio  # noqa: E402
from cosfuse.cli import main as cli_main  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=128)
    ap.add_argument("--out", default="outputs/sweep.csv")
    ap.add_argument("--train-patches", type=int, default=600)
    ap.add_argument("--train-sweeps", type=int, default=2)
    ap.add_argument("--max-admm-iters", type=int, default=400)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    truth_path = os.path.join(os.path.dirname(os.path.abspath(args.out)),
                              "sweep_truth.pgm")
    imageio.save_pgm(truth_path, make_scene(args.size, args.size))
    rc = cli_main([
        "sweep", "--truth", truth_path, "--out", args.out,
        "--train-patches", str(args.train_patches),
        "--train-sweeps", str(args.train_sweeps),
        "--max-admm-iters", str(args.max_admm_iters),
        "--seed", str(args.seed),
    ])
    if rc == 0:
        with open(args.out) as fh:
            print(fh.read())
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
