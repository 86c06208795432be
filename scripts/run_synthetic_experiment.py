#!/usr/bin/env python3
"""End-to-end demo on synthetic data.

Generates a textured ground-truth image, degrades it into a half-blurred
multi-focus pair (optionally with noise), learns an analysis operator from
the truth's patches, fuses the pair, and prints quality metrics next to the
naive pixel-average baseline. All intermediate images are written as PGM
files into the output directory.
"""

import argparse
import os
import sys

import numpy as np

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tests")]

from conftest import make_texture  # noqa: E402
from cosfuse import imageio, metrics  # noqa: E402
from cosfuse.fuse import FusionConfig, fuse  # noqa: E402
from cosfuse.learn import TrainConfig, sample_training_patches, train  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=128)
    ap.add_argument("--sigma-b", type=float, default=2.0, help="blur level")
    ap.add_argument("--sigma", type=float, default=0.0, help="noise level")
    ap.add_argument("--patches", type=int, default=1500)
    ap.add_argument("--sweeps", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default="outputs")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    truth = make_texture(args.size, args.size, seed=args.seed)
    left, right = imageio.synth_multifocus(truth, args.sigma_b, args.size // 2)
    if args.sigma > 0:
        left = imageio.add_gaussian_noise(left, args.sigma, (args.seed, 0))
        right = imageio.add_gaussian_noise(right, args.sigma, (args.seed, 1))

    print(f"training operator on {args.patches} patches ...")
    Y = sample_training_patches([truth], 7, args.patches, args.seed + 1)
    operator, report = train(
        Y, TrainConfig(lam=0.1, sweeps=args.sweeps, max_admm_iters=300,
                       seed=args.seed + 2), h=64)
    print("  objective per sweep:",
          " ".join(f"{v:.1f}" for v in report.objective_per_sweep))

    cfg = FusionConfig(lambda_local=0.05 if args.sigma > 0 else 0.01,
                       overlap=4 if args.sigma > 0 else 1)
    result = fuse([left, right], operator, cfg)
    naive = np.clip((left + right) / 2.0, 0, 255)

    for name, img in (("truth", truth), ("input_a", left), ("input_b", right),
                      ("naive_average", naive), ("fused", result.fused)):
        imageio.save_pgm(os.path.join(args.out_dir, f"{name}.pgm"), img)

    print(f"wrote images to {args.out_dir}/")
    print(f"psnr_input_a={metrics.psnr(left, truth):.2f}")
    print(f"psnr_input_b={metrics.psnr(right, truth):.2f}")
    print(f"psnr_naive={metrics.psnr(naive, truth):.2f}")
    print(f"psnr_fused={metrics.psnr(result.fused, truth):.2f}")
    print(f"q_mi={metrics.q_mi(left, right, result.fused):.4f}")
    print(f"q_abf={metrics.q_abf(left, right, result.fused):.4f}")


if __name__ == "__main__":
    main()
