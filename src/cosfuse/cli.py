"""Command-line frontend.

Subcommands: train, fuse, synth, eval, sweep. Every command is deterministic
given identical flags, files, and seed. Options can also come from a config
file of ``key = value`` lines ('#' starts a comment); precedence is defaults,
then config file, then command-line flags. Unknown config keys are rejected
before any computation starts.

Exit codes: 0 success, 1 internal error, 2 bad input, 3 numerical failure
(a diverged solver, or LAPACK not converging).
Output files are written to a temporary file and renamed into place, so a
failing command never leaves partial outputs behind.

The ``--threads`` flag is accepted for compatibility with data-parallel
patch processing; computation is batched single-threaded either way, so
results are independent of the requested thread count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

import numpy as np

from . import imageio, metrics
from .fuse import (FusionConfig, activity_text, diagnostics_text,
                   fuse as fuse_images, winner_map_text)
from .learn import AnalysisOperator, NumericalFailure, TrainConfig, train

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

SWEEP_PATCH_SIZES = (5, 6, 7, 8, 9)
SWEEP_NOISE_LEVELS = (0, 5, 10, 15, 20)
OPERATOR_REDUNDANCY = 64.0 / 49.0


class InputError(Exception):
    """User-correctable problem with arguments or input files."""


def _atomic_write(path, data):
    """Write bytes (or text) to ``path`` via a temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    mode = "wb" if isinstance(data, bytes) else "w"
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cosfuse-tmp-")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_config_file(path):
    if not os.path.isfile(path):
        raise InputError(f"config file not found: {path}")
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(
                    f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}"
                )
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _merge_config(defaults, ns, known):
    """defaults < config file < explicit flags; unknown file keys rejected."""
    merged = dict(defaults)
    if getattr(ns, "config", None):
        for key, raw in _load_config_file(ns.config).items():
            if key not in known:
                raise InputError(f"unknown config key {key!r} in {ns.config}")
            try:
                merged[key] = known[key](raw)
            except ValueError:
                raise InputError(
                    f"bad value for config key {key!r}: {raw!r}"
                ) from None
    for key in known:
        flag = getattr(ns, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _require_file(path, what):
    if not os.path.isfile(path):
        raise InputError(f"{what} not found: {path}")
    return path


def _load_image(path):
    _require_file(path, "image")
    with open(path, "rb") as fh:
        try:
            return imageio.read_pgm(fh.read())
        except imageio.PgmFormatError as exc:
            raise InputError(f"{path}: {exc}") from exc


def _load_operator(path):
    _require_file(path, "operator file")
    try:
        return AnalysisOperator.load(path)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _validate_threads(threads):
    if threads < 1:
        raise InputError(f"--threads must be at least 1, got {threads}")


# ---------------------------------------------------------------------------
# train

_TRAIN_KEYS = {
    "h": int, "m": int, "patches": int, "lam": float, "mu": float,
    "sweeps": int, "admm_tol": float, "max_admm_iters": int,
    "cosupport_tol": float, "seed": int, "threads": int,
}

_TRAIN_DEFAULTS = {
    "h": 64, "m": 49, "patches": 10_000, "lam": 0.1, "mu": 1.0,
    "sweeps": 20, "admm_tol": 1e-6, "max_admm_iters": 1000,
    "cosupport_tol": 1e-3, "seed": 0, "threads": 1,
}


def _sample_training_patches(images, n, count, seed):
    """Random patches, mean-subtracted and unit-normalized (flat patches
    carry no analyzable structure and are resampled)."""
    rng = np.random.default_rng(seed)
    m = n * n
    Y = np.empty((m, count))
    usable = [img for img in images if min(img.shape) >= n]
    if not usable:
        raise InputError(f"no training image is at least {n}x{n} pixels")
    i = 0
    attempts = 0
    while i < count:
        attempts += 1
        if attempts > 50 * count:
            raise InputError("training images are flat; cannot sample patches")
        img = usable[int(rng.integers(len(usable)))]
        top = int(rng.integers(img.shape[0] - n + 1))
        left = int(rng.integers(img.shape[1] - n + 1))
        block = img[top:top + n, left:left + n].reshape(m) / 255.0
        block = block - block.mean()
        norm = np.linalg.norm(block)
        if norm < 1e-8:
            continue
        Y[:, i] = block / norm
        i += 1
    return Y


def cmd_train(ns):
    cfgv = _merge_config(_TRAIN_DEFAULTS, ns, _TRAIN_KEYS)
    _validate_threads(cfgv["threads"])
    n = math.isqrt(cfgv["m"])
    if n * n != cfgv["m"]:
        raise InputError(f"m must be a perfect square (n*n), got {cfgv['m']}")
    if not os.path.isdir(ns.images):
        raise InputError(f"training image directory not found: {ns.images}")
    paths = sorted(
        os.path.join(ns.images, f) for f in os.listdir(ns.images)
        if f.lower().endswith(".pgm")
    )
    if not paths:
        raise InputError(f"no .pgm images in {ns.images}")
    images = [_load_image(p) for p in paths]
    if cfgv["patches"] < cfgv["h"]:
        raise InputError(
            f"need at least h={cfgv['h']} training patches, got {cfgv['patches']}"
        )
    try:
        cfg = TrainConfig(
            lam=cfgv["lam"], mu=cfgv["mu"],
            max_admm_iters=cfgv["max_admm_iters"], admm_tol=cfgv["admm_tol"],
            cosupport_tol=cfgv["cosupport_tol"], sweeps=cfgv["sweeps"],
            seed=cfgv["seed"],
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    Y = _sample_training_patches(images, n, cfgv["patches"], cfgv["seed"])
    operator, report = train(Y, cfg, cfgv["h"])

    _atomic_write(ns.out, operator.to_text())

    print(f"operator={ns.out}")
    print(f"h={operator.h}")
    print(f"m={operator.m}")
    print(f"patches={cfgv['patches']}")
    print(f"sweeps={cfg.sweeps}")
    print("objective_per_sweep=" + ",".join(
        f"{v:.9g}" for v in report.objective_per_sweep))
    print("mean_cosparsity_per_sweep=" + ",".join(
        f"{v:.6g}" for v in report.mean_cosparsity_per_sweep))
    print("rows_updated_per_sweep=" + ",".join(
        str(v) for v in report.rows_updated_per_sweep))
    return EXIT_OK


# ---------------------------------------------------------------------------
# fuse

_FUSE_KEYS = {
    "epsilon": float, "lambda_local": float, "lambda_global": float,
    "n": int, "p": int, "mu": float, "admm_tol": float,
    "max_admm_iters": int, "global_rounds": int,
    "sigma": float, "seed": int, "threads": int,
}

_FUSE_DEFAULTS = {
    "epsilon": 0.1, "lambda_local": 0.05, "lambda_global": 0.02,
    "n": 7, "p": 1, "mu": 1.0, "admm_tol": 1e-6,
    "max_admm_iters": 1000, "global_rounds": 3,
    "sigma": 0.0, "seed": 0, "threads": 1,
}


def _fusion_config(cfgv):
    try:
        return FusionConfig(
            epsilon=cfgv["epsilon"], lambda_local=cfgv["lambda_local"],
            lambda_global=cfgv["lambda_global"], patch_size=cfgv["n"],
            overlap=cfgv["p"], mu=cfgv["mu"], admm_tol=cfgv["admm_tol"],
            max_admm_iters=cfgv["max_admm_iters"],
            global_rounds=cfgv["global_rounds"],
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _derived_path(out, suffix):
    stem, _ = os.path.splitext(out)
    return stem + suffix


def cmd_fuse(ns):
    cfgv = _merge_config(_FUSE_DEFAULTS, ns, _FUSE_KEYS)
    _validate_threads(cfgv["threads"])
    if cfgv["sigma"] < 0:
        raise InputError(f"sigma must be nonnegative, got {cfgv['sigma']}")
    images = [_load_image(p) for p in ns.inputs]
    shapes = {img.shape for img in images}
    if len(shapes) != 1:
        raise InputError(
            "input images disagree on size: "
            + ", ".join(f"{p}={img.shape[1]}x{img.shape[0]}"
                        for p, img in zip(ns.inputs, images))
        )
    operator = _load_operator(ns.op)
    if cfgv["sigma"] > 0:
        images = [
            imageio.add_gaussian_noise(img, cfgv["sigma"], (cfgv["seed"], k))
            for k, img in enumerate(images)
        ]
    cfg = _fusion_config(cfgv)
    try:
        result = fuse_images(images, operator, cfg)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    winner_path = ns.winner_map or _derived_path(ns.out, "_winners.txt")
    activity_path = ns.activity or _derived_path(ns.out, "_activity.txt")
    diag_path = ns.diagnostics or _derived_path(ns.out, "_diag.txt")

    _atomic_write(ns.out, imageio.write_pgm(result.fused))
    _atomic_write(winner_path, winner_map_text(result))
    _atomic_write(activity_path, activity_text(result))
    _atomic_write(diag_path, diagnostics_text(result))

    print(f"fused={ns.out}")
    print(f"winner_map={winner_path}")
    print(f"activity={activity_path}")
    print(f"diagnostics={diag_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth

def cmd_synth(ns):
    truth = _load_image(ns.truth)
    split = ns.split if ns.split is not None else truth.shape[1] // 2
    if ns.sigma_b < 0:
        raise InputError(f"sigma-b must be nonnegative, got {ns.sigma_b}")
    try:
        left, right = imageio.synth_multifocus(truth, ns.sigma_b, split)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _atomic_write(ns.out_truth, imageio.write_pgm(truth))
    _atomic_write(ns.out_a, imageio.write_pgm(left))
    _atomic_write(ns.out_b, imageio.write_pgm(right))
    print(f"truth={ns.out_truth}")
    print(f"a={ns.out_a}")
    print(f"b={ns.out_b}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval

def cmd_eval(ns):
    a = _load_image(ns.a)
    b = _load_image(ns.b)
    fused = _load_image(ns.fused)
    if a.shape != fused.shape or b.shape != fused.shape:
        raise InputError("eval images disagree on size")
    values = {"q_mi": metrics.q_mi(a, b, fused),
              "q_abf": metrics.q_abf(a, b, fused)}
    if ns.truth:
        truth = _load_image(ns.truth)
        if truth.shape != fused.shape:
            raise InputError("truth image size does not match fused image")
        values["psnr_db"] = metrics.psnr(fused, truth)
        values["mse"] = metrics.mse(fused, truth)
    for line in metrics.metric_report_lines(values):
        print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep

_SWEEP_KEYS = {
    "sigma_b": float, "split": int, "train_patches": int, "train_sweeps": int,
    "lam": float, "lambda_local": float, "lambda_global": float,
    "epsilon": float, "mu": float, "admm_tol": float, "max_admm_iters": int,
    "global_rounds": int, "seed": int, "threads": int,
}

_SWEEP_DEFAULTS = {
    "sigma_b": 2.0, "split": 0, "train_patches": 2000, "train_sweeps": 5,
    "lam": 0.1, "lambda_local": 0.05, "lambda_global": 0.02,
    "epsilon": 0.1, "mu": 1.0, "admm_tol": 1e-6, "max_admm_iters": 1000,
    "global_rounds": 3, "seed": 0, "threads": 1,
}


def cmd_sweep(ns):
    cfgv = _merge_config(_SWEEP_DEFAULTS, ns, _SWEEP_KEYS)
    _validate_threads(cfgv["threads"])
    truth = _load_image(ns.truth)
    split = cfgv["split"] or truth.shape[1] // 2
    rows = []
    for n in SWEEP_PATCH_SIZES:
        if min(truth.shape) < n:
            raise InputError(f"truth image too small for patch size {n}")
        m = n * n
        h = int(round(m * OPERATOR_REDUNDANCY))
        Y = _sample_training_patches([truth], n, cfgv["train_patches"],
                                     (cfgv["seed"], n))
        tcfg = TrainConfig(
            lam=cfgv["lam"], mu=cfgv["mu"],
            max_admm_iters=cfgv["max_admm_iters"], admm_tol=cfgv["admm_tol"],
            sweeps=cfgv["train_sweeps"], seed=cfgv["seed"],
        )
        operator, _ = train(Y, tcfg, h)
        left, right = imageio.synth_multifocus(truth, cfgv["sigma_b"], split)
        for sigma in SWEEP_NOISE_LEVELS:
            a = imageio.add_gaussian_noise(left, sigma, (cfgv["seed"], n, sigma, 0))
            b = imageio.add_gaussian_noise(right, sigma, (cfgv["seed"], n, sigma, 1))
            # The per-patch solve emulates a constrained l1 budget, so the
            # penalty weights scale with the noise level (configured values
            # apply at sigma = 15; the noise-free runs need no shrinkage).
            scale = sigma / 15.0
            fcfg = FusionConfig(
                epsilon=cfgv["epsilon"],
                lambda_local=cfgv["lambda_local"] * scale,
                lambda_global=cfgv["lambda_global"] * scale,
                patch_size=n, overlap=1,
                mu=cfgv["mu"], admm_tol=cfgv["admm_tol"],
                max_admm_iters=cfgv["max_admm_iters"],
                global_rounds=cfgv["global_rounds"],
            )
            result = fuse_images([a, b], operator, fcfg)
            rows.append((
                n, sigma,
                metrics.q_mi(a, b, result.fused),
                metrics.q_abf(a, b, result.fused),
                metrics.psnr(result.fused, truth),
            ))
    csv_lines = ["n,sigma,q_mi,q_abf,psnr"]
    for n, sigma, qmi, qabf, p in rows:
        csv_lines.append(f"{n},{sigma},{qmi:.6f},{qabf:.6f},{p:.3f}")
    _atomic_write(ns.out, "\n".join(csv_lines) + "\n")
    print(f"sweep={ns.out}")
    print(f"rows={len(rows)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / dispatch

def _add_config_flag(p):
    p.add_argument("--config", help="config file of key = value lines")
    p.add_argument("--threads", type=int, help="worker threads (results are "
                   "independent of this value)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cosfuse",
        description="Learn cosparse analysis operators and fuse multi-focus images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="learn an analysis operator from images")
    p.add_argument("--images", required=True, help="directory of .pgm images")
    p.add_argument("--out", required=True, help="output operator file")
    for key in ("h", "m", "patches", "sweeps", "max_admm_iters"):
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=int)
    for key in ("lam", "mu", "admm_tol", "cosupport_tol"):
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float)
    p.add_argument("--seed", type=int)
    _add_config_flag(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("fuse", help="fuse multi-focus images")
    p.add_argument("--inputs", required=True, nargs="+", help="input .pgm images")
    p.add_argument("--op", required=True, help="operator file")
    p.add_argument("--out", required=True, help="output fused .pgm")
    p.add_argument("--winner-map", dest="winner_map")
    p.add_argument("--activity", dest="activity")
    p.add_argument("--diagnostics", dest="diagnostics")
    for key in ("n", "p", "max_admm_iters", "global_rounds"):
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=int)
    for key in ("epsilon", "lambda_local", "lambda_global", "mu",
                "admm_tol", "sigma"):
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float)
    p.add_argument("--seed", type=int)
    _add_config_flag(p)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("synth", help="make a synthetic multi-focus pair")
    p.add_argument("--truth", required=True, help="ground-truth .pgm image")
    p.add_argument("--sigma-b", dest="sigma_b", type=float, default=2.0)
    p.add_argument("--split", type=int, help="focus boundary column")
    p.add_argument("--out-truth", dest="out_truth", required=True)
    p.add_argument("--out-a", dest="out_a", required=True)
    p.add_argument("--out-b", dest="out_b", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score a fused image against its sources")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--fused", required=True)
    p.add_argument("--truth", help="optional ground truth for PSNR/MSE")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="fuse and evaluate over patch sizes and "
                       "noise levels, writing a CSV table")
    p.add_argument("--truth", required=True, help="ground-truth .pgm image")
    p.add_argument("--out", required=True, help="output CSV path")
    for key in ("split", "train_patches", "train_sweeps", "max_admm_iters",
                "global_rounds"):
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=int)
    for key in ("sigma_b", "lam", "lambda_local", "lambda_global", "epsilon",
                "mu", "admm_tol"):
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float)
    p.add_argument("--seed", type=int)
    _add_config_flag(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return ns.func(ns)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalFailure, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
