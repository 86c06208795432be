"""Command-line frontend.

Subcommands: train, fuse, synth, eval, sweep. Every command is deterministic
given identical flags, files, and seed. The options of train, fuse and sweep
are the fields of ``TrainConfig``/``FusionConfig``, with each field's type
and default, plus a few command-only keys (such as ``h``, ``sigma``,
``seed``); fuse spells ``overlap`` as ``p``, and takes the patch side from
the operator: n is the square root of its signal dimension m.
synth and sweep share one multi-focus pair option, ``sigma_b``; the pair
splits at the middle column.
Each option is a ``--key`` flag (underscores become dashes) whose argparse
default is the option's default; an unknown flag exits 2 before any
computation starts.

Exit codes, set by ``main`` alone: 0 success; 3 numerical failure
(``NumericalFailure`` from a diverged solver, or LAPACK's ``LinAlgError``);
2 bad input (any other ``ValueError``, or an ``OSError`` such as a missing
file or output directory); 1 internal error (any other exception).
A command renames its outputs into place only once all of them are written
to temporary files, so a failing command never leaves partial outputs behind;
two outputs that name the same file, or an output that names a directory,
are bad input, and nothing is written. An input image that is not a valid
PGM is bad input too, reported with its path (``imageio.load_pgm``).

The ``--threads`` flag has no effect yet (ROADMAP item 9); computation is
batched single-threaded either way, so results are independent of the
requested thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import tempfile

import numpy as np

from . import imageio, metrics
from .fuse import (FusionConfig, activity_text, diagnostics_text,
                   fuse as fuse_images)
from .learn import (AnalysisOperator, NumericalFailure, TrainConfig,
                    sample_training_patches, train)
from .linalg import _as_images, matrix_text
from .patches import patch_side

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

SWEEP_PATCH_SIZES = (5, 6, 7, 8, 9)
SWEEP_NOISE_LEVELS = (0, 5, 10, 15, 20)


def _atomic_write(*outputs):
    """Write each ``(path, data)`` output, data bytes or text, all or none:
    every output goes to a temp file beside its path, and the temp files are
    renamed into place only once all of them are written. Each output gets
    the mode ``open`` would give a new file (0o666 less the umask), not the
    temp file's 0o600. Two outputs that name one file, or an output that
    names a directory (an existing one, or any path ending in a separator),
    are a ValueError, raised before anything is written."""
    seen = set()
    for path, _ in outputs:
        if os.path.isdir(path) or os.fspath(path).endswith(os.sep):
            raise ValueError(f"output names a directory: {path}")
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"two outputs name the same file: {path}")
        seen.add(real)
    umask = os.umask(0)
    os.umask(umask)
    tmps = []
    try:
        for path, data in outputs:
            try:
                fd, tmp = tempfile.mkstemp(
                    dir=os.path.dirname(os.path.abspath(path)),
                    prefix=".cosfuse-tmp-")
            except OSError as exc:
                exc.filename = path  # name the output, not the temp file
                raise
            tmps.append(tmp)
            with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
                os.fchmod(fh.fileno(), 0o666 & ~umask)
                fh.write(data)
        for tmp, (path, _) in zip(tmps, outputs):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _option_fields(cls, renames):
    """(field, option key) for each field of ``cls`` that is an option:
    ``renames`` maps a field name to its option key, or to None to leave the
    field out, so that it keeps its default."""
    for f in dataclasses.fields(cls):
        key = renames.get(f.name, f.name)
        if key is not None:
            yield f, key


def _options(cls, **renames):
    """Option key -> default for the fields of the config dataclass ``cls``."""
    return {key: f.default for f, key in _option_fields(cls, renames)}


def _make_config(cls, cfgv, **renames):
    """Build ``cls`` from option values keyed as ``_options`` keys them."""
    return cls(**{f.name: cfgv[key] for f, key in _option_fields(cls, renames)})


def _validate_threads(threads):
    if threads < 1:
        raise ValueError(f"--threads must be at least 1, got {threads}")


# ---------------------------------------------------------------------------
# train

_TRAIN_OPTIONS = {
    **_options(TrainConfig),
    "h": 64, "m": 49, "patches": 10_000, "threads": 1,
}
# Rows per signal dimension of the operators that sweep trains: train's h/m.
OPERATOR_REDUNDANCY = _TRAIN_OPTIONS["h"] / _TRAIN_OPTIONS["m"]


def cmd_train(ns):
    _validate_threads(ns.threads)
    n = patch_side(ns.m)
    paths = sorted(
        os.path.join(ns.images, f) for f in os.listdir(ns.images)
        if f.lower().endswith(".pgm")
    )
    if not paths:
        raise ValueError(f"no .pgm images in {ns.images}")
    images = [imageio.load_pgm(p) for p in paths]
    cfg = _make_config(TrainConfig, vars(ns))
    Y = sample_training_patches(images, n, ns.patches, ns.seed)
    operator, report = train(Y, cfg, ns.h)

    _atomic_write((ns.out, operator.to_text()))

    print(f"operator={ns.out}")
    print(f"h={operator.h}")
    print(f"m={operator.m}")
    print(f"patches={ns.patches}")
    print(f"sweeps={cfg.sweeps}")
    print("objective_per_sweep=" + ",".join(
        f"{v:.9g}" for v in report.objective_per_sweep))
    print("mean_cosparsity_per_sweep=" + ",".join(
        f"{v:.6g}" for v in report.mean_cosparsity_per_sweep))
    for key in ("admm_iters_max_per_sweep", "admm_nonconverged_per_sweep",
                "rows_reinitialized_per_sweep"):
        print(f"{key}=" + ",".join(str(v) for v in getattr(report, key)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# fuse

_FUSE_RENAMES = {"overlap": "p"}
_FUSE_OPTIONS = {
    **_options(FusionConfig, **_FUSE_RENAMES),
    "sigma": 0.0, "seed": 0, "threads": 1,
}


def _derived_path(out, suffix):
    stem, _ = os.path.splitext(out)
    return stem + suffix


def cmd_fuse(ns):
    _validate_threads(ns.threads)
    images = _as_images([imageio.load_pgm(p) for p in ns.inputs], ns.inputs)
    operator = AnalysisOperator.load(ns.op)
    images = [imageio.add_gaussian_noise(img, ns.sigma, (ns.seed, k))
              for k, img in enumerate(images)]
    cfg = _make_config(FusionConfig, vars(ns), **_FUSE_RENAMES)
    result = fuse_images(images, operator, cfg)

    winner_path = ns.winner_map or _derived_path(ns.out, "_winners.txt")
    activity_path = ns.activity or _derived_path(ns.out, "_activity.txt")
    diag_path = ns.diagnostics or _derived_path(ns.out, "_diag.txt")

    _atomic_write((ns.out, imageio.write_pgm(result.fused)),
                  (winner_path, matrix_text(result.winner_map)),
                  (activity_path, activity_text(result)),
                  (diag_path, diagnostics_text(result)))

    print(f"fused={ns.out}")
    print(f"winner_map={winner_path}")
    print(f"activity={activity_path}")
    print(f"diagnostics={diag_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth

# The multi-focus pair option, shared by synth and sweep.
_PAIR_OPTIONS = {"sigma_b": 2.0}


def _multifocus_pair(ns):
    """The image at ``ns.truth`` and its synth_multifocus pair, split at the
    middle column, which leaves each side at least one column."""
    truth = imageio.load_pgm(ns.truth)
    width = truth.shape[1]
    if width < 2:
        raise ValueError(f"{ns.truth}: a multi-focus pair needs a truth at "
                         f"least 2 columns wide, got width {width}")
    return truth, *imageio.synth_multifocus(truth, ns.sigma_b, width // 2)


def cmd_synth(ns):
    truth, left, right = _multifocus_pair(ns)
    _atomic_write((ns.out_truth, imageio.write_pgm(truth)),
                  (ns.out_a, imageio.write_pgm(left)),
                  (ns.out_b, imageio.write_pgm(right)))
    print(f"truth={ns.out_truth}")
    print(f"a={ns.out_a}")
    print(f"b={ns.out_b}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval

def cmd_eval(ns):
    paths = [ns.a, ns.b, ns.fused, *([ns.truth] if ns.truth else [])]
    a, b, fused, *truth = _as_images([imageio.load_pgm(p) for p in paths], paths)
    values = {"q_mi": metrics.q_mi(a, b, fused),
              "q_abf": metrics.q_abf(a, b, fused)}
    if truth:
        values["psnr_db"] = metrics.psnr(fused, truth[0])
        values["mse"] = metrics.mse(fused, truth[0])
    for key, value in values.items():
        print(f"{key}={value:.12g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep

# sweep takes TrainConfig's sweeps as train_sweeps, with a default of its
# own, and sets the overlap per cell; each cell's patch side is that of the
# operator it trains.
_SWEEP_TRAIN = {"sweeps": "train_sweeps"}
_SWEEP_FUSE = {"overlap": None}
_SWEEP_OPTIONS = {
    **_options(TrainConfig, **_SWEEP_TRAIN),
    **_options(FusionConfig, **_SWEEP_FUSE),
    **_PAIR_OPTIONS,
    "train_patches": 2000, "train_sweeps": 5, "threads": 1,
}


def cmd_sweep(ns):
    _validate_threads(ns.threads)
    tcfg = _make_config(TrainConfig, vars(ns), **_SWEEP_TRAIN)
    base = _make_config(FusionConfig, vars(ns), **_SWEEP_FUSE)
    truth, left, right = _multifocus_pair(ns)
    rows = []
    for n in SWEEP_PATCH_SIZES:
        m = n * n
        h = int(round(m * OPERATOR_REDUNDANCY))
        Y = sample_training_patches([truth], n, ns.train_patches, (ns.seed, n))
        operator, _ = train(Y, tcfg, h)
        for sigma in SWEEP_NOISE_LEVELS:
            a = imageio.add_gaussian_noise(left, sigma, (ns.seed, n, sigma, 0))
            b = imageio.add_gaussian_noise(right, sigma, (ns.seed, n, sigma, 1))
            # The per-patch solve emulates a constrained l1 budget, so the
            # sparsity weight scales with the noise level (the configured
            # value applies at sigma = 15; the noise-free runs need no
            # shrinkage).
            fcfg = dataclasses.replace(
                base, overlap=1,
                lambda_local=base.lambda_local * (sigma / 15.0),
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
    _atomic_write((ns.out, "\n".join(csv_lines) + "\n"))
    print(f"sweep={ns.out}")
    print(f"rows={len(rows)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / dispatch

def _add_option_flags(p, options):
    """A ``--key`` flag for each option, typed like its default."""
    for key, default in options.items():
        p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                       type=type(default), default=default,
                       help=f"default: {default}")


@functools.cache
def build_parser():
    """The ``cosfuse`` parser, built on the first call and shared after."""
    parser = argparse.ArgumentParser(
        prog="cosfuse",
        description="Learn cosparse analysis operators and fuse multi-focus images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="learn an analysis operator from images")
    p.add_argument("--images", required=True, help="directory of .pgm images")
    p.add_argument("--out", required=True, help="output operator file")
    _add_option_flags(p, _TRAIN_OPTIONS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("fuse", help="fuse multi-focus images")
    p.add_argument("--inputs", required=True, nargs="+", help="input .pgm images")
    p.add_argument("--op", required=True, help="operator file")
    p.add_argument("--out", required=True, help="output fused .pgm")
    p.add_argument("--winner-map", dest="winner_map")
    p.add_argument("--activity", dest="activity")
    p.add_argument("--diagnostics", dest="diagnostics")
    _add_option_flags(p, _FUSE_OPTIONS)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("synth", help="make a synthetic multi-focus pair")
    p.add_argument("--truth", required=True, help="ground-truth .pgm image")
    p.add_argument("--out-truth", dest="out_truth", required=True)
    p.add_argument("--out-a", dest="out_a", required=True)
    p.add_argument("--out-b", dest="out_b", required=True)
    _add_option_flags(p, _PAIR_OPTIONS)
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
    _add_option_flags(p, _SWEEP_OPTIONS)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    # The one exception-to-exit-code rule. LinAlgError subclasses ValueError,
    # so the numerical clause must come first.
    try:
        return ns.func(ns)
    except (NumericalFailure, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
