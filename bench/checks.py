"""Output checks computed apart from the program.

Each check returns a list of problems (empty when the output is right). The
references are recomputed here with plain numpy or scipy from the inputs, or
are properties the method must have; none compares against a stored copy of
an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

# Relative objective gap allowed between a coded column and the exact-step
# ADMM oracle (see README.md for the figure measured against it).
ORACLE_REL_TOL = 1e-5
ORACLE_ADMM_TOL = 1e-10
ORACLE_MAX_ITERS = 20_000


def read_matrix(path):
    """Matrix text file: '#' comment lines, a "rows cols" line, then values."""
    with open(path, encoding="ascii") as fh:
        body = [ln.split() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    rows, cols = int(body[0][0]), int(body[0][1])
    values = np.array([float(v) for ln in body[1:] for v in ln])
    return values.reshape(rows, cols)


def read_pgm(path):
    with open(path, "rb") as fh:
        data = fh.read()
    magic, width, height, maxval = data.split(maxsplit=4)[:4]
    if magic != b"P5" or int(maxval) != 255:
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    w, h = int(width), int(height)
    return np.frombuffer(data[-w * h:], dtype=np.uint8).astype(np.float64).reshape(h, w)


def read_key_values(text):
    return {k: float(v) for k, v in (ln.split("=", 1) for ln in text.splitlines() if "=" in ln)}


def psnr(a, b):
    return 10.0 * math.log10(255.0 ** 2 / float(np.mean((a - b) ** 2)))


# -- train ----------------------------------------------------------------

def check_operator(path, h, m):
    W = read_matrix(path)
    if W.shape != (h, m):
        return [f"operator is {W.shape}, expected {(h, m)}"]
    if not np.all(np.isfinite(W)):
        return ["operator has non-finite entries"]
    problems = []
    norm_err = np.abs(np.linalg.norm(W, axis=1) - 1.0).max()
    if norm_err > 1e-10:
        problems.append(f"row norms off unit by {norm_err:.2e}")
    sv = np.linalg.svd(W, compute_uv=False)
    if sv[-1] <= sv[0] * max(W.shape) * np.finfo(float).eps:
        problems.append("operator lacks full column rank")
    cos = np.abs(W @ W.T)
    np.fill_diagonal(cos, 0.0)
    if cos.max() > 0.999:
        problems.append(f"row pair with |cos| {cos.max():.6f} > 0.999")
    return problems


# -- fuse-noisy -----------------------------------------------------------

def _offsets(dim, n, stride):
    offs = list(range(0, dim - n + 1, stride))
    if offs[-1] != dim - n:
        offs.append(dim - n)
    return offs


def activities(images, W, n, overlap):
    """Per-cell l1 activity of the analysed mean-free patch, (K, rows, cols)."""
    stride = n - overlap
    rows, cols = _offsets(images[0].shape[0], n, stride), _offsets(images[0].shape[1], n, stride)
    out = np.empty((len(images), len(rows), len(cols)))
    for k, img in enumerate(images):
        scaled = img / 255.0
        for i, r in enumerate(rows):
            P = np.stack([scaled[r:r + n, c:c + n].ravel() for c in cols], axis=1)
            out[k, i] = np.abs(W @ (P - P.mean(axis=0))).sum(axis=0)
    return out


def check_winners(winners, noisy, W, n, overlap):
    acts = activities(noisy, W, n, overlap)
    if winners.shape != acts.shape[1:]:
        return [f"winner map is {winners.shape}, grid is {acts.shape[1:]}"]
    top2 = np.sort(acts, axis=0)[-2:]
    decided = (top2[1] - top2[0]) > 1e-9 * top2[1]
    wrong = int(np.sum((winners != acts.argmax(axis=0)) & decided))
    return [f"{wrong} winner cells disagree with the recomputed argmax"] if wrong else []


def mutual_information(a, b):
    edges = np.arange(257) - 0.5
    qa, qb = (np.clip(np.rint(x), 0, 255).ravel() for x in (a, b))
    joint, _, _ = np.histogram2d(qa, qb, bins=[edges, edges])
    p = joint / joint.sum()
    pa, pb = p.sum(axis=1), p.sum(axis=0)
    nz = p > 0
    mi = float((p[nz] * np.log2(p[nz] / np.outer(pa, pb)[nz])).sum())
    return mi, _entropy(pa), _entropy(pb)


def _entropy(p):
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def q_mi(a, b, f):
    mi_af, h_a, h_f = mutual_information(a, f)
    mi_bf, h_b, _ = mutual_information(b, f)
    return mi_af / (h_a + h_f) + mi_bf / (h_b + h_f)


def q_abf(a, b, f):
    """Xydeas-Petrovic edge transfer with scipy Sobel gradients."""
    from scipy import ndimage

    def edges(x):
        gx = ndimage.sobel(x, axis=1, mode="reflect")
        gy = ndimage.sobel(x, axis=0, mode="reflect")
        ang = np.arctan2(gy, gx)
        ang = np.where(ang > np.pi / 2, ang - np.pi, ang)
        ang = np.where(ang <= -np.pi / 2, ang + np.pi, ang)
        return np.hypot(gx, gy), ang

    def sig(x, gamma, kappa, sigma):
        return gamma / (1.0 + np.exp(kappa * (x - sigma)))

    perfect = sig(1.0, 0.9994, -15.0, 0.5) * sig(1.0, 0.9879, -22.0, 0.8)
    gf, af = edges(f)
    score = weight = 0.0
    for src in (a, b):
        g, ang = edges(src)
        hi = np.maximum(g, gf)
        ratio = np.where(hi > 0, np.minimum(g, gf) / np.where(hi > 0, hi, 1.0), 1.0)
        agree = 1.0 - 2.0 * np.abs(ang - af) / np.pi
        q = sig(ratio, 0.9994, -15.0, 0.5) * sig(agree, 0.9879, -22.0, 0.8) / perfect
        score += float((q * g).sum())
        weight += float(g.sum())
    return score / weight


def check_fusion(fused, noisy, truth, diag):
    problems = []
    p_fused = psnr(fused, truth)
    p_best = max(psnr(x, truth) for x in noisy)
    p_naive = psnr(np.clip(sum(noisy) / len(noisy), 0, 255), truth)
    if p_fused < max(p_best, p_naive) + 1.0:
        problems.append(f"fused PSNR {p_fused:.2f} dB is not 1 dB above best input "
                        f"{p_best:.2f} and naive average {p_naive:.2f}")
    if diag["global_objective_final"] > diag["global_objective_initial"]:
        problems.append("global stage raised its objective")
    return problems


def check_eval(reported, a, b, fused, truth):
    expected = {"q_mi": q_mi(a, b, fused), "q_abf": q_abf(a, b, fused),
                "psnr_db": psnr(fused, truth)}
    return [f"eval {k}={reported.get(k)} differs from recomputed {v:.12g}"
            for k, v in expected.items()
            if k not in reported or abs(reported[k] - v) > 1e-9]


# -- coding oracle --------------------------------------------------------

def coding_objective(W, X, Y, lam):
    return 0.5 * np.sum((X - Y) ** 2, axis=0) + lam * np.abs(W @ X).sum(axis=0)


def admm_oracle(W, Y, lam, mu):
    """Exact-step ADMM (the x-update solved by a precomputed inverse) run to
    a primal residual of ORACLE_ADMM_TOL, on every column of Y at once."""
    m = W.shape[1]
    A_inv = np.linalg.inv(np.eye(m) + mu * (W.T @ W))
    X = Y.copy()
    V = W @ X
    D = np.zeros_like(V)
    for _ in range(ORACLE_MAX_ITERS):
        X = A_inv @ (Y + mu * (W.T @ (V + D)))
        WX = W @ X
        shift = WX - D
        V = np.sign(shift) * np.maximum(np.abs(shift) - lam / mu, 0.0)
        D -= WX - V
        if np.sqrt(((WX - V) ** 2).sum(axis=0)).max() <= ORACLE_ADMM_TOL:
            break
    return X


def oracle_gap(samples):
    """Largest relative objective gap between coded columns and the oracle."""
    worst = 0.0
    for W, Y, X, lam, mu in samples:
        ref = coding_objective(W, admm_oracle(W, Y, lam, mu), Y, lam)
        got = coding_objective(W, X, Y, lam)
        gap = np.abs(got - ref) / np.maximum(ref, 1e-12)
        worst = max(worst, float(gap.max()))
    return worst
