"""The benchmark workloads.

Each workload is sized so that one layer dominates it and another is nearly
absent, so that every planned optimisation has a workload that shows it and
one that should not move:

* ``train``: ``cosfuse train`` alone. The row update's eigensolves dominate,
  ADMM coding does the rest; no fuse, patches or metrics code runs.
* ``fuse-noisy``: ``cosfuse fuse`` at sigma 15 and overlap 4, then
  ``cosfuse eval``. ADMM coding over every grid cell dominates; no
  eigensolver runs in the timed part.

A workload's inputs come from the ``tests/conftest.py`` generators and its
seed. ``setup`` makes them and returns the CLI commands that finish the
set-up (the operator training of ``fuse-noisy``); ``commands`` lists the CLI
commands of one round; ``check`` verifies a round's outputs and ``quality``
reads its output quality, if it has one.
"""

from __future__ import annotations

import os

import conftest
from cosfuse import imageio

import checks


class Train:
    """``cosfuse train`` on fixed inputs, the same for every seed.

    Some of the row update's Jacobi eigensolves run to the solver's
    100-sweep cap, about 12 times the cost of the others. How many do
    depends on the data: 5 to 10 of the 33 across seeds 41-43. That moves
    the command time by about 30 % from seed to seed, so the inputs are
    fixed, and this data hits the cap in the same calls every run."""

    name = "train"
    timed = "train"
    side, h, n = 128, 33, 5
    patches, sweeps = 600, 1

    def __init__(self, work, seed):
        self.seed = 0
        self.images = os.path.join(work, "images")
        self.op = os.path.join(work, "op.txt")

    def setup(self):
        os.makedirs(self.images, exist_ok=True)
        imageio.save_pgm(os.path.join(self.images, "texture.pgm"),
                         conftest.make_texture(self.side, self.side, seed=self.seed))
        imageio.save_pgm(os.path.join(self.images, "cartoon.pgm"),
                         conftest.make_cartoon(self.side, self.side))
        return []

    def commands(self):
        return [("train", [
            "train", "--images", self.images, "--out", self.op,
            "--h", str(self.h), "--m", str(self.n * self.n),
            "--patches", str(self.patches), "--sweeps", str(self.sweeps),
            "--seed", str(self.seed)])]

    def outputs(self, label):
        return [self.op]

    def check(self, stdout):
        return {"train": checks.check_operator(self.op, self.h, self.n * self.n)}

    def quality(self, stdout):
        return None


class FuseNoisy:
    name = "fuse-noisy"
    timed = "fuse"
    side, sigma, overlap, sigma_b, n = 64, 15.0, 4, 2.0, 7
    train_patches, train_sweeps = 200, 1

    def __init__(self, work, seed):
        self.seed = seed
        self.path = {k: os.path.join(work, f"{k}.pgm") for k in ("a", "b", "truth", "fused")}
        self.train_dir = os.path.join(work, "train-images")
        self.op = os.path.join(work, "op.txt")

    def setup(self):
        """Make the source pair, and train the operator with ``cosfuse train``
        on a fixed texture instance.

        The operator does not depend on the seed: across training seeds the
        slowest-converging cell of the global rounds ranged from 66 to 243
        ADMM iterations, which moved the fuse time by up to 1.5x and would
        drown the effect of a code change. With one operator the total ADMM
        work varies by 1 % across seeds."""
        truth = conftest.make_texture(self.side, self.side, seed=self.seed)
        a, b = imageio.synth_multifocus(truth, self.sigma_b, self.side // 2)
        for key, img in (("a", a), ("b", b), ("truth", truth)):
            imageio.save_pgm(self.path[key], img)
        os.makedirs(self.train_dir, exist_ok=True)
        imageio.save_pgm(os.path.join(self.train_dir, "texture.pgm"),
                         conftest.make_texture(Train.side, Train.side, seed=0))
        return [["train", "--images", self.train_dir, "--out", self.op,
                 "--h", "64", "--m", str(self.n * self.n),
                 "--patches", str(self.train_patches), "--sweeps", str(self.train_sweeps),
                 "--seed", "0"]]

    def commands(self):
        p = self.path
        return [
            ("fuse", ["fuse", "--inputs", p["a"], p["b"], "--op", self.op,
                      "--out", p["fused"], "--sigma", str(self.sigma),
                      "--p", str(self.overlap), "--seed", str(self.seed)]),
            ("eval", ["eval", "--a", p["a"], "--b", p["b"], "--fused", p["fused"],
                      "--truth", p["truth"]]),
        ]

    def outputs(self, label):
        if label == "eval":
            return []
        stem = os.path.splitext(self.path["fused"])[0]
        return [self.path["fused"]] + [stem + s for s in
                                       ("_winners.txt", "_activity.txt", "_diag.txt")]

    def check(self, stdout):
        read = {k: checks.read_pgm(v) for k, v in self.path.items()}
        noisy = [imageio.add_gaussian_noise(read[k], self.sigma, (self.seed, i))
                 for i, k in enumerate(("a", "b"))]
        stem = os.path.splitext(self.path["fused"])[0]
        winners = checks.read_matrix(stem + "_winners.txt").astype(int)
        with open(stem + "_diag.txt", encoding="ascii") as fh:
            diag = checks.read_key_values(fh.read())
        W = checks.read_matrix(self.op)
        return {
            "fuse": (checks.check_winners(winners, noisy, W, self.n, self.overlap)
                     + checks.check_fusion(read["fused"], noisy, read["truth"], diag)),
            "eval": checks.check_eval(checks.read_key_values(stdout["eval"]),
                                      read["a"], read["b"], read["fused"], read["truth"]),
        }

    def quality(self, stdout):
        return checks.read_key_values(stdout["eval"])["psnr_db"]


WORKLOADS = {w.name: w for w in (Train, FuseNoisy)}
