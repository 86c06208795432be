"""End-to-end tests of the command-line frontend."""

import os

import numpy as np
import pytest

from conftest import make_texture
from cosfuse import imageio
from cosfuse.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from cosfuse.learn import AnalysisOperator


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Images and a small trained operator shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    truth = make_texture(64, 64, seed=5)
    imgdir = root / "train_images"
    imgdir.mkdir()
    imageio.save_pgm(imgdir / "a.pgm", truth)
    imageio.save_pgm(imgdir / "b.pgm", make_texture(64, 64, seed=6))
    truth_path = root / "truth.pgm"
    imageio.save_pgm(truth_path, truth)
    op_path = root / "op.txt"
    rc = main([
        "train", "--images", str(imgdir), "--out", str(op_path),
        "--h", "64", "--m", "49", "--patches", "300", "--sweeps", "1",
        "--max-admm-iters", "150", "--seed", "3",
    ])
    assert rc == EXIT_OK
    return {"root": root, "imgdir": imgdir, "truth": truth_path, "op": op_path}


def _fuse_args(workdir, out, extra=()):
    root = workdir["root"]
    a, b = str(root / "synth_a.pgm"), str(root / "synth_b.pgm")
    if not os.path.exists(a):
        rc = main([
            "synth", "--truth", str(workdir["truth"]), "--sigma-b", "2.0",
            "--out-truth", str(root / "synth_truth.pgm"),
            "--out-a", a, "--out-b", b,
        ])
        assert rc == EXIT_OK
    return ["fuse", "--inputs", a, b, "--op", str(workdir["op"]),
            "--out", str(out), *extra]


# ---------------------------------------------------------------------------
# train

def test_train_writes_operator_with_header(workdir, tmp_path):
    text = open(workdir["op"]).read().splitlines()
    assert text[0] == "# analysis-operator h=64 m=49"
    assert text[1] == "64 49"
    op = AnalysisOperator.load(workdir["op"])
    assert (op.h, op.m) == (64, 49)
    resaved = tmp_path / "resaved.txt"
    op.save(resaved)
    assert workdir["op"].read_bytes() == resaved.read_bytes()


def test_train_deterministic_output(workdir, tmp_path):
    out1, out2 = tmp_path / "op1.txt", tmp_path / "op2.txt"
    args = ["train", "--images", str(workdir["imgdir"]), "--h", "16", "--m", "9",
            "--patches", "100", "--sweeps", "1", "--seed", "11"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_train_missing_directory_exits_2(tmp_path, capsys):
    rc = main(["train", "--images", str(tmp_path / "nope"),
               "--out", str(tmp_path / "op.txt")])
    assert rc == EXIT_INPUT
    assert "nope" in capsys.readouterr().err


def test_train_numerical_failure_exits_3(workdir, tmp_path):
    rc = main(["train", "--images", str(workdir["imgdir"]),
               "--out", str(tmp_path / "op.txt"), "--h", "16", "--m", "9",
               "--patches", "50", "--sweeps", "1", "--mu", "1e308"])
    assert rc == EXIT_NUMERIC
    assert not (tmp_path / "op.txt").exists()


def test_train_eigensolver_failure_exits_3(workdir, tmp_path, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    rc = main(["train", "--images", str(workdir["imgdir"]),
               "--out", str(tmp_path / "op.txt"), "--h", "16", "--m", "9",
               "--patches", "50", "--sweeps", "1"])
    assert rc == EXIT_NUMERIC
    assert not (tmp_path / "op.txt").exists()


def test_train_rejects_non_square_m(workdir, tmp_path):
    rc = main(["train", "--images", str(workdir["imgdir"]),
               "--out", str(tmp_path / "op.txt"), "--h", "16", "--m", "10"])
    assert rc == EXIT_INPUT


# ---------------------------------------------------------------------------
# synth / fuse

def test_synth_writes_three_images(workdir, tmp_path):
    rc = main(["synth", "--truth", str(workdir["truth"]), "--sigma-b", "1.5",
               "--out-truth", str(tmp_path / "t.pgm"),
               "--out-a", str(tmp_path / "a.pgm"),
               "--out-b", str(tmp_path / "b.pgm")])
    assert rc == EXIT_OK
    t = imageio.load_pgm(tmp_path / "t.pgm")
    a = imageio.load_pgm(tmp_path / "a.pgm")
    b = imageio.load_pgm(tmp_path / "b.pgm")
    assert t.shape == a.shape == b.shape == (64, 64)
    np.testing.assert_array_equal(a[:, :32], t[:, :32])
    np.testing.assert_array_equal(b[:, 32:], t[:, 32:])


def test_fuse_writes_all_artifacts(workdir, tmp_path):
    out = tmp_path / "fused.pgm"
    rc = main(_fuse_args(workdir, out, extra=["--max-admm-iters", "150"]))
    assert rc == EXIT_OK
    fused = imageio.load_pgm(out)
    assert fused.shape == (64, 64)
    winners = (tmp_path / "fused_winners.txt").read_text().splitlines()
    rows, cols = map(int, winners[0].split())
    assert len(winners) == rows + 1
    assert all(v in ("0", "1") for v in winners[1].split())
    activity = (tmp_path / "fused_activity.txt").read_text().splitlines()
    assert activity[0] == winners[0]
    assert len(activity[1].split()) == cols * 2  # two candidates per cell
    diag = (tmp_path / "fused_diag.txt").read_text()
    assert "eps_violations=" in diag and "global_objective_final=" in diag


def test_fuse_size_mismatch_exits_2_without_outputs(workdir, tmp_path):
    small = tmp_path / "small.pgm"
    imageio.save_pgm(small, np.zeros((32, 32)))
    out = tmp_path / "fused.pgm"
    args = _fuse_args(workdir, out)
    args[args.index("--inputs") + 2] = str(small)
    rc = main(args)
    assert rc == EXIT_INPUT
    assert not out.exists()
    assert not (tmp_path / "fused_winners.txt").exists()


def test_fuse_deterministic_and_thread_invariant(workdir, tmp_path):
    outs = []
    for name, threads in (("f1.pgm", "1"), ("f2.pgm", "1"), ("f8.pgm", "8")):
        out = tmp_path / name
        rc = main(_fuse_args(workdir, out, extra=[
            "--sigma", "15", "--seed", "9", "--threads", threads,
            "--max-admm-iters", "150",
        ]))
        assert rc == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_fuse_single_input_passthrough(workdir, tmp_path):
    out = tmp_path / "single.pgm"
    rc = main(["fuse", "--inputs", str(workdir["truth"]), "--op",
               str(workdir["op"]), "--out", str(out),
               "--lambda-local", "0", "--lambda-global", "0"])
    assert rc == EXIT_OK
    np.testing.assert_allclose(imageio.load_pgm(out),
                               imageio.load_pgm(workdir["truth"]), atol=1.0)


# ---------------------------------------------------------------------------
# eval

def test_eval_perfect_fusion_reports_ones(workdir, capsys, tmp_path):
    t = str(workdir["truth"])
    rc = main(["eval", "--a", t, "--b", t, "--fused", t, "--truth", t])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    lines = dict(line.split("=") for line in out.strip().splitlines())
    assert float(lines["q_abf"]) == pytest.approx(1.0, abs=1e-9)
    assert float(lines["q_mi"]) == pytest.approx(1.0, abs=1e-12)
    assert float(lines["psnr_db"]) == 150.0
    assert float(lines["mse"]) == 0.0


def test_eval_missing_file_exits_2(workdir, capsys):
    rc = main(["eval", "--a", "missing.pgm", "--b", str(workdir["truth"]),
               "--fused", str(workdir["truth"])])
    assert rc == EXIT_INPUT
    assert "missing.pgm" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config files

def test_config_file_precedence(workdir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nsweeps = 1\nseed = 11\npatches = 100\n")
    out1 = tmp_path / "op1.txt"
    rc = main(["train", "--images", str(workdir["imgdir"]), "--out", str(out1),
               "--h", "16", "--m", "9", "--config", str(cfg)])
    assert rc == EXIT_OK
    capsys.readouterr()
    # flag overrides the file value
    out2 = tmp_path / "op2.txt"
    rc = main(["train", "--images", str(workdir["imgdir"]), "--out", str(out2),
               "--h", "16", "--m", "9", "--config", str(cfg), "--seed", "12"])
    assert rc == EXIT_OK
    assert out1.read_bytes() != out2.read_bytes()


def test_config_file_rejects_unknown_key(workdir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus_key = 3\n")
    rc = main(["train", "--images", str(workdir["imgdir"]),
               "--out", str(tmp_path / "op.txt"), "--config", str(cfg)])
    assert rc == EXIT_INPUT
    assert "bogus_key" in capsys.readouterr().err


def test_bad_flag_exits_2():
    assert main(["fuse", "--no-such-flag"]) == EXIT_INPUT


# ---------------------------------------------------------------------------
# sweep (structural check at desk scale)

def test_sweep_csv_has_25_rows(workdir, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--truth", str(workdir["truth"]), "--out", str(out),
               "--train-patches", "150", "--train-sweeps", "1",
               "--max-admm-iters", "60", "--global-rounds", "1",
               "--seed", "4"])
    assert rc == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,sigma,q_mi,q_abf,psnr"
    assert len(lines) == 26
    ns = sorted({int(line.split(",")[0]) for line in lines[1:]})
    sigmas = sorted({int(line.split(",")[1]) for line in lines[1:]})
    assert ns == [5, 6, 7, 8, 9]
    assert sigmas == [0, 5, 10, 15, 20]
