"""End-to-end tests of the command-line frontend."""

import argparse
import dataclasses
import os

import numpy as np
import pytest

from conftest import inf_in_first_column_on_third_call, make_texture
from cosfuse import cli, imageio, learn
from cosfuse.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from cosfuse.fuse import FusionConfig
from cosfuse.learn import AnalysisOperator, TrainConfig, init_operator
from cosfuse.linalg import load_matrix_text


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
    text = workdir["op"].read_text().splitlines()
    assert text[0] == "# analysis-operator h=64 m=49"
    assert text[1] == "64 49"
    op = AnalysisOperator.load(workdir["op"])
    assert (op.h, op.m) == (64, 49)
    assert workdir["op"].read_text() == op.to_text()


def test_train_deterministic_output(workdir, tmp_path):
    out1, out2 = tmp_path / "op1.txt", tmp_path / "op2.txt"
    args = ["train", "--images", str(workdir["imgdir"]), "--h", "16", "--m", "9",
            "--patches", "100", "--sweeps", "1", "--seed", "11"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_train_prints_solver_counters(workdir, tmp_path, capsys):
    rc = main(["train", "--images", str(workdir["imgdir"]),
               "--out", str(tmp_path / "op.txt"), "--h", "16", "--m", "9",
               "--patches", "100", "--sweeps", "2"])
    assert rc == EXIT_OK
    report = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    for key, low, high in (("admm_iters_max_per_sweep", 1, 1000),
                           ("admm_nonconverged_per_sweep", 0, 100),
                           ("rows_reinitialized_per_sweep", 0, 16)):
        values = [int(v) for v in report[key].split(",")]
        assert len(values) == 2 and all(low <= v <= high for v in values)
    assert "rows_updated_per_sweep" not in report


def test_train_missing_directory_exits_2(tmp_path, capsys):
    rc = main(["train", "--images", str(tmp_path / "nope"),
               "--out", str(tmp_path / "op.txt")])
    assert rc == EXIT_INPUT
    assert "nope" in capsys.readouterr().err


def test_train_numerical_failure_exits_3(workdir, tmp_path, monkeypatch):
    monkeypatch.setattr(learn, "clip_box",
                        inf_in_first_column_on_third_call(learn.clip_box))
    rc = main(["train", "--images", str(workdir["imgdir"]),
               "--out", str(tmp_path / "op.txt"), "--h", "16", "--m", "9",
               "--patches", "50", "--sweeps", "1"])
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


def _command_argv(workdir, cmd, out):
    """``cmd`` with its required inputs from ``workdir`` and ``--out out``."""
    source = {"train": ["--images", str(workdir["imgdir"])],
              "fuse": ["--inputs", str(workdir["imgdir"] / "a.pgm"),
                       str(workdir["imgdir"] / "b.pgm"), "--op", str(workdir["op"])],
              "sweep": ["--truth", str(workdir["truth"])]}[cmd]
    return [cmd, *source, "--out", str(out)]


@pytest.mark.parametrize("argv", [
    ["sweep", "--mu", "0"],
    ["sweep", "--lam", "-1"],
    ["sweep", "--train-patches", "10"],
    ["sweep", "--train-patches", "-1"],
    ["train", "--h", "4", "--m", "9", "--patches", "50"],
    ["train", "--h", "16", "--m", "9", "--patches", "10"],
    ["train", "--m", "-4"],
    ["train", "--patches", "-5"],
    ["train", "--threads", "0"],
    # NaN fails every comparison, so it must not slip past a range check.
    ["train", "--lam", "nan"],
    ["train", "--mu", "nan"],
    ["train", "--admm-tol", "nan"],
    ["train", "--lam", "inf"],
    ["fuse", "--lambda-local", "nan"],
    # A deleted option is bad input too: argparse rejects the unknown flag.
    ["train", "--cosupport-tol", "nan"],
    ["fuse", "--lambda-global", "nan"],
    ["fuse", "--admm-tol", "nan"],
    ["fuse", "--mu", "nan"],
    ["fuse", "--sigma", "nan"],
    ["fuse", "--sigma", "inf"],
    ["fuse", "--threads", "0"],
    # A bad seed is bad input at sigma 0 too, where no noise is drawn.
    ["fuse", "--seed", "-1"],
    # The overlap must satisfy 0 <= p < n, n = 7 for the 64x49 operator.
    ["fuse", "--p", "7"],
    ["fuse", "--p", "-1"],
    ["sweep", "--lambda-global", "nan"],
    ["sweep", "--sigma-b", "inf"],
    ["sweep", "--threads", "0"],
    # Finite as given, but the sigma/15 scaling makes it infinite at sigma 20.
    ["sweep", "--lambda-local", "1.5e308", "--train-patches", "50",
     "--train-sweeps", "1", "--max-admm-iters", "30"],
], ids=" ".join)
def test_bad_option_values_exit_2_without_output(workdir, tmp_path, argv):
    cmd, *options = argv
    rc = main([*_command_argv(workdir, cmd, tmp_path / "out.txt"), *options])
    assert rc == EXIT_INPUT
    assert list(tmp_path.iterdir()) == []


# Each deleted option with the commands that reject it: the global pass's
# two options and fuse's patch side ``n``, now the operator's (sweep never
# had ``n`` and rejects it as any unknown option); the ADMM penalty and the
# cosupport tolerance, now solver constants; the pair's split column, now
# always the middle one; and the config file, since every option is a flag.
_DELETED_OPTIONS = [
    *((cmd, key) for key in ("lambda_global", "global_rounds", "n")
      for cmd in ("fuse", "sweep")),
    *((cmd, key) for key in ("mu", "cosupport_tol")
      for cmd in ("train", "fuse", "sweep")),
    *((cmd, "split") for cmd in ("synth", "sweep")),
    *((cmd, "config") for cmd in ("train", "fuse", "synth", "sweep")),
]


@pytest.mark.parametrize("cmd,key", _DELETED_OPTIONS,
                         ids=[f"flag-{cmd}-{key.replace('_', '-')}"
                              for cmd, key in _DELETED_OPTIONS])
def test_deleted_option_exits_2_without_output(workdir, tmp_path, capsys,
                                               cmd, key):
    """A deleted option's flag is bad input: stderr names it, and nothing
    is written."""
    outdir = tmp_path / "out"
    outdir.mkdir()
    if cmd == "synth":
        argv = ["synth", "--truth", str(workdir["truth"]),
                "--out-truth", str(outdir / "t.pgm"),
                "--out-a", str(outdir / "a.pgm"), "--out-b", str(outdir / "b.pgm")]
    else:
        argv = _command_argv(workdir, cmd, outdir / "out.txt")
    flag = "--" + key.replace("_", "-")
    assert main(argv + [flag, "1"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("cmd", ["train", "fuse", "synth"])
def test_output_in_missing_directory_exits_2_without_output(
        workdir, tmp_path, capsys, cmd):
    missing = str(tmp_path / "nodir" / "x.txt")
    out = [str(tmp_path / f"out{k}.txt") for k in range(3)]
    argv = {
        "train": ["train", "--images", str(workdir["imgdir"]), "--out", missing,
                  "--h", "16", "--m", "9", "--patches", "50", "--sweeps", "1"],
        "fuse": _fuse_args(workdir, out[0], extra=[
            "--max-admm-iters", "30",
            "--diagnostics", missing]),
        "synth": ["synth", "--truth", str(workdir["truth"]),
                  "--out-truth", out[1], "--out-a", out[2], "--out-b", missing],
    }[cmd]
    assert main(argv) == EXIT_INPUT
    assert missing in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cmd", ["fuse", "synth"])
def test_outputs_naming_one_file_exit_2_without_output(
        workdir, tmp_path, capsys, cmd):
    """Two outputs that name one file would overwrite each other; the
    command exits 2 before it writes anything."""
    argv = {
        "fuse": _fuse_args(workdir, tmp_path / "f.pgm", extra=[
            "--max-admm-iters", "30",
            "--diagnostics", str(tmp_path / "f_winners.txt")]),
        "synth": ["synth", "--truth", str(workdir["truth"]),
                  "--out-truth", str(tmp_path / "x.pgm"),
                  "--out-a", str(tmp_path / "x.pgm"),
                  "--out-b", str(tmp_path / "b.pgm")],
    }[cmd]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "same file" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cmd", ["fuse", "synth", "synth-trailing-sep"])
def test_output_naming_a_directory_exits_2_without_output(
        workdir, tmp_path, capsys, cmd):
    """An output path that is an existing directory, or that ends in a
    separator, is rejected before the first temp file, so the outputs
    listed before it are not written and the message names the output, not
    a temp file."""
    somedir = tmp_path / "somedir"
    somedir.mkdir()
    target = {"fuse": str(somedir), "synth": f"{somedir}{os.sep}",
              "synth-trailing-sep": str(tmp_path / "nodir") + os.sep}[cmd]
    if cmd == "fuse":
        argv = _fuse_args(workdir, tmp_path / "f.pgm", extra=[
            "--max-admm-iters", "30",
            "--diagnostics", target])
    else:
        argv = ["synth", "--truth", str(workdir["truth"]),
                "--out-truth", str(tmp_path / "t.pgm"),
                "--out-a", str(tmp_path / "a.pgm"), "--out-b", target]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert target in captured.err
    assert ".cosfuse-tmp-" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [somedir]
    assert list(somedir.iterdir()) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_outputs_take_the_umask_mode(workdir, tmp_path, umask, mode):
    """Outputs get 0o666 less the umask, as a file made by ``open`` does,
    not the 0o600 of the temp file they are written to."""
    outputs = [tmp_path / name for name in ("op.txt", "f.pgm", "w.txt", "d.txt")]
    old = os.umask(umask)
    try:
        assert main(["train", "--images", str(workdir["imgdir"]),
                     "--out", str(outputs[0]), "--h", "16", "--m", "9",
                     "--patches", "50", "--sweeps", "1"]) == EXIT_OK
        assert main(_fuse_args(workdir, outputs[1], extra=[
            "--max-admm-iters", "30",
            "--winner-map", str(outputs[2]),
            "--diagnostics", str(outputs[3])])) == EXIT_OK
    finally:
        os.umask(old)
    for path in outputs:
        assert path.stat().st_mode & 0o777 == mode, path.name


# ---------------------------------------------------------------------------
# synth / fuse

def test_synth_splits_at_the_middle_column(workdir, tmp_path):
    """synth's pair is ``synth_multifocus`` split at width // 2, the floor
    on an odd width."""
    odd = tmp_path / "odd.pgm"
    imageio.save_pgm(odd, make_texture(33, 20, seed=2))
    for truth_path in (workdir["truth"], odd):
        truth = imageio.load_pgm(truth_path)
        paths = [tmp_path / f"out_{k}.pgm" for k in ("t", "a", "b")]
        rc = main(["synth", "--truth", str(truth_path),
                   "--out-truth", str(paths[0]), "--out-a", str(paths[1]),
                   "--out-b", str(paths[2])])
        assert rc == EXIT_OK
        pair = imageio.synth_multifocus(truth, 2.0, truth.shape[1] // 2)
        for path, image in zip(paths[1:], pair):
            assert path.read_bytes() == imageio.write_pgm(image), truth_path.name


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


@pytest.mark.parametrize("cmd", ["synth", "sweep"])
def test_one_column_truth_exits_2_naming_the_file(tmp_path, capsys, cmd):
    """A truth 1 pixel wide has no middle column to split a pair at: stderr
    names the file and its width, and nothing is written."""
    truth = tmp_path / "column.pgm"
    imageio.save_pgm(truth, np.arange(8.0).reshape(8, 1))
    outdir = tmp_path / "out"
    outdir.mkdir()
    outs = {"synth": ["--out-truth", str(outdir / "t.pgm"),
                      "--out-a", str(outdir / "a.pgm"),
                      "--out-b", str(outdir / "b.pgm")],
            "sweep": ["--out", str(outdir / "sweep.csv")]}[cmd]
    assert main([cmd, "--truth", str(truth), *outs]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert str(truth) in err and "width 1" in err
    assert "split" not in err
    assert list(outdir.iterdir()) == []


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
    assert "local_l1_max=" in diag and "global_objective_final=" in diag


def test_winners_file_loads_back_to_the_winner_map(workdir, tmp_path,
                                                   monkeypatch):
    """``_winners.txt`` is in the matrix text format: ``load_matrix_text``
    reads a fuse's file back to that fuse's winner map."""
    fuse_images = cli.fuse_images
    results = []

    def recorded(images, operator, cfg):
        results.append(fuse_images(images, operator, cfg))
        return results[-1]

    monkeypatch.setattr(cli, "fuse_images", recorded)
    out = tmp_path / "fused.pgm"
    assert main(_fuse_args(workdir, out, extra=["--max-admm-iters", "150"])) == EXIT_OK
    loaded = load_matrix_text(tmp_path / "fused_winners.txt")
    np.testing.assert_array_equal(loaded, results[0].winner_map)
    np.testing.assert_array_equal(np.unique(loaded), [0, 1])


def test_fuse_size_mismatch_exits_2_without_outputs(workdir, tmp_path, capsys):
    small = tmp_path / "small.pgm"
    imageio.save_pgm(small, np.zeros((32, 32)))
    out = tmp_path / "fused.pgm"
    args = _fuse_args(workdir, out)
    args[args.index("--inputs") + 2] = str(small)
    rc = main(args)
    assert rc == EXIT_INPUT
    assert "small.pgm" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "fused_winners.txt").exists()


def test_fuse_noise_overflow_exits_2_naming_sigma(workdir, tmp_path, capsys):
    """Noise at sigma 1e308 overflows pixels to inf: stderr names sigma, not
    the finite input file, and nothing is written."""
    outdir = tmp_path / "out"
    outdir.mkdir()
    argv = _fuse_args(workdir, outdir / "fused.pgm", extra=["--sigma", "1e308"])
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "sigma" in err and "input 0" not in err
    assert list(outdir.iterdir()) == []


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


def test_fuse_lapack_failure_exits_3(workdir, tmp_path, monkeypatch):
    # LinAlgError subclasses ValueError; it must not be reported as bad input.
    def no_inverse(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    out = tmp_path / "fused.pgm"
    assert main(_fuse_args(workdir, out)) == EXIT_NUMERIC
    assert not out.exists()
    assert not (tmp_path / "fused_diag.txt").exists()


def test_fuse_coding_divergence_exits_3(workdir, tmp_path, monkeypatch):
    monkeypatch.setattr(learn, "clip_box",
                        inf_in_first_column_on_third_call(learn.clip_box))
    out = tmp_path / "fused.pgm"
    assert main(_fuse_args(workdir, out)) == EXIT_NUMERIC
    assert list(tmp_path.iterdir()) == []


def test_fuse_single_input_passthrough(workdir, tmp_path):
    out = tmp_path / "single.pgm"
    rc = main(["fuse", "--inputs", str(workdir["truth"]), "--op",
               str(workdir["op"]), "--out", str(out),
               "--lambda-local", "0"])
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


def test_eval_stdout_golden(tmp_path, capsys):
    # The exact report: these keys in this order, each value at 12
    # significant digits, psnr_db and mse only with --truth.
    r, c = np.mgrid[0:12, 0:12]
    a = (r * r + 7 * c * c) % 256
    b = (3 * r * c + 5 * c) % 256
    paths = {}
    for name, image in (("a", a), ("b", b), ("fused", (a + b) // 2)):
        paths[name] = str(tmp_path / f"{name}.pgm")
        imageio.save_pgm(paths[name], image)
    args = ["eval", "--a", paths["a"], "--b", paths["b"], "--fused", paths["fused"]]
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == "q_mi=0.905129113985\nq_abf=0.377980607192\n"
    assert main(args + ["--truth", paths["a"]]) == EXIT_OK
    assert capsys.readouterr().out == (
        "q_mi=0.905129113985\nq_abf=0.377980607192\n"
        "psnr_db=15.5533847266\nmse=1810.26388889\n")


def test_eval_missing_file_exits_2(workdir, capsys):
    rc = main(["eval", "--a", "missing.pgm", "--b", str(workdir["truth"]),
               "--fused", str(workdir["truth"])])
    assert rc == EXIT_INPUT
    assert "missing.pgm" in capsys.readouterr().err


def test_eval_malformed_input_exits_2_naming_it(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n2 2\n0256\n" + bytes(4))
    t = str(workdir["truth"])
    assert main(["eval", "--a", str(bad), "--b", t, "--fused", t]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.count(str(bad)) == 1
    assert captured.out == ""


def test_eval_truth_of_another_size_exits_2_naming_it(workdir, tmp_path, capsys):
    small = tmp_path / "small.pgm"
    imageio.save_pgm(small, np.zeros((16, 16)))
    t = str(workdir["truth"])
    args = ["eval", "--a", t, "--b", t, "--fused", t, "--truth", str(small)]
    assert main(args) == EXIT_INPUT
    captured = capsys.readouterr()
    assert str(small) in captured.err
    assert captured.out == ""


def test_eval_image_too_small_for_edges_exits_2(tmp_path):
    tiny = tmp_path / "tiny.pgm"
    imageio.save_pgm(tiny, np.array([[0.0, 255.0], [255.0, 0.0]]))
    t = str(tiny)
    assert main(["eval", "--a", t, "--b", t, "--fused", t]) == EXIT_INPUT


@pytest.mark.parametrize("text", ["2 x\n", "2 2\n1 0\n0 2\n"],
                         ids=["bad-dimension-line", "non-unit-row"])
def test_operator_error_names_the_file_once(workdir, tmp_path, capsys, text):
    op = tmp_path / "op.txt"
    op.write_text(text)
    argv = _fuse_args(workdir, tmp_path / "fused.pgm")
    argv[argv.index("--op") + 1] = str(op)
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err.count(str(op)) == 1


def test_fuse_rejects_a_non_square_operator(workdir, tmp_path, capsys):
    """The patch side is sqrt(m): an operator whose m is not a square is bad
    input, and nothing is written."""
    op = tmp_path / "op.txt"
    op.write_text(init_operator(16, 10, 0).to_text())
    outdir = tmp_path / "out"
    outdir.mkdir()
    argv = _fuse_args(workdir, outdir / "fused.pgm")
    argv[argv.index("--op") + 1] = str(op)
    assert main(argv) == EXIT_INPUT
    assert "m=10" in capsys.readouterr().err
    assert list(outdir.iterdir()) == []


# ---------------------------------------------------------------------------
# options

def test_bad_flag_exits_2():
    assert main(["fuse", "--no-such-flag"]) == EXIT_INPUT


# Option keys that differ from their config field, and the fields that a
# command sets itself (sweep: per cell, or left at the field default).
_KEY_OF_FIELD = {"fuse": {"overlap": "p"},
                 "sweep": {"sweeps": "train_sweeps"}}
_NOT_OPTIONS = {"sweep": {"overlap"}}
_CONFIGS_OF = {"train": (TrainConfig,), "fuse": (FusionConfig,),
               "sweep": (TrainConfig, FusionConfig)}


def _config_options():
    for cmd, classes in _CONFIGS_OF.items():
        for cls in classes:
            for f in dataclasses.fields(cls):
                if f.name in _NOT_OPTIONS.get(cmd, ()):
                    continue
                key = _KEY_OF_FIELD.get(cmd, {}).get(f.name, f.name)
                yield pytest.param(cmd, cls, f.name, key,
                                   id=f"{cmd}-{cls.__name__}-{key}")


class _Captured(Exception):
    pass


@pytest.mark.parametrize("cmd,cls,field,key", _config_options())
def test_config_option_reaches_its_field(workdir, tmp_path, monkeypatch,
                                         cmd, cls, field, key):
    seen = []

    def fake_train(Y, cfg, h):
        seen.append(cfg)
        if cls is TrainConfig:
            raise _Captured
        return init_operator(h, Y.shape[0], 0), None

    def fake_fuse(images, operator, cfg):
        seen.append(cfg)
        raise _Captured

    monkeypatch.setattr(cli, "train", fake_train)
    monkeypatch.setattr(cli, "fuse_images", fake_fuse)
    # At sigma 15 the sweep applies the configured lambda weights unscaled.
    monkeypatch.setattr(cli, "SWEEP_NOISE_LEVELS", (15,))
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--images", str(workdir["imgdir"]), "--out", str(out),
                  "--h", "16", "--m", "9", "--patches", "50"],
        "fuse": _fuse_args(workdir, out),
        "sweep": ["sweep", "--truth", str(workdir["truth"]), "--out", str(out),
                  "--train-patches", "50"],
    }[cmd]

    main(argv)
    baseline = seen[-1]
    # With no option flag, each field holds its dataclass default, except
    # the sweeps of sweep's training (its train_sweeps default is 5); the
    # sweep's per-cell overlap is 1, FusionConfig's default.
    assert baseline == (TrainConfig(sweeps=5) if (cmd, cls) == ("sweep", TrainConfig)
                        else cls())
    value = getattr(baseline, field) + 1
    main(argv + ["--" + key.replace("_", "-"), repr(value)])
    assert seen[-1] == dataclasses.replace(baseline, **{field: value})
    assert not out.exists()


def test_second_main_call_builds_no_parser(workdir, tmp_path, monkeypatch):
    """The parser is built once per process. A later call reuses it and
    still dispatches through the module attributes that tests patch."""
    t = str(workdir["truth"])
    assert main(["eval", "--a", t, "--b", t, "--fused", t]) == EXIT_OK
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    seen = []

    def fake_train(Y, cfg, h):
        seen.append(cfg)
        raise _Captured

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(cli, "train", fake_train)
    out = tmp_path / "op.txt"
    rc = main(["train", "--images", str(workdir["imgdir"]), "--out", str(out),
               "--h", "16", "--m", "9", "--patches", "50"])
    assert rc == cli.EXIT_INTERNAL
    assert built == []
    assert len(seen) == 1 and isinstance(seen[0], TrainConfig)
    assert not out.exists()


# ---------------------------------------------------------------------------
# sweep (structural check at desk scale)

def test_sweep_csv_has_25_rows(workdir, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--truth", str(workdir["truth"]), "--out", str(out),
               "--train-patches", "150", "--train-sweeps", "1",
               "--max-admm-iters", "60",
               "--seed", "4"])
    assert rc == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,sigma,q_mi,q_abf,psnr"
    assert len(lines) == 26
    ns = sorted({int(line.split(",")[0]) for line in lines[1:]})
    sigmas = sorted({int(line.split(",")[1]) for line in lines[1:]})
    assert ns == [5, 6, 7, 8, 9]
    assert sigmas == [0, 5, 10, 15, 20]
