"""End-to-end tests of the command-line frontend."""

import argparse
import dataclasses
import os
import pathlib

import numpy as np
import pytest

from conftest import inf_in_first_column_on_third_call, make_texture
from cosfuse import cli, imageio, learn
from cosfuse.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from cosfuse.fuse import FusionConfig
from cosfuse.learn import AnalysisOperator, TrainConfig, init_operator


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
    # NaN fails every comparison, so it must not slip past a range check.
    ["train", "--lam", "nan"],
    ["train", "--mu", "nan"],
    ["train", "--admm-tol", "nan"],
    ["train", "--cosupport-tol", "nan"],
    ["train", "--lam", "inf"],
    ["fuse", "--lambda-local", "nan"],
    # A deleted option is bad input too: argparse rejects the unknown flag.
    ["fuse", "--lambda-global", "nan"],
    ["fuse", "--admm-tol", "nan"],
    ["fuse", "--mu", "nan"],
    ["fuse", "--sigma", "nan"],
    ["fuse", "--sigma", "inf"],
    ["sweep", "--lambda-global", "nan"],
    ["sweep", "--sigma-b", "inf"],
    # Finite as given, but the sigma/15 scaling makes it infinite at sigma 20.
    ["sweep", "--lambda-local", "1.5e308", "--train-patches", "50",
     "--train-sweeps", "1", "--max-admm-iters", "30"],
], ids=" ".join)
def test_bad_option_values_exit_2_without_output(workdir, tmp_path, argv):
    cmd, *options = argv
    rc = main([*_command_argv(workdir, cmd, tmp_path / "out.txt"), *options])
    assert rc == EXIT_INPUT
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--lambda-global", "--global-rounds"],
                         ids=lambda flag: flag[2:])
@pytest.mark.parametrize("cmd", ["fuse", "sweep"])
@pytest.mark.parametrize("given_as", ["flag", "config"])
def test_deleted_global_options_exit_2_without_output(workdir, tmp_path, capsys,
                                                      flag, cmd, given_as):
    """The global pass is gone with its two options: each one, given as a
    flag or as a config key, is bad input, and nothing is written."""
    outdir = tmp_path / "out"
    outdir.mkdir()
    argv = _command_argv(workdir, cmd, outdir / "out.txt")
    key = flag[2:].replace("-", "_")
    if given_as == "flag":
        argv += [flag, "0"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 0\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert (flag if given_as == "flag" else repr(key)) in captured.err
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

def test_synth_split_zero_is_the_default_middle_split(workdir, tmp_path):
    outputs = {}
    for name, extra in (("unset", []), ("zero", ["--split", "0"]),
                        ("middle", ["--split", "32"])):
        paths = [str(tmp_path / f"{name}_{k}.pgm") for k in ("t", "a", "b")]
        rc = main(["synth", "--truth", str(workdir["truth"]), *extra,
                   "--out-truth", paths[0], "--out-a", paths[1],
                   "--out-b", paths[2]])
        assert rc == EXIT_OK
        outputs[name] = [pathlib.Path(p).read_bytes() for p in paths]
    assert outputs["unset"] == outputs["zero"] == outputs["middle"]


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
    assert "local_l1_max=" in diag and "global_objective_final=" in diag


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


# Option keys that differ from their config field, and the fields that a
# command sets itself (sweep: per cell, or left at the field default).
_KEY_OF_FIELD = {"fuse": {"patch_size": "n", "overlap": "p"},
                 "sweep": {"sweeps": "train_sweeps"}}
_NOT_OPTIONS = {"sweep": {"cosupport_tol", "patch_size", "overlap"}}
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
    assert isinstance(baseline, cls)
    value = getattr(baseline, field) + 1
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = {value!r}\n")
    main(argv + ["--config", str(cfg_file)])
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
