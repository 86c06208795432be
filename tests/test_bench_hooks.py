"""The benchmark's span tracer (``bench/tracing.py``) still fits the program.

The tracer wraps program functions by module attribute and reads their
parameters and return values. A rename or a changed signature would break
only a traced benchmark run, so this test runs a tiny train, fuse and eval
under the tracer.
"""

import os

from cosfuse import cli, fuse, imageio, learn, metrics

BENCH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")

# Every layer the tracer wraps except linalg.spectral_norm_sq, which no
# command calls.
CALLED_LAYERS = {
    "cli.main", "learn.train", "learn.code", "learn.update_row", "linalg.sym_eig",
    "linalg.load_matrix_text", "patches.extract", "patches.overlap_add",
    "fuse.local", "fuse.global", "metrics.q_mi", "metrics.q_abf", "metrics.psnr",
    "imageio.read_pgm", "imageio.write_pgm", "imageio.add_noise",
}


def test_tracer_records_every_layer_and_uninstalls(monkeypatch, tmp_path, texture_128):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracing

    modules = (cli, fuse, imageio, learn, metrics)
    before = [dict(vars(module)) for module in modules]
    images = tmp_path / "images"
    images.mkdir()
    imageio.save_pgm(images / "texture.pgm", texture_128[:48, :48])
    truth = tmp_path / "truth.pgm"
    imageio.save_pgm(truth, texture_128[:24, :24])
    a, b = imageio.synth_multifocus(texture_128[:24, :24], 2.0, 12)
    paths = {k: str(tmp_path / f"{k}.pgm") for k in ("a", "b", "fused")}
    imageio.save_pgm(paths["a"], a)
    imageio.save_pgm(paths["b"], b)
    op = str(tmp_path / "op.txt")

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["train", "--images", str(images), "--out", op, "--h", "16",
                         "--m", "9", "--patches", "50", "--sweeps", "1"]) == 0
        assert cli.main(["fuse", "--inputs", paths["a"], paths["b"], "--op", op,
                         "--out", paths["fused"], "--sigma", "5", "--p", "1"]) == 0
        assert cli.main(["eval", "--a", paths["a"], "--b", paths["b"],
                         "--fused", paths["fused"], "--truth", str(truth)]) == 0
        layers = tracing.per_run_layers(tracer.records)[0]
    finally:
        tracer.uninstall()

    assert layers["learn.code.calls"] > 0
    assert layers["learn.update_row.calls"] > 0
    assert CALLED_LAYERS <= {r["name"] for r in tracer.records}
    for module, attrs in zip(modules, before):
        assert all(getattr(module, k) is v for k, v in attrs.items()), module.__name__
