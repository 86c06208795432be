"""cosfuse benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {train,fuse-noisy} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
``src/`` and its inputs are made with the ``tests/conftest.py`` generators.
The workload's CLI commands are driven in-process through
``cosfuse.cli.main``, in whole rounds, until the next round would end past
``--seconds``. After the timed part every round's outputs must be
byte-identical to the first round's and pass the checks in ``checks.py``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` rounds alternate untraced and traced, span records go to
``.bench_work/traces/`` as JSON lines, and the last line reports the
per-layer metrics computed from them. See README.md.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, fixed before numpy loads: the kernels are small (49x49
# and 64x49 by a few thousand columns), and on a shared machine extra BLAS
# threads add run-to-run spread rather than speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Set-up runs at least this many times and for at least this long; setup_s
# is the median.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "fuse-noisy"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def locate_program():
    """Put the checkout's ``src`` and ``tests`` first on the import path."""
    src, tests = os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")
    if not (os.path.isfile(os.path.join(src, "cosfuse", "cli.py"))
            and os.path.isfile(os.path.join(tests, "conftest.py"))):
        sys.exit(f"bench: no cosfuse checkout at {ROOT} (need src/cosfuse and "
                 "tests/conftest.py)")
    sys.path[:0] = [src, tests]


def run_command(cli, argv):
    """Run one cosfuse command in-process; returns (exit code, seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    if code != 0:
        print(f"bench: `cosfuse {' '.join(argv)}` exited {code}: "
              f"{err.getvalue().strip()}", file=sys.stderr)
    return code, seconds, out.getvalue()


def digest(paths, text):
    h = hashlib.sha256(text.encode())
    for path in paths:
        try:
            with open(path, "rb") as fh:
                h.update(fh.read())
        except FileNotFoundError:
            h.update(b"<missing>")
    return h.hexdigest()


def run_round(cli, wl):
    rnd = {"code": {}, "seconds": {}, "stdout": {}, "digest": {}}
    for label, argv in wl.commands():
        code, seconds, stdout = run_command(cli, argv)
        rnd["code"][label], rnd["seconds"][label] = code, seconds
        rnd["stdout"][label] = stdout
        rnd["digest"][label] = digest(wl.outputs(label), stdout)
    return rnd


def fastest(rounds, label):
    """Shortest time of one command over the given rounds.

    On a shared host the machine's speed drifts by 15-25 % over tens of
    seconds; the median over a run follows that drift, while the fastest of
    many short rounds stays within a few percent (see README.md).
    """
    return min(r["seconds"][label] for r in rounds)


def bench(args, work):
    from cosfuse import cli

    import checks
    import tracing
    from workloads import WORKLOADS

    seed = args.seed & 0x7FFFFFFF
    wl = WORKLOADS[args.workload](work, seed)

    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        start = time.perf_counter()
        for argv in wl.setup():
            code, _, _ = run_command(cli, argv)
            if code != 0:
                sys.exit(f"bench: set-up command `cosfuse {' '.join(argv)}` failed")
        setup_times.append(time.perf_counter() - start)

    tracer = tracing.Tracer() if args.trace else None
    rounds = []
    started = time.perf_counter()
    while True:
        run_id = len(rounds)
        traced = tracer is not None and run_id % 2 == 1
        if traced:
            tracer.run_id = run_id
            tracer.install()
        try:
            rnd = run_round(cli, wl)
        finally:
            if traced:
                tracer.uninstall()
        rnd.update(run=run_id, traced=traced)
        rounds.append(rnd)
        elapsed = time.perf_counter() - started
        enough = len(rounds) >= (2 if tracer else 1)
        if enough and elapsed + sum(rnd["seconds"].values()) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        problems = wl.check(rounds[-1]["stdout"])
    except Exception:  # a broken output must be reported, not crash the run
        traceback.print_exc()
        problems = {label: ["output check raised"] for label in rounds[-1]["code"]}
    attempted = failed = 0
    for rnd in rounds:
        for label, code in rnd["code"].items():
            attempted += 1
            if (code != 0 or rnd["digest"][label] != rounds[0]["digest"][label]
                    or problems.get(label)):
                failed += 1
    run_problems = [f"{label}: {p}" for label, ps in problems.items() for p in ps]
    run_problems += [f"{label}: outputs differ between rounds"
                     for label in rounds[0]["digest"]
                     if len({r["digest"][label] for r in rounds}) > 1]

    if tracer is None:
        metrics = {
            "command_s": (fastest(rounds, wl.timed), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        trace_dir = os.path.join(ROOT, ".bench_work", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{wl.name}-seed{seed}.jsonl")
        tracer.write_jsonl(trace_path)
        traced = [r for r in rounds if r["traced"]]
        values, trace_problems = tracing.layer_metrics(trace_path, traced)
        run_problems += trace_problems
        gap = checks.oracle_gap(tracer.oracle_samples)
        if gap > checks.ORACLE_REL_TOL:
            run_problems.append(f"coded columns are {gap:.3e} from the exact-step "
                                f"oracle objective (tolerance {checks.ORACLE_REL_TOL:g})")
        values["learn.code.oracle_gap"] = gap
        values["output.psnr_db"] = wl.quality(rounds[-1]["stdout"]) or 0.0
        untraced = [r for r in rounds if not r["traced"]]
        values["trace.overhead.s"] = (fastest(traced, wl.timed)
                                      - fastest(untraced, wl.timed))
        metrics = {name: (values[name], unit) for name, unit in tracing.PER_LAYER}
        print(f"trace: {trace_path}")

    print(f"workload={wl.name} seed={seed} rounds={len(rounds)} "
          f"traced={sum(r['traced'] for r in rounds)}")
    for label in rounds[0]["seconds"]:
        times = [r["seconds"][label] for r in rounds]
        print(f"  cosfuse {label}: fastest {min(times):.4f} s, median "
              f"{statistics.median(times):.4f} s, rounds "
              + " ".join(f"{t:.4f}" for t in times))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in run_problems:
        print(f"CHECK FAILED {problem}")
    return {
        "correct": not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    locate_program()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
