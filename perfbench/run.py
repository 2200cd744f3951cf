"""Benchmark of growabc's grow -> extrapolate -> accept pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out RESULTS.json] [--tiny]

Runs closed-loop passes of one workload for about S seconds, checks
the program's outputs and prints, as the last line of standard output,
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` each pass is run untraced and traced, and the
metrics are the per-layer ones from the traced passes. ``--out`` also
writes a results file with the environment and every pass; ``--tiny``
shrinks the workload for smoke tests. See README.md.
"""

import os

# One BLAS thread per process: the pool's 2 processes x 1 thread fill the
# 2 cores. Set before NumPy loads; pool workers and probes inherit it.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, fields  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="write a results JSON file")
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test size")
    return p.parse_args(argv)


def git_commit(root):
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed, workers):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": "%s %s" % (blas.get("name"), blas.get("version")),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "pool_workers": workers,
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


def setup_seconds(cfg):
    """Seconds of import + validation + seed graph in a fresh
    interpreter."""
    config = json.dumps({f.name: getattr(cfg, f.name) for f in fields(cfg)})
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), config],
        check=True, capture_output=True, text=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def peak_rss_mb(records):
    """Peak RSS of the main process plus the largest sum, over the API
    calls of the passes, of the peak RSS of that call's pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pools = max((r.pool_rss_kb for r in records), default=0)
    return (own + pools) / 1024.0


def schedule(seed, index, trace, workloads):
    """(master seed, traced) of pass ``index``. Traced runs make each
    master seed twice, untraced and traced, in alternating order."""
    if not trace:
        return workloads.pass_master_seed(seed, index), False
    pair = index // 2
    return workloads.pass_master_seed(seed, pair), index % 2 != pair % 2


def prepare(wl, cfg, tiny, seed, work, workloads):
    """Untimed set-up of a run's inputs: the observed pool and, for
    accept_reuse, its table. Returns (observed, loaded table or None,
    check errors)."""
    if wl.kind == "build":
        observed = workloads.observed_pool(cfg, seed, workloads.OBSERVED_POOL,
                                           from_prior=False)
        return observed, None, []
    import numpy as np

    source, errors = workloads.build_source_table(tiny, seed, str(work))
    table_path = str(work / "table.csv")
    arrays = workloads.write_accept_table(
        cfg, table_path, source, np.random.default_rng([seed, 0]))
    observed = workloads.observed_pool(
        cfg, seed, workloads.ACCEPT_OBSERVED_POOL, from_prior=True)
    return observed, workloads.LoadedTable(cfg, table_path, arrays), errors


def run_passes(wl, cfg, seed, seconds, trace, work, observed, loaded,
               setup_reps, workloads, tracing):
    """Closed loop of passes until the time is spent; returns the pass
    records, the untimed warm-up records, the spans of the traced passes
    and ``setup_reps`` set-up times. The set-up probes run between
    passes, so that they sample the host over the whole run."""
    spans = []
    warm_ups = []
    setup_runs = []
    if wl.kind == "build":
        # untimed warm-up at the smoke-test size, so lazy imports and
        # first-call set-up in this process happen before timing; it is
        # made again at the end for the byte-identity check
        warm_ups.append(_warm_up(wl, seed, work, observed, workloads))

    group = 2 if trace else 1   # passes started together
    min_passes = 2 * group if trace else workloads.min_passes(wl)
    records = []
    start = time.perf_counter()
    while True:
        done = len(records)
        if done >= min_passes and done % group == 0:
            elapsed = time.perf_counter() - start
            per_group = elapsed / (done // group)
            if elapsed + per_group > seconds:
                break
        master, traced = schedule(seed, done, trace, workloads)
        rec = workloads.PassRecord(done, master, traced)
        pass_dir = workloads.fresh_dir(str(work / "pass"))
        tracer = tracing.Tracer().install() if traced else None
        try:
            if wl.kind == "build":
                workloads.build_pass(cfg, pass_dir, observed, rec)
            else:
                workloads.accept_pass(loaded, pass_dir, observed, rec)
        finally:
            if tracer is not None:
                spans.extend(tracer.close())
        records.append(rec)
        if len(setup_runs) < setup_reps:
            setup_runs.append(setup_seconds(cfg))
    while len(setup_runs) < setup_reps:
        setup_runs.append(setup_seconds(cfg))
    if warm_ups:
        warm_ups.append(_warm_up(wl, seed, work, observed, workloads))
    return records, warm_ups, spans, setup_runs


def _warm_up(wl, seed, work, observed, workloads):
    index = 10 ** 6  # outside the timed passes' index range
    rec = workloads.PassRecord(index, workloads.pass_master_seed(seed, index),
                               False)
    workloads.build_pass(workloads.run_config(wl, tiny=True),
                         workloads.fresh_dir(str(work / "warm-up")),
                         observed, rec)
    return rec


def end_to_end(wl, records, loaded, setup_s, tail_percentile):
    import numpy as np

    recs = [r for r in records if not r.traced]
    samples = [ms for r in recs for ms in r.accept_ms] or [0.0]
    if wl.kind == "build":
        rate = statistics.median(r.entries_built / r.build_s for r in recs)
    else:  # every acceptance pass reads or scores each row once
        rate = statistics.median(len(loaded.arrays.ids) * len(r.accept_ms)
                                 / r.study_s for r in recs)
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    return {
        "study_s": (statistics.median(r.study_s for r in recs), "s"),
        "entries_per_s": (rate, "1/s"),
        "accept_p50_ms": (statistics.median(samples), "ms"),
        "accept_tail_ms": (float(np.percentile(samples, tail_percentile)),
                           "ms"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(recs), "MB"),
    }


def per_layer(records, spans, tracing, workers):
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    metrics = tracing.layer_metrics(spans, len(traced), workers)
    metrics["trace.overhead_frac"] = (
        statistics.median(r.study_s for r in traced)
        / statistics.median(r.study_s for r in untraced) - 1.0)
    return {name: (metrics[name], unit)
            for name, unit in tracing.LAYER_UNITS.items()}


def collect_errors(wl, cfg, records, warm_ups, tiny, checks):
    errors = [e for r in records + warm_ups for e in r.errors]
    if wl.kind == "build":
        errors += checks.identity_errors(records + warm_ups)
        per_pass = [r.rmse for r in records if r.rmse]
        if per_pass:
            errors += checks.rmse_errors(wl.name, cfg,
                                         checks.pooled_rmse(per_pass), tiny)
    return errors


def main(argv=None):
    args = parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    if not (SRC / "growabc" / "__init__.py").is_file():
        print("error: no growabc sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import rss
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    cfg = workloads.run_config(wl, args.tiny)

    work = WORK / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        observed, loaded, errors = prepare(wl, cfg, args.tiny, args.seed,
                                           work, workloads)
        rss.install()
        records, warm_ups, spans, setup_runs = run_passes(
            wl, cfg, args.seed, args.seconds, args.trace, work, observed,
            loaded, 1 if args.tiny else SETUP_REPS, workloads, tracing)
    finally:
        rss.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    errors += collect_errors(wl, cfg, records, warm_ups, args.tiny, checks)
    if args.trace:
        metrics = per_layer(records, spans, tracing, workloads.WORKERS)
    else:
        metrics = end_to_end(wl, records, loaded,
                             statistics.median(setup_runs),
                             workloads.TAIL_PERCENTILE)
    result = {
        "correct": not errors,
        "attempted": sum(r.calls for r in records),
        "failed": sum(r.calls_failed for r in records),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.out:
        record = {
            "workload": wl.name,
            "trace": args.trace,
            "tiny": args.tiny,
            "seconds": args.seconds,
            "environment": environment(args.seed, workloads.WORKERS),
            "config": {f.name: getattr(cfg, f.name) for f in fields(cfg)},
            "setup_runs_s": setup_runs,
            "passes": [asdict(r) for r in records],
            "warm_ups": [asdict(r) for r in warm_ups],
            "errors": errors,
            "result": result,
        }
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    for e in errors:
        print("check failed: %s" % e, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print("%-32s %14.6g %s" % (name, value, unit))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
