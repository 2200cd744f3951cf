"""Checks that the benchmark is steady across seeds and across sets.

Usage, from the repository root:

    python3 perfbench/proof.py [--seeds 1-10] [--sets 2] [--out FILE]

Each set runs ``run.py`` untraced once for every (workload, seed) pair,
in an order shuffled anew for each set, so that a slow phase of the host
spreads over seeds and workloads instead of following one of them. For
every end-to-end metric of every workload it prints:

- the median over the seeds of each set;
- the spread of each set: (Q3 - Q1) / median, with the quartiles of
  ``statistics.quantiles(values, n=4)``;
- the move of each later set's median from the first set's, as a share
  of the first, signed so that a positive move is a change for the
  worse. ``over`` marks a spread (``setup_s`` excepted) or a move beyond
  the metric's bound in BENCHMARK.json.

``--out`` writes every run's result line and the summary as JSON.
"""

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    start = time.time()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
    return {"workload": workload, "seed": seed, "started": start,
            "wall_s": time.time() - start, "returncode": out.returncode,
            "result": result,
            "stderr_tail": out.stderr[-2000:] if result is None
            or not result["correct"] else ""}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(spec, sets):
    rows = []
    for w in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            per_set = []
            for runs in sets:
                values = [r["result"]["metrics"][name]["value"]
                          for r in runs if r["workload"] == w
                          and r["result"] is not None]
                per_set.append({"median": statistics.median(values),
                                "spread": spread(values),
                                "values": values})
            first = per_set[0]["median"]
            moves = [sign * (s["median"] - first) / first if first else 0.0
                     for s in per_set[1:]]
            over = [s["spread"] > bound for s in per_set
                    if name != "setup_s"] + [mv > bound for mv in moves]
            rows.append({"workload": w, "metric": name, "bound": bound,
                         "sets": per_set, "moves": moves, "over": any(over)})
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--out", default=None)
    p.add_argument("--log", default=None,
                   help="append each run to this file as a JSON line")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs = [(w["name"], s) for w in spec["workloads"] for s in args.seeds]
    sets = []
    for index in range(args.sets):
        order = list(pairs)
        random.Random(index).shuffle(order)
        runs = []
        for workload, seed in order:
            run = run_once(spec, workload, seed)
            runs.append(run)
            if args.log:
                with open(args.log, "a") as fh:
                    fh.write(json.dumps(dict(run, set=index + 1)) + "\n")
            ok = run["result"] is not None and run["result"]["correct"]
            print("set %d %-12s seed %3d %5.1f s %s"
                  % (index + 1, workload, seed, run["wall_s"],
                     "ok" if ok else "FAILED"), file=sys.stderr, flush=True)
        sets.append(runs)
    rows = summarize(spec, sets)
    failed = [r for runs in sets for r in runs
              if r["result"] is None or not r["result"]["correct"]]
    header = ["workload", "metric", "bound"]
    header += ["set %d median (spread)" % (i + 1) for i in range(args.sets)]
    header += ["move %d" % (i + 2) for i in range(args.sets - 1)] + [""]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for r in rows:
        cells = [r["workload"], r["metric"], "%.2f" % r["bound"]]
        cells += ["%.4g (%.3f)" % (s["median"], s["spread"])
                  for s in r["sets"]]
        cells += ["%+.3f" % mv for mv in r["moves"]]
        cells.append("over" if r["over"] else "")
        print("| " + " | ".join(cells) + " |")
    print("runs: %d, failed or incorrect: %d"
          % (sum(len(s) for s in sets), len(failed)))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seeds": args.seeds, "sets": sets, "summary": rows},
                      fh, indent=1)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
