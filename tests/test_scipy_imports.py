"""SciPy is imported where it is used, and only there.

Each check runs in a fresh interpreter, since this test process has
SciPy loaded already. Acceptance against an existing table loads no
SciPy at all, also when it simulates its observed network; a build
imports what its tasks call before its pool forks, so no forked worker
imports a module of its own. Likewise ``multiprocessing`` is loaded
only by a pool that forks, so the steps that run no pool never load it.
A pool forks whatever the interpreter's default start method.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from growabc.config import RunConfig
from growabc.table import build_reference_table

SRC = Path(__file__).resolve().parents[1] / "src"

SMALL = dict(n_s=60, n_o=80, table_size=8, accept_k=3, exp_replicates=4)
PRICE = dict(SMALL, model="price", prior_low=(0.5, 0.001),
             prior_high=(5.0, 0.01), truths="2.5:0.005", n_s=100, n_o=200,
             checkpoint_start=40,
             summaries="in_degree_mean,in_degree_variance")

# prints the SciPy modules loaded after each step as one JSON object
ACCEPT_ONLY = """
import json
import sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

steps = {}
import growabc
from growabc import cli
from growabc.config import RunConfig
from growabc.experiment import abc_run
from growabc.table import build_seed_graph
steps["import growabc"] = scipy_loaded()
cfg = RunConfig(**%(small)r)
cfg.validate()
steps["validate"] = scipy_loaded()
build_seed_graph(cfg)
steps["build_seed_graph"] = scipy_loaded()
ls_table, gpa_table, out = sys.argv[1:]
abc_run(cfg, ls_table, out + "/ls", observed=(10.0, 300.0))
steps["abc_run LS"] = scipy_loaded()
abc_run(RunConfig(**dict(%(small)r, method="GPa")), gpa_table, out + "/gpa",
        observed=(10.0, 300.0))
steps["abc_run GPa"] = scipy_loaded()
sets = ["--set=%%s=%%s" %% kv for kv in %(small)r.items()]
assert cli.main(["abc-run", "--table", ls_table, "--observed", "10,300",
                 "--out", out + "/cli", *sets]) == 0
assert cli.main(["seed-gen", "--out", out + "/cli", *sets]) == 0
steps["cli abc-run, seed-gen"] = scipy_loaded()
# without an observed vector: one network is grown to n_o and its
# triangles are counted by count_triangles
abc_run(cfg, ls_table, out + "/ls_sim")
steps["abc_run LS, simulated observed"] = scipy_loaded()
assert cli.main(["abc-run", "--table", ls_table, "--out", out + "/cli_sim",
                 *sets]) == 0
steps["cli abc-run, simulated observed"] = scipy_loaded()
print(json.dumps(steps))
"""

# prints the pool modules (multiprocessing, concurrent.futures) loaded
# after each step as one JSON object
NO_POOL = """
import json
import sys

def pool_loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("multiprocessing", "concurrent"))

steps = {}
import growabc
from growabc import cli
from growabc.config import RunConfig
from growabc.table import build_seed_graph
steps["import growabc"] = pool_loaded()
cfg = RunConfig(**%(small)r)
cfg.validate()
steps["validate"] = pool_loaded()
build_seed_graph(cfg)
steps["build_seed_graph"] = pool_loaded()
table, out = sys.argv[1:]
sets = ["--set=%%s=%%s" %% kv for kv in %(small)r.items()]
assert cli.main(["seed-gen", "--out", out, *sets]) == 0
steps["cli seed-gen"] = pool_loaded()
assert cli.main(["abc-run", "--table", table, "--observed", "10,300",
                 "--out", out + "/obs", *sets]) == 0
steps["cli abc-run"] = pool_loaded()
assert cli.main(["abc-run", "--table", table, "--out", out + "/sim",
                 *sets]) == 0
steps["cli abc-run, simulated observed"] = pool_loaded()
print(json.dumps(steps))
"""

# run_experiment with a table build and an observed-network pool on two
# workers, the caller and one forked process; every task reports its
# pool, its process and every module it imported, SciPy's or any other
# (such as the numpy.ma that np.unique imports on first use)
POOL_TASKS = """
import functools
import json
import multiprocessing
import os
import sys

from growabc import experiment, table
from growabc.config import RunConfig

queue = multiprocessing.SimpleQueue()
main_pid = os.getpid()

def reporting(fn, pool):
    @functools.wraps(fn)
    def task(job):
        before = set(sys.modules)
        try:
            return fn(job)
        finally:
            queue.put((pool, os.getpid() == main_pid,
                       sorted(set(sys.modules) - before)))

    return task

for module, attr in ((table, "_build_entry"), (experiment, "_observed_for")):
    setattr(module, attr, reporting(getattr(module, attr), attr))
experiment.run_experiment(RunConfig(**%(cfg)r), sys.argv[1], workers=2)
reports = []
while not queue.empty():
    reports.append(queue.get())
tasks = {}  # pool: [tasks in the caller, tasks in a forked process]
for pool, in_caller, _ in reports:
    tasks.setdefault(pool, [0, 0])[0 if in_caller else 1] += 1
print(json.dumps({
    "tasks": tasks,
    "imported": sorted(set().union(*(imported for _, in_caller, imported
                                     in reports if not in_caller))),
    "parent": sorted(p for p in ("sparse", "linalg", "optimize", "special")
                     if "scipy." + p in sys.modules)}))
"""


def run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter importing growabc from the
    source tree; returns the JSON object on its last output line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                         env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_acceptance_on_a_built_table_loads_no_scipy(tmp_path):
    ls_table, gpa_table = tmp_path / "ls.csv", tmp_path / "gpa.csv"
    build_reference_table(RunConfig(**SMALL), str(ls_table), workers=1)
    build_reference_table(RunConfig(**dict(SMALL, method="GPa")),
                          str(gpa_table), workers=1)
    steps = run_fresh(ACCEPT_ONLY % {"small": SMALL}, ls_table, gpa_table,
                      tmp_path / "out")
    assert list(steps) == ["import growabc", "validate", "build_seed_graph",
                           "abc_run LS", "abc_run GPa",
                           "cli abc-run, seed-gen",
                           "abc_run LS, simulated observed",
                           "cli abc-run, simulated observed"]
    assert steps == {step: [] for step in steps}
    for run in ("cli", "ls_sim", "cli_sim"):
        assert (tmp_path / "out" / run / "posterior.csv").exists()


def test_steps_without_a_pool_load_no_multiprocessing(tmp_path):
    table = tmp_path / "ls.csv"
    build_reference_table(RunConfig(**SMALL), str(table), workers=1)
    steps = run_fresh(NO_POOL % {"small": SMALL}, table, tmp_path / "out")
    assert list(steps) == ["import growabc", "validate", "build_seed_graph",
                           "cli seed-gen", "cli abc-run",
                           "cli abc-run, simulated observed"]
    assert steps == {step: [] for step in steps}
    for run in ("obs", "sim"):
        assert (tmp_path / "out" / run / "posterior.csv").exists()


@pytest.mark.parametrize("cfg,parent", [
    (SMALL, []),
    (dict(SMALL, method="GPa"), ["linalg", "optimize", "sparse", "special"]),
    (dict(SMALL, method="S"), []),
    (PRICE, ["special"]),
], ids=["LS", "GPa", "S", "price_LS"])
def test_pool_workers_import_no_scipy(tmp_path, cfg, parent):
    # every task runs once, and each pool runs tasks both in the caller
    # and in its forked process; no task run in a forked process imports
    # any module; the parent imports what the tasks call before its
    # pools fork: an LS or S build of the DMC summaries loads no SciPy
    # (triangles are counted with NumPy alone), a GPa build what
    # scipy.optimize pulls in, and a Price LS build scipy.special alone,
    # for the digamma fits of in_degree_variance
    result = run_fresh(POOL_TASKS % {"cfg": cfg}, tmp_path / "exp")
    tasks = result.pop("tasks")
    assert sorted(tasks) == ["_build_entry", "_observed_for"]
    assert sum(map(sum, tasks.values())) == (cfg["table_size"]
                                             + cfg["exp_replicates"])
    assert sum(tasks["_build_entry"]) == cfg["table_size"]
    for in_caller, forked in tasks.values():
        assert in_caller >= 1 and forked >= 1
    assert result == {"imported": [], "parent": parent}


# pool_map at workers=2 over 8 jobs, under the start method given, after
# the caller has imported scipy.linalg; each job reports whether it ran
# in the caller, whether its process is the caller's child and whether
# scipy.linalg was imported there already
START_METHOD = """
import json
import multiprocessing
import os
import sys

method, probe_dir = sys.argv[1:]
multiprocessing.set_start_method(method)
sys.path.insert(0, probe_dir)
import scipy.linalg
from growabc.pool import pool_map
from poolprobe import probe
print(json.dumps(list(pool_map(probe, [(os.getpid(), 0.05)] * 8, 2))))
"""

PROBE = """
import os
import sys
import time

def probe(job):
    caller, pause = job
    linalg = "scipy.linalg" in sys.modules
    time.sleep(pause)
    return [os.getpid() == caller, os.getppid() == caller, linalg]
"""


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_pool_forks_whatever_the_default_start_method(tmp_path, method):
    # jobs run outside the caller run in its children, which inherit
    # the SciPy it imported, also where the default is not to fork
    (tmp_path / "poolprobe.py").write_text(PROBE)
    reports = run_fresh(START_METHOD, method, tmp_path)
    outside = [report[1:] for report in reports if not report[0]]
    assert len(reports) == 8 and outside
    assert outside == [[True, True]] * len(outside)

# the cached edge-list seed of one config: whether it keeps a running
# triangle count and neighbor bitmasks, and the SciPy modules loaded
EDGE_LIST_SEED = """
import json
import sys

from growabc.config import RunConfig
from growabc.table import build_seed_graph

path, summaries, method = sys.argv[1:]
seed = build_seed_graph(RunConfig(seed_type="edgelist", seed_path=path,
                                  summaries=summaries, method=method))
print(json.dumps({
    "tracked": seed.tracks_triangles, "masks": seed._bits is not None,
    "triangles": seed.triangle_count,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


@pytest.mark.parametrize("summaries,method,tracked", [
    ("avg_degree", "LS", False),
    ("avg_degree,triangle_count", "LS", True),
    ("avg_degree,triangle_count", "S", False),
], ids=["avg_degree", "triangle_count", "method_S"])
def test_edge_list_seed_tracks_only_what_growth_reads(tmp_path, summaries,
                                                      method, tracked):
    # the seed keeps a count and bitmasks only when the entries' growth
    # reads triangles at its checkpoints; loading it imports no SciPy
    path = tmp_path / "seed.edges"
    path.write_text("".join("%d %d\n" % (i, (i + 1) % 12)
                            for i in range(12)) + "0 2\n")
    seed = run_fresh(EDGE_LIST_SEED, path, summaries, method)
    assert seed == {"tracked": tracked, "masks": tracked, "triangles": 1,
                    "scipy": []}
