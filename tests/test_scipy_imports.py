"""SciPy is imported where it is used, and only there.

Each check runs in a fresh interpreter, since this test process has
SciPy loaded already. Acceptance against an existing table loads no
SciPy at all, also when it simulates its observed network; a build
imports what its tasks call before its pool forks, so no forked worker
imports a module of its own.
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

# run_experiment with a table build and an observed-network pool on two
# workers; each task run in a worker reports every module it imported,
# SciPy's or any other (such as the numpy.ma that np.unique imports on
# first use)
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

def reporting(fn):
    @functools.wraps(fn)
    def task(job):
        before = set(sys.modules)
        try:
            return fn(job)
        finally:
            if os.getpid() != main_pid:
                queue.put(sorted(set(sys.modules) - before))

    return task

for module, attr in ((table, "_build_entry"), (experiment, "_observed_for")):
    setattr(module, attr, reporting(getattr(module, attr)))
experiment.run_experiment(RunConfig(**%(cfg)r), sys.argv[1], workers=2)
reports = []
while not queue.empty():
    reports.append(queue.get())
print(json.dumps({
    "worker_tasks": len(reports),
    "imported": sorted(set().union(*reports)),
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


@pytest.mark.parametrize("cfg,parent", [
    (SMALL, []),
    (dict(SMALL, method="GPa"), ["linalg", "optimize", "sparse", "special"]),
    (dict(SMALL, method="S"), []),
    (PRICE, ["special"]),
], ids=["LS", "GPa", "S", "price_LS"])
def test_pool_workers_import_no_scipy(tmp_path, cfg, parent):
    # no task run in a worker imports any module; the parent imports
    # what the tasks call before its pools fork: an LS or S build of the
    # DMC summaries loads no SciPy (triangles are counted with NumPy
    # alone), a GPa build what scipy.optimize pulls in, and a Price LS
    # build scipy.special alone, for the digamma fits of
    # in_degree_variance
    result = run_fresh(POOL_TASKS % {"cfg": cfg}, tmp_path / "exp")
    assert result == {"worker_tasks": cfg["table_size"]
                      + cfg["exp_replicates"],
                      "imported": [], "parent": parent}


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
