"""SciPy is imported where it is used, and only there.

Each check runs in a fresh interpreter, since this test process has
SciPy loaded already. Acceptance against an existing table loads no
SciPy at all; a build imports what its tasks call before its pool
forks, so no forked worker imports a SciPy module of its own.
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
print(json.dumps(steps))
"""

# run_experiment with a table build and an observed-network pool on two
# workers; each task run in a worker reports the SciPy modules it
# imported
POOL_TASKS = """
import functools
import json
import multiprocessing
import os
import sys

from growabc import experiment, table
from growabc.config import RunConfig

def scipy_loaded():
    return {m for m in sys.modules if m.split(".")[0] == "scipy"}

queue = multiprocessing.SimpleQueue()
main_pid = os.getpid()

def reporting(fn):
    @functools.wraps(fn)
    def task(job):
        before = scipy_loaded()
        try:
            return fn(job)
        finally:
            if os.getpid() != main_pid:
                queue.put(sorted(scipy_loaded() - before))

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
                           "cli abc-run, seed-gen"]
    assert steps == {step: [] for step in steps}
    assert (tmp_path / "out" / "cli" / "posterior.csv").exists()


@pytest.mark.parametrize("cfg,parent", [
    (SMALL, ["sparse"]),
    (dict(SMALL, method="GPa"), ["linalg", "optimize", "sparse", "special"]),
    (dict(SMALL, method="S"), ["sparse"]),
    (PRICE, ["special"]),
], ids=["LS", "GPa", "S", "price_LS"])
def test_pool_workers_import_no_scipy(tmp_path, cfg, parent):
    # the parent imports what the tasks call before its pools fork: an
    # LS build with a triangle_count summary loads scipy.sparse alone,
    # for the observed networks; a Price LS build scipy.special alone,
    # for the digamma fits of in_degree_variance
    result = run_fresh(POOL_TASKS % {"cfg": cfg}, tmp_path / "exp")
    assert result == {"worker_tasks": cfg["table_size"]
                      + cfg["exp_replicates"],
                      "imported": [], "parent": parent}
