"""The traced benchmark's hold on the package.

perfbench/spans.py patches a wrapper over every binding of the functions
it lists in TRACED and computes work counters from their positional
arguments.  A traced run fails when a listed function is missing or a
layer recorded as active is not called, so these tests pin both: every
listed function resolves, each workload reaches the layers it lists as
active, the oracle paths reach the linalg kernels, and the counters can
read every argument tuple the kernels receive.
"""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from nilorbits import cli
from nilorbits.verify import run_suite, suite_oracle

_PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
_SPANS = _PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


spans = _load_spans()


def test_every_traced_function_resolves():
    for modname, attr in spans.TRACED:
        obj = importlib.import_module(f"nilorbits.{modname}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (modname, attr)


@pytest.fixture
def recorded(monkeypatch):
    """(span name, positional args) of every call into a traced
    module-level function, patched over every binding as spans.install
    does, and undone after the test."""
    calls = []
    mods = [m for key, m in sorted(sys.modules.items())
            if key == "nilorbits" or key.startswith("nilorbits.")]
    for (modname, attr), name in zip(spans.TRACED, spans.SPAN_NAMES):
        if "." in attr:
            continue
        orig = getattr(importlib.import_module(f"nilorbits.{modname}"), attr)

        def record(*args, _orig=orig, _name=name, **kwargs):
            calls.append((_name, args))
            return _orig(*args, **kwargs)

        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, key, record)
    return calls


def test_oracle_query_reaches_rank_and_mat_mul(recorded, capsys):
    assert cli.main(["--json", "oracle", "so8", "(3,3,1,1)"]) == 0
    capsys.readouterr()
    names = {name for name, _ in recorded}
    assert {"linalg.rank", "linalg.mat_mul"} <= names, names


def test_oracle_suite_reaches_the_kernels_the_counters_read(recorded):
    assert suite_oracle(9).ok
    names = {name for name, _ in recorded}
    assert {"linalg.rank", "linalg.mat_mul", "linalg.eigenspace_dim",
            "linalg.solve_in_span"} <= names, names
    counted = 0
    for name, args in recorded:
        if name in spans.COUNTERS:
            work = spans.COUNTERS[name][1](args)
            assert isinstance(work, int) and work >= 0, (name, work)
            counted += 1
    assert counted


def test_suites_keep_the_case_ids_the_workloads_count():
    # the benchmark counts a missing case as failed and matches known
    # failures by case id, so a suite may not drop or duplicate one
    workloads = json.loads((_PERFBENCH / "workloads.json").read_text())
    swept = [w for w in workloads.values() if "cases" in w]
    assert swept
    for w in swept:
        for name, count in sorted(w["cases"].items()):
            ids = [c.case_id for c in
                   run_suite(name, max_rank=w["max_rank"]).cases]
            where = f"{name} at --max-rank {w['max_rank']}"
            assert len(ids) >= count, f"{where}: {len(ids)} < {count}"
            assert len(set(ids)) == len(ids), f"{where}: duplicate case ids"


# One pass as perfbench/worker.py runs it: a fresh interpreter (empty
# caches), the package imported, spans.install over it, then the job.
# Prints the span names that had calls.
_PASS = """
import contextlib, importlib.util, io, json, sys
import nilorbits, nilorbits.cli
from nilorbits import verify
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
spans.install(tracer)
job = json.loads(sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    for suite in job.get("suites", []):
        verify.run_suite(suite, max_rank=job["max_rank"])
    for argv in job.get("queries", []):
        nilorbits.cli.main(["--json"] + argv)
print(json.dumps(sorted(n for n, (calls, _) in tracer.self_times().items()
                        if calls)))
"""


def _spans_reached(job) -> set[str]:
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _PASS, str(_SPANS),
                          json.dumps(job)], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(json.loads(out))


_WORKLOADS = json.loads((_PERFBENCH / "workloads.json").read_text())


@pytest.mark.parametrize("name", sorted(n for n, w in _WORKLOADS.items()
                                        if "cases" in w))
def test_swept_workload_reaches_its_active_layers(name):
    w = _WORKLOADS[name]
    reached = _spans_reached({"suites": sorted(w["cases"]),
                              "max_rank": w["max_rank"]})
    assert set(w["active"]) <= reached, set(w["active"]) - reached


# a fixed sample of the query mix: an exceptional grade and wdd, a
# classical wdd, an upsilon, catalog E8, an oracle query, and the
# hermitian grade so10/gl5, which reaches sl2.tensor
_QUERY_SAMPLE = [["grade", "E6/C4"], ["wdd", "E6", "E6(a1)"],
                 ["wdd", "sl6", "(3,2,1)"], ["upsilon", "sp8/gl4"],
                 ["catalog", "E8"], ["oracle", "so8", "(3,3,1,1)"],
                 ["grade", "so10/gl5"]]


def test_query_sample_reaches_the_active_layers_of_the_query_mix():
    active = {n for n in _WORKLOADS["query-mix"]["active"]
              if not n.startswith("cli.")}
    reached = _spans_reached({"queries": _QUERY_SAMPLE})
    assert active <= reached, active - reached
