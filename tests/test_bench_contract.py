"""The traced benchmark's hold on the package.

perfbench/spans.py patches a wrapper over every binding of the functions
it lists in TRACED and computes work counters from their positional
arguments.  A traced run fails when a listed function is missing or a
layer recorded as active is not called, so these tests pin both: every
listed function resolves, the oracle paths reach the linalg kernels, and
the counters can read every argument tuple the kernels receive.
"""

import importlib
import importlib.util
import json
import pathlib
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
