"""Self-test of the benchmark: every workload at reduced size.

    python3 perfbench/selftest.py

Runs each workload untraced and traced for one pass (the query mix on a
twentieth of its stream) and checks that the result line has the contract's
keys, that every end-to-end metric of BENCHMARK.json is printed with its unit
untraced and every per-layer metric traced, that the sweeps report the
recorded case counts and known failures, and that the exact counts of two
traced runs with the same seed agree.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, trace: int, seed: int = 3) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "0.05"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise AssertionError(f"{workload}: exit {out.returncode}\n"
                             f"{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "workloads.json")) as fh:
        specs = json.load(fh)
    lists = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        counts = []
        for trace in (0, 1, 1):
            res = run(name, trace)
            expect(sorted(res) == ["attempted", "correct", "failed",
                                   "metrics"], f"{name}: result keys")
            expect(res["correct"] is True, f"{name}: outputs incorrect")
            expect(isinstance(res["attempted"], int) and res["attempted"] >= 1
                   and isinstance(res["failed"], int), f"{name}: counts")
            want = {m["name"]: m["unit"] for m in lists[trace]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{name} trace {trace}: metric names or "
                                f"units differ: {set(got) ^ set(want)}")
            for k, v in res["metrics"].items():
                expect(isinstance(v["value"], (int, float)), f"{k}: value")
                expect(trace or v["value"] > 0, f"{name}: {k} is 0")
            if name in specs and "cases" in specs[name]:
                spec = specs[name]
                per_pass = sum(spec["cases"].values())
                known = sum(map(len, spec["known_failures"].values()))
                passes = res["attempted"] // per_pass
                expect(res["attempted"] == passes * per_pass
                       and res["failed"] == passes * known,
                       f"{name}: {res['failed']}/{res['attempted']} failed, "
                       f"{known}/{per_pass} per pass recorded")
            if trace:
                counts.append({k: v["value"]
                               for k, v in res["metrics"].items()
                               if v["unit"] == "count"})
        expect(counts[0] == counts[1],
               f"{name}: counts differ between two traced runs")
        print(f"ok {name}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as ex:
        print(f"FAIL {ex}")
        sys.exit(1)
