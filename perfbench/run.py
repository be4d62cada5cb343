"""Benchmark of nilorbits: time to verdict on three workloads.

    python3 perfbench/run.py --workload verify-default --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Load is one client in a closed loop, single process and single
thread.  Each pass runs in a fresh worker interpreter, so the package's
caches start empty as they do for a CLI user; passes repeat until
``--seconds`` have elapsed and every metric is a median over passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics: calls, self
time and exact work counts of the layer functions, measured from spans
opened around calls into them (see spans.py).  The spans of the last traced
pass are written to ``.perfbench/spans-<workload>.tsv``.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  An item is a verdict of a sweep or one
query of the query mix; it fails when its verdict is false, it raises, it
exits non-zero or its output check does not hold.  A sweep with fewer cases
than recorded in workloads.json counts the missing cases as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import querymix  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("verify-default", "sweep-rank16", "query-mix")
SETUP_PROBES = 7       # extra worker spawns per run that only time set-up
RUN_LIMIT_S = 170      # a run must end within 180 s
# a traced pass must account for its wall: span self times plus the
# worker's own time outside the timed windows within ACCOUNT_TOL of it, and
# that own time at most HARNESS_MAX of it
ACCOUNT_TOL = 0.005
HARNESS_MAX = 0.05

END_TO_END = [("setup_s", "s"), ("verdict_s", "s"), ("cases_per_s", "1/s"),
              ("query_p50_ms", "ms"), ("query_tail_ms", "ms"),
              ("queries_per_s", "1/s"), ("peak_rss_mb", "MB")]

CLI_COMMANDS = ("wdd", "grade", "upsilon", "catalog", "oracle")
LAYERS = ("roots", "sl2", "orbits", "involutions", "gradings", "exceptional",
          "linalg", "oracle", "cli", "verify")


class BenchError(RuntimeError):
    pass


def per_layer_metrics(suites) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for name in spans.SPAN_NAMES + [f"cli.{c}" for c in CLI_COMMANDS]:
        out += [(f"{name}.calls", "count", "lower"),
                (f"{name}.self_s", "s", "lower")]
    out += [(f"{name}.hit_ratio", "ratio", "higher") for name in spans.CACHED]
    out += [(key, "count", "lower") for key, _ in spans.COUNTERS.values()]
    for suite in suites:
        out += [(f"verify.{suite}.s", "s", "lower"),
                (f"verify.{suite}.cases", "count", "higher")]
    out += [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    out.append(("trace.overhead", "ratio", "lower"))
    return out


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------

class Runner:
    """Spawns one worker per pass and keeps the run inside its time limit."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        PYTHONHASHSEED="0")

    def _spawn(self):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-s", os.path.join(HERE, "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            env=self.env, text=True)
        if proc.stdout.readline().strip() != "ready":
            proc.kill()
            proc.wait()
            raise BenchError("worker failed to import nilorbits")
        return proc, time.perf_counter() - start

    def run(self, job):
        """(set-up seconds, worker result) of one worker running job."""
        proc, setup = self._spawn()
        left = RUN_LIMIT_S - (time.perf_counter() - self.t0)
        try:
            out, _ = proc.communicate(json.dumps(job) + "\n",
                                      timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            raise BenchError("worker exceeded the run time limit")
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        return setup, (json.loads(out) if job is not None else None)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_sweep(spec, items, problems) -> tuple[int, int]:
    """(attempted, failed) of one sweep pass against the recorded counts."""
    attempted = failed = 0
    got = {it["name"]: it for it in items}
    for suite, want in spec["cases"].items():
        it = got.get(suite)
        if it is None or it["error"]:
            problems.add(f"{suite}: {it['error'] if it else 'not run'}")
            attempted += want
            failed += want
            continue
        known = set(spec["known_failures"].get(suite, ()))
        unexpected = sorted(set(it["failed"]) - known)
        if unexpected:
            problems.add(f"{suite}: unexpected failures {unexpected[:5]}")
        missing = max(0, want - it["cases"])
        if missing:
            problems.add(f"{suite}: {it['cases']} cases, {want} recorded")
        attempted += max(want, it["cases"])
        failed += len(it["failed"]) + missing
    return attempted, failed


def check_queries(items, problems) -> tuple[int, int]:
    bad = [it["error"] for it in items if it["error"]]
    problems.update(bad[:5])
    return len(items), len(bad)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(results, setups) -> dict[str, tuple[float, str]]:
    med = statistics.median
    per_pass = {
        "verdict_s": [r["verdict_s"] for r in results],
        "cases_per_s": [r["cases"] / r["verdict_s"] for r in results],
        "query_p50_ms": [1000 * r["p50_s"] for r in results],
        "query_tail_ms": [1000 * r["tail_s"] for r in results],
        "queries_per_s": [len(r["items"]) / r["verdict_s"] for r in results],
        "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in results],
    }
    values = {"setup_s": med(setups)}
    values.update({k: med(v) for k, v in per_pass.items()})
    return {name: (values[name], unit) for name, unit in END_TO_END}


def suite_items(result) -> dict:
    return {it["name"]: it for it in result["items"] if "cases" in it}


def check_trace(spec, traced, problems) -> None:
    """Every traced function exists, the layers recorded as active on the
    workload are called, spans nest, and spans plus the worker's own time
    account for the wall of each traced pass."""
    first = traced[0]["trace"]
    for name in first["missing"]:
        problems.add(f"traced function {name} not found in the package")
    idle = [n for n in spec["active"] if first["self"].get(n, (0,))[0] == 0]
    if idle:
        problems.add(f"layers recorded as active not called: {idle}")
    for r in traced:
        t, wall = r["trace"], r["wall_s"]
        if t["misnested"]:
            problems.add(f"{t['misnested']} spans not nested in their parent")
        if abs(t["self_sum_s"] + t["harness_s"] - wall) > ACCOUNT_TOL * wall:
            problems.add(f"span self times {t['self_sum_s']:.4f} s + harness "
                         f"{t['harness_s']:.4f} s != wall {wall:.4f} s")
        if t["harness_s"] > HARNESS_MAX * wall:
            problems.add(f"harness {t['harness_s']:.4f} s is over "
                         f"{HARNESS_MAX:.0%} of wall {wall:.4f} s")


def per_layer(traced, untraced, suites, problems):
    """Per-layer metrics of the traced passes.  Counts are taken from the
    first traced pass and must repeat exactly in the others."""
    def counts(r):
        t = r["trace"]
        return ({k: c for k, (c, _) in t["self"].items()}, t["counters"],
                t["errors"], t["hit_ratio"])

    first = traced[0]["trace"]
    if any(counts(r) != counts(traced[0]) for r in traced[1:]):
        problems.add("call counts differ between traced passes")

    def self_s(name):
        return statistics.median(r["trace"]["self"].get(name, (0, 0.0))[1]
                                 for r in traced)

    values = {}
    for name, unit, _ in per_layer_metrics(suites):
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = first["self"].get(base, (0, 0.0))[0]
        elif field == "self_s":
            values[name] = self_s(base)
        elif field == "hit_ratio":
            values[name] = first["hit_ratio"][base]
        elif field == "errors":
            values[name] = first["errors"].get(base, 0)
        elif name.startswith("verify.") and field == "s":
            # inclusive time of the suite call
            suite = base.split(".", 1)[1]
            values[name] = statistics.median(
                suite_items(r).get(suite, {}).get("s", 0.0) for r in traced)
        elif name.startswith("verify.") and field == "cases":
            suite = base.split(".", 1)[1]
            values[name] = suite_items(traced[0]).get(suite, {}).get("cases",
                                                                     0)
        elif name == "trace.overhead":
            values[name] = (statistics.median(r["verdict_s"] for r in traced)
                            / statistics.median(r["verdict_s"]
                                                for r in untraced))
        else:
            values[name] = first["counters"].get(name, 0)
    return {name: (values[name], unit)
            for name, unit, _ in per_layer_metrics(suites)}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="query-mix stream length relative to the full "
                         "stream (the self-test runs a reduced one)")
    return ap.parse_args(argv)


def bench(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "nilorbits",
                                       "__init__.py")):
        raise BenchError(f"no package source under {ROOT}/src")
    with open(os.path.join(HERE, "workloads.json")) as fh:
        specs = json.load(fh)
    all_suites = sorted(specs["verify-default"]["cases"])
    spec = specs[args.workload]
    if args.workload == "query-mix":
        # generated here, outside the timed worker, so it warms no cache
        job = {"queries": querymix.stream(args.seed, args.scale)}
    else:               # the sweeps are fixed; the seed changes nothing
        job = {"suites": sorted(spec["cases"]), "max_rank": spec["max_rank"]}
    job["root"] = ROOT

    runner = Runner()
    runner.run(None)    # compiles the bytecode caches; not measured
    setups = [runner.run(None)[0] for _ in range(SETUP_PROBES)]
    deadline = time.perf_counter() + args.seconds
    untraced, traced = [], []
    problems: set[str] = set()
    attempted = failed = 0
    spans_dir = os.path.join(ROOT, ".perfbench")
    while (not untraced or (args.trace and not traced)
           or time.perf_counter() < deadline):
        tracing = bool(args.trace) and len(untraced) > len(traced)
        job["trace"] = tracing
        if tracing:
            os.makedirs(spans_dir, exist_ok=True)
            job["spans_path"] = os.path.join(
                spans_dir, f"spans-{args.workload}.tsv")
        setup, res = runner.run(job)
        if "queries" in job:
            a, f = check_queries(res["items"], problems)
            res["verdict_s"] = sum(it["s"] for it in res["items"])
            res["cases"] = len(res["items"])
        else:
            a, f = check_sweep(spec, res["items"], problems)
            res["verdict_s"] = res["wall_s"]
            res["cases"] = sum(it["cases"] for it in res["items"])
        res["attempted"], res["failed"] = a, f
        attempted += a
        failed += f
        (traced if tracing else untraced).append(res)
        if not tracing:
            setups.append(setup)

    if args.trace:
        check_trace(spec, traced, problems)
        metrics = per_layer(traced, untraced, all_suites, problems)
    else:
        metrics = end_to_end(untraced, setups)
    r0 = untraced[0]
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes, {len(setups)} set-up samples; "
          f"{len(r0['items'])} timed calls per pass; fail_rate "
          f"{failed}/{attempted} = {failed / attempted:.6f} "
          f"({r0['failed']} of {r0['attempted']} per pass); query_tail_ms "
          f"is p{r0['tail_pct']:.2f} of {len(r0['items'])} per pass")
    if "queries" in job:
        share = {c: sum(it["s"] for it in r0["items"] if it["name"] == c)
                 / r0["verdict_s"] for c in CLI_COMMANDS}
        print("share of stream time: " + ", ".join(
            f"{c} {v:.1%}" for c, v in share.items()))
    if traced:
        t = traced[-1]["trace"]
        print(f"trace: {t['spans']} spans per pass; self {t['self_sum_s']:.4f}"
              f" s + harness {t['harness_s']:.4f} s, wall "
              f"{traced[-1]['wall_s']:.4f} s; spans in {job['spans_path']}")
    for p in sorted(problems):
        print(f"check failed: {p}")
    return {"correct": not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = bench(args)
    except BenchError as ex:
        print(f"benchmark error: {ex}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
