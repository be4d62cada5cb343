"""One benchmark pass in a fresh interpreter, so the package's lru_caches
start empty as they do for a CLI user.

Protocol: the worker imports the package and prints ``ready`` (the parent
times set-up up to that line), then reads one JSON job from stdin, runs it
and prints one JSON result.  A job of ``null`` exits after the import.  The
package is imported at the top, before anything else, so that set-up time
covers the interpreter and the package only.  Run as a script, never
imported.
"""

import sys
import time

import nilorbits
import nilorbits.cli

print("ready", flush=True)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import querymix  # noqa: E402
import spans  # noqa: E402


def _sweep(job, tracer):
    from nilorbits import verify
    reports = []
    t0 = time.perf_counter()
    for i, suite in enumerate(job["suites"]):
        if tracer:
            tracer.item_id = i
            sid = tracer.open(tracer.name_id(f"verify.{suite}"))
        a = time.perf_counter()
        try:
            rep, err = verify.run_suite(suite, max_rank=job["max_rank"]), None
        except Exception as ex:  # reported as a failed item, not a crash
            rep, err = None, f"{type(ex).__name__}: {ex}"
            if tracer:
                tracer.errors["verify"] = tracer.errors.get("verify", 0) + 1
        b = time.perf_counter()
        if tracer:
            tracer.close(sid)
        reports.append((suite, b - a, rep, err))
    wall = time.perf_counter() - t0
    items = [{"name": s, "s": dt, "error": err,
              "cases": len(rep.cases) if rep else 0,
              "failed": [c.case_id for c in rep.cases if not c.passed]
              if rep else []}
             for s, dt, rep, err in reports]
    return wall, items


def _queries(job, tracer):
    main = nilorbits.cli.main
    items = []
    t0 = time.perf_counter()
    for i, argv in enumerate(job["queries"]):
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.item_id = i
            nid = tracer.name_id(f"cli.{argv[0]}")
        crash = ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer:
                sid = tracer.open(nid)
            a = time.perf_counter()
            try:
                code = main(["--json"] + argv)
            except SystemExit as ex:
                code = ex.code
            except Exception as ex:  # a traceback is a failed query
                code, crash = -1, f"{type(ex).__name__}: {ex}"
                if tracer:
                    tracer.errors["cli"] = tracer.errors.get("cli", 0) + 1
            b = time.perf_counter()
            if tracer:
                tracer.close(sid)
        bad = querymix.check(argv, code, out.getvalue())
        items.append({"name": argv[0], "s": b - a,
                      "error": bad and f"{' '.join(argv)}: {bad} "
                                       f"{crash or err.getvalue()[:200]}"})
    return time.perf_counter() - t0, items


def _trace_summary(tracer, missing, wall, items):
    """Per-layer figures of one traced pass.  harness_s is the worker's own
    time outside the timed window of each item (output capture, output
    checks, the loop), measured apart from the spans: the spans' self times
    plus harness_s should give the wall."""
    own = tracer.self_times()
    caches = {}
    for name in spans.CACHED:
        mod, attr = name.split(".")
        fn = getattr(getattr(sys.modules[f"nilorbits.{mod}"], attr, None),
                     "__wrapped__", None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        total = info.hits + info.misses if info else 0
        caches[name] = info.hits / total if total else 0.0
    return {"self": own, "counters": tracer.counters,
            "errors": tracer.errors, "hit_ratio": caches,
            "missing": missing, "misnested": tracer.misnested(),
            "self_sum_s": sum(s for _, s in own.values()),
            "harness_s": wall - sum(it["s"] for it in items),
            "spans": len(tracer.start)}


def main():
    job = json.loads(sys.stdin.readline())
    if job is None:
        return
    src = os.path.realpath(os.path.join(job["root"], "src"))
    if not os.path.realpath(nilorbits.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {nilorbits.__file__}, not from {src}")
    tracer, missing = None, []
    if job["trace"]:
        tracer = spans.Tracer()
        missing = spans.install(tracer)
    run = _queries if "queries" in job else _sweep
    wall, items = run(job, tracer)
    result = {"wall_s": wall, "items": items,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        result["trace"] = _trace_summary(tracer, missing, wall, items)
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    lat = [it["s"] for it in items]
    result["p50_s"] = statistics.median(lat)
    # the highest percentile with ten items beyond it, or the maximum when
    # a pass has ten items or fewer
    rank = len(lat) - 10 if len(lat) > 10 else len(lat)
    result["tail_s"] = sorted(lat)[rank - 1]
    result["tail_pct"] = 100 * rank / len(lat)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
