"""In-memory span tracer for the traced benchmark run.

A span is (name, start, end, parent, item): item is the index of the
top-level call (one suite or one CLI query) the span belongs to.  Spans are
opened around calls into the layer functions listed in ``TRACED``; nothing in
the package itself is instrumented.  The wrappers are patched into every
``nilorbits`` namespace that holds the function, because ``from .roots import
build_root_system`` binds its own name in each importing module.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (module, attribute); the span name is module.function.  The oracle's
# function-local ``from .linalg import ...`` reads the linalg module
# attribute at call time, so patching that module covers those calls too.
TRACED = [
    ("orbits", "WeightedDynkinDiagram.layer_dim"),
    ("orbits", "wdd_from_partition"),
    ("orbits", "centralizer_dims"),
    ("linalg", "rank"),
    ("linalg", "mat_mul"),
    ("linalg", "solve_in_span"),
    ("linalg", "eigenspace_dim"),
    ("oracle", "triple_from_partition"),
    ("oracle", "centralizer_dim"),
    ("oracle", "ker_ad_squared"),
    ("oracle", "oracle_grid"),
    ("roots", "build_root_system"),
    ("sl2", "tensor"),
    ("sl2", "sym2"),
    ("sl2", "alt2"),
    ("gradings", "decompose"),
    ("gradings", "grading_grid"),
    ("gradings", "upsilon"),
    ("involutions", "catalog"),
    ("involutions", "orbit_meets_g1"),
    ("exceptional", "exceptional_lookup"),
]
SPAN_NAMES = [f"{mod}.{attr.rpartition('.')[2]}" for mod, attr in TRACED]

# lru_cache'd functions whose cache_info() gives a hit ratio
CACHED = ("roots.build_root_system", "involutions.catalog")


def _matrix_cells(m) -> int:
    return len(m) * len(m[0]) if m else 0


# exact work counts computed from the positional arguments' shapes:
# rank(m), mat_mul(a, b) (dense multiplications), solve_in_span(basis, target)
# (cells of the augmented system)
COUNTERS = {
    "linalg.rank": ("linalg.rank.cells", lambda a: _matrix_cells(a[0])),
    "linalg.mat_mul": ("linalg.mat_mul.mults",
                       lambda a: len(a[0]) * _matrix_cells(a[1])),
    "linalg.solve_in_span": ("linalg.solve_in_span.cells",
                             lambda a: _matrix_cells(a[1]) * (len(a[0]) + 1)),
}


class Tracer:
    """Spans of one pass, kept in flat arrays until the pass ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.item_id = -1
        self.errors: dict[str, int] = {}
        self.counters: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self.current)
        self.item.append(self.item_id)
        self.end.append(0.0)
        self.current = sid
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.current = self.parent[sid]

    def _own(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for sid, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[sid] - self.start[sid]
        return own

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds)."""
        calls = [0] * len(self.names)
        secs = [0.0] * len(self.names)
        for nid, t in zip(self.name, self._own()):
            calls[nid] += 1
            secs[nid] += t
        return {n: (calls[i], secs[i]) for i, n in enumerate(self.names)}

    def misnested(self) -> int:
        """Spans that end outside their parent or have a negative self time
        (a span left open ends at 0)."""
        outside = sum(1 for sid, p in enumerate(self.parent) if p >= 0 and not
                      self.start[p] <= self.start[sid] <= self.end[sid]
                      <= self.end[p])
        return outside + sum(1 for t in self._own() if t < 0)

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            out.write("span\tname\tparent\titem\tstart_s\tend_s\n")
            for sid, (nid, p, it, s, e) in enumerate(zip(
                    self.name, self.parent, self.item, self.start,
                    self.end)):
                out.write(f"{sid}\t{self.names[nid]}\t{p}\t{it}\t"
                          f"{s!r}\t{e!r}\n")


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    layer = name.split(".", 1)[0]
    count = COUNTERS.get(name)

    def traced(*args, **kwargs):
        if count is not None:
            key, work = count
            tracer.counters[key] = tracer.counters.get(key, 0) + work(args)
        sid = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        except Exception:
            tracer.errors[layer] = tracer.errors.get(layer, 0) + 1
            raise
        finally:
            tracer.close(sid)

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> list[str]:
    """Patch a traced wrapper over every binding of each TRACED function.
    Returns the span names of the functions the package does not have."""
    mods = [m for key, m in sorted(sys.modules.items())
            if key == "nilorbits" or key.startswith("nilorbits.")]
    missing = []
    for (modname, attr), name in zip(TRACED, SPAN_NAMES):
        home = sys.modules.get(f"nilorbits.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name, None)
            if hasattr(cls, meth):
                setattr(cls, meth, _wrap(tracer, name, getattr(cls, meth)))
            else:
                missing.append(name)
            continue
        orig = getattr(home, attr, None)
        if orig is None:
            missing.append(name)
            continue
        wrapped = _wrap(tracer, name, orig)
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
    return missing
