"""The query-mix workload: a seeded stream of single CLI queries, and the
closed-form checks of their outputs.

Nothing here imports the package under test: the stream depends only on the
seed, and every expected value comes from a closed form (Collingwood-McGovern
for centraliser dimensions, the dimension formulas of the simple and
classical algebras, Kostant's dim g^e = dim g(0) + dim g(1) for the grading a
weighted Dynkin diagram defines), never from the code being measured.

The shape of the stream is a synthetic choice, not a measured one: equal
shares per command, half of the random partitions with few large parts and
half with many small ones, and every twentieth wdd query on an
exceptional type.
"""

from __future__ import annotations

import functools
import json
import random

# queries per command in one stream; the order is shuffled by the seed.
# There is no record of how the CLI is used, so every command gets the same
# share: 950 queries, the size of the stream the workload was designed on.
MIX = {"wdd": 190, "grade": 190, "upsilon": 190, "catalog": 190,
       "oracle": 190}

MAX_N = 40         # wdd and grade partitions of n <= MAX_N
MAX_RANK = 24      # catalog and upsilon types of rank <= MAX_RANK
MAX_ORACLE_N = 10  # oracle matrix size

_EXC_DIM = {"E6": 78, "E7": 133, "E8": 248, "F4": 52, "G2": 14}
# records checkable in closed form: regular (dim g^e = rank) and
# subregular (rank + 2) orbits
_EXC_WDD = [("E6", "E6", 6), ("E6", "E6(a1)", 8), ("F4", "F4(a1)", 6),
            ("G2", "G2(a1)", 4)]
_EXC_PAIRS = ["E6/C4", "E6/A5+A1", "E6/D5+t1", "E6/F4", "E7/A7", "E7/D6+A1",
              "E7/E6+t1", "E8/D8", "E8/E7+A1", "F4/C3+A1", "F4/B4",
              "G2/A1+A1~"]


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def algebra_dim(kind: str, n: int) -> int:
    return {"sl": n * n - 1, "so": n * (n - 1) // 2,
            "sp": n * (n + 1) // 2}[kind]


def type_dim(label: str) -> int:
    """dim of the simple algebra with Cartan label or classical name."""
    for kind in ("sl", "so", "sp"):
        if label.startswith(kind):
            return algebra_dim(kind, int(label[2:]))
    if label in _EXC_DIM:
        return _EXC_DIM[label]
    fam, r = label[0], int(label[1:])
    return {"A": r * (r + 2), "B": r * (2 * r + 1), "C": r * (2 * r + 1),
            "D": r * (2 * r - 1)}[fam]


def centralizer_dim(kind: str, parts: list[int]) -> int:
    """dim g^e from the Jordan type (Collingwood-McGovern 6.1.4)."""
    dual = [sum(1 for p in parts if p > i) for i in range(max(parts))]
    sq = sum(d * d for d in dual)
    odd = sum(1 for p in parts if p % 2)
    if kind == "sl":
        return sq - 1
    return (sq - odd) // 2 if kind == "so" else (sq + odd) // 2


def diagram(amb: str) -> tuple[str, int]:
    """Dynkin family and rank of sl_n, so_n, sp_n or an exceptional type."""
    if amb in _EXC_DIM:
        return amb[0], int(amb[1:])
    kind, n = amb[:2], int(amb[2:])
    if kind == "sl":
        return "A", n - 1
    if kind == "sp":
        return "C", n // 2
    return ("B" if n % 2 else "D"), n // 2


def root_values(family: str, labels: list[int]) -> list[int]:
    """Twice alpha(h) for every root alpha, where h has the given labels on
    the simple roots (Bourbaki numbering; short roots first for F4 and G2).
    Classical h is built from its coordinates in the basis e_i, doubled so
    that they are integers; exceptional roots are generated."""
    if family in "EFG":
        return [2 * s * sum(c * lab for c, lab in zip(root, labels))
                for root in _positive_roots(family, len(labels))
                for s in (1, -1)]
    if family == "A":       # alpha_i = e_i - e_i+1 on rank + 1 coordinates
        h = [0]
        for lab in labels:
            h.append(h[-1] - 2 * lab)
        return [a - b for i, a in enumerate(h) for j, b in enumerate(h)
                if i != j]
    if family == "D":       # alpha_r-1 = e_r-1 - e_r, alpha_r = e_r-1 + e_r
        h, rest = [labels[-2] + labels[-1], labels[-1] - labels[-2]], \
            labels[:-2]
    else:                   # alpha_r = e_r (B) or 2 e_r (C)
        h, rest = [2 * labels[-1] if family == "B" else labels[-1]], \
            labels[:-1]
    for lab in reversed(rest):
        h.insert(0, h[0] + 2 * lab)
    vals = [s * a + t * b for i, a in enumerate(h) for b in h[i + 1:]
            for s in (1, -1) for t in (1, -1)]
    if family != "D":
        vals += [s * a * (1 if family == "B" else 2)
                 for a in h for s in (1, -1)]
    return vals


def _gram(family: str, rank: int) -> list[list[int]]:
    """Twice the inner products of the simple roots of E, F4 or G2."""
    if family == "G":
        return [[2, -3], [-3, 6]]
    if family == "F":
        diag, edges = [2, 2, 4, 4], {(0, 1): -1, (1, 2): -2, (2, 3): -2}
    else:                   # Bourbaki: 1-3-4-5-..., 2 joined to 4
        diag = [2] * rank
        edges = {(0, 2): -1, (1, 3): -1}
        edges.update({(i, i + 1): -1 for i in range(2, rank - 1)})
    g = [[0] * rank for _ in range(rank)]
    for i, d in enumerate(diag):
        g[i][i] = d
    for (i, j), v in edges.items():
        g[i][j] = g[j][i] = v
    return g


@functools.lru_cache(maxsize=None)
def _positive_roots(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Positive roots in the basis of simple roots, by root strings: beta +
    alpha_i is a root when beta - p alpha_i is and <beta, alpha_i^v> < p."""
    g = _gram(family, rank)

    def shift(root, i, k):
        return root[:i] + (root[i] + k,) + root[i + 1:]

    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots, layer = set(simple), simple
    while layer:
        nxt = []
        for root in layer:
            for i in range(rank):
                p = 0
                while shift(root, i, -p - 1) in roots:
                    p += 1
                pair = 2 * sum(c * g[j][i] for j, c in enumerate(root)) \
                    // g[i][i]
                up = shift(root, i, 1)
                if pair < p and up not in roots:
                    roots.add(up)
                    nxt.append(up)
        layer = nxt
    return tuple(sorted(roots))


def _grid_dim(row: dict[str, int]) -> int:
    return sum(v if i == "0" else 2 * v for i, v in row.items())


# ---------------------------------------------------------------------------
# the stream
# ---------------------------------------------------------------------------

def _raw_partition(rng: random.Random, n: int) -> list[int]:
    if rng.random() < 0.5:      # few large parts
        parts, rest = [], n
        while rest:
            parts.append(rng.randint(1, rest))
            rest -= parts[-1]
    else:                       # uniform composition: many small parts
        cuts = sorted(c for c in range(1, n) if rng.random() < 0.5)
        bounds = [0] + cuts + [n]
        parts = [b - a for a, b in zip(bounds, bounds[1:])]
    return sorted(parts, reverse=True)


def partition(rng: random.Random, kind: str, n: int) -> list[int]:
    """A random Jordan type valid for sl_n, so_n or sp_n: in so the even
    parts, in sp the odd parts, occur with even multiplicity."""
    parts = _raw_partition(rng, n)
    if kind == "so":
        for p in sorted(set(parts)):
            if p % 2 == 0 and parts.count(p) % 2:
                parts.remove(p)
                parts += [p - 1, 1]
    elif kind == "sp":
        lone = sorted((p for p in set(parts)
                       if p % 2 and parts.count(p) % 2), reverse=True)
        for a, b in zip(lone[::2], lone[1::2]):
            parts.remove(a)
            parts.remove(b)
            parts += [a + 1] + ([b - 1] if b > 1 else [])
    return sorted(parts, reverse=True)


def even_so_partition(rng: random.Random, n: int) -> list[int]:
    """A Jordan type of so_n whose parts share one parity, as grade needs:
    all parts odd, or (n divisible by 4) even parts in equal pairs."""
    if n % 4 == 0 and rng.random() < 0.2:
        return sorted((2 * q for q in _raw_partition(rng, n // 4)
                       for _ in range(2)), reverse=True)
    parts = []
    for p in _raw_partition(rng, n):
        parts += [p] if p % 2 else [p - 1, 1]
    return sorted(parts, reverse=True)


def _ambient_sizes(kind: str, hi: int) -> list[int]:
    if kind == "sl":
        return list(range(2, hi + 1))
    if kind == "so":       # so3 = B1, so4 = D2 and so6 = D3 are rejected
        return [n for n in range(5, hi + 1) if n != 6]
    return list(range(4, hi + 1, 2))


def upsilon_pairs() -> list[str]:
    """Pair descriptors of rank <= MAX_RANK on which the derived involution
    is defined: the regular element of g0 is even in g and nonzero."""
    out = []
    for r in range(2, MAX_RANK + 1):
        n = r + 1                                   # A_r
        out.append(f"sl{n}/so{n}")
        if n % 2 == 0:
            out.append(f"sl{n}/sp{n}")
        # s(gl_a + gl_b): e has Jordan type (b, a), even iff a = b mod 2
        out += [f"sl{n}/gl{a}+gl{n - a}" for a in range(1, n // 2 + 1)
                if (n - 2 * a) % 2 == 0]
        n = 2 * r + 1                               # B_r
        out += [f"so{n}/so{n - s}+so{s}" for s in range(1, r + 1)]
        n = 2 * r                                   # C_r
        out.append(f"sp{n}/gl{r}")
        out += [f"sp{n}/sp{n - 2 * k}+sp{2 * k}" for k in range(1, r // 2 + 1)]
        if r >= 4:                                  # D_r
            out += [f"so{n}/so{n - s}+so{s}" for s in range(1, r + 1)]
            out.append(f"so{n}/gl{r}")
    return out + _EXC_PAIRS


def catalog_types() -> list[str]:
    out = [f"A{r}" for r in range(1, MAX_RANK + 1)]
    out += [f"{f}{r}" for f in "BC" for r in range(2, MAX_RANK + 1)]
    out += [f"D{r}" for r in range(4, MAX_RANK + 1)]
    return out + ["E6", "E7", "E8", "F4", "G2"]


def _wdd(rng: random.Random, exceptional: bool) -> list[str]:
    if exceptional:
        t, label, _ = rng.choice(_EXC_WDD)
        return ["wdd", t, label]
    kind = rng.choice(("sl", "so", "sp"))
    n = rng.choice(_ambient_sizes(kind, MAX_N))
    return ["wdd", f"{kind}{n}", _fmt(partition(rng, kind, n))]


def _draw(rng: random.Random, cmd: str, pairs, types) -> list[str]:
    if cmd == "grade":
        n = rng.randint(3, MAX_N)
        return ["grade", f"sl{n}/so{n}", _fmt(even_so_partition(rng, n))]
    if cmd == "upsilon":
        return ["upsilon", rng.choice(pairs)]
    return ["catalog", rng.choice(types)]


def _fmt(parts: list[int]) -> str:
    return "(" + ",".join(map(str, parts)) + ")"


def all_partitions(n: int, cap: int | None = None) -> list[list[int]]:
    if n == 0:
        return [[]]
    cap = n if cap is None else cap
    return [[p] + rest for p in range(min(n, cap), 0, -1)
            for rest in all_partitions(n - p, p)]


def oracle_queries(rng: random.Random, kind: str, n: int,
                   k: int) -> list[list[str]]:
    """k oracle queries on sl_n, so_n or sp_n by systematic sampling: the
    valid Jordan types sorted by centraliser dimension (the oracle's cost
    falls as it grows) are taken at k evenly spaced positions from a seeded
    offset, so every seed spans the whole cost range of the size."""
    odd_ok = {"sl": True, "so": True, "sp": False}[kind]
    valid = [lam for lam in all_partitions(n)
             if kind == "sl" or all(lam.count(p) % 2 == 0 for p in set(lam)
                                    if (p % 2 == 1) != odd_ok)]
    valid.sort(key=lambda lam: (centralizer_dim(kind, lam), lam))
    offset = rng.random()
    return [["oracle", f"{kind}{n}",
             _fmt(valid[int((offset + i) * len(valid) / k) % len(valid)])]
            for i in range(k)]


def stream(seed: int, scale: float = 1.0) -> list[list[str]]:
    """The argv list (without --json) of one query-mix stream."""
    rng = random.Random(seed)
    pairs, types = upsilon_pairs(), catalog_types()
    cmds = [c for c, k in MIX.items() for _ in range(max(1, round(k * scale)))]
    rng.shuffle(cmds)
    # oracle cost grows like n^6 and varies with the Jordan type, so every
    # oracle size gets the same number of queries, spread over its types:
    # the stream's total work and its slowest queries then vary little from
    # seed to seed
    sizes = [(k, n) for k in ("sl", "so", "sp")
             for n in _ambient_sizes(k, MAX_ORACLE_N)]
    per_size = -(-cmds.count("oracle") // len(sizes))
    oracle = [oracle_queries(rng, kind, n, per_size) for kind, n in sizes]
    out, seen, wdds = [], 0, 0
    for c in cmds:
        if c == "oracle":
            out.append(oracle[seen % len(sizes)][seen // len(sizes)])
            seen += 1
        elif c == "wdd":    # every twentieth on an exceptional type
            out.append(_wdd(rng, wdds % 20 == 0))
            wdds += 1
        else:
            out.append(_draw(rng, c, pairs, types))
    return out


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check(argv: list[str], code: int, out: str) -> str | None:
    """None when the query's output holds, else what went wrong."""
    if code != 0:
        return f"exit {code}"
    try:
        data = json.loads(out)
    except json.JSONDecodeError:
        return "output is not JSON"
    try:
        return _check(argv, data)
    except (KeyError, TypeError) as ex:
        return f"output lacks {ex}"


def _check(argv: list[str], data) -> str | None:
    cmd = argv[0]
    if cmd in ("wdd", "oracle"):
        amb = argv[1]
        if amb in _EXC_DIM:
            want = next(d for t, lbl, d in _EXC_WDD
                        if (t, lbl) == (amb, argv[2]))
        else:
            parts = [int(p) for p in argv[2].strip("()").split(",")]
            want = centralizer_dim(amb[:2], parts)
        got = data["dim_centralizer" if cmd == "wdd" else "centralizer"]
        if got != want:
            return f"dim g^e {got} != {want}"
        if cmd == "wdd":
            return _check_labels(amb, data["wdd"], want)
        if cmd == "oracle" and data["relations_ok"] is not True:
            return "triple relations failed"
        return None
    if cmd == "grade":
        n = int(argv[1].split("/")[0][2:])
        got = (_grid_dim(data["grid"]["d0"]), _grid_dim(data["grid"]["d1"]))
        want = (n * (n - 1) // 2, n * (n + 1) // 2 - 1)
        return None if got == want else f"grid dims {got} != {want}"
    if cmd == "upsilon":
        g = type_dim(argv[1].split("/")[0])
        for cls, diff in (("sigma_check", "diff_check"),
                          ("sigma_sigma_check", "diff_cross")):
            if 2 * data[cls]["dim_g0"] - g != data[diff]:
                return f"2 dim g^{cls} - dim g != {diff}"
        return None
    g = type_dim(argv[1])
    bad = [p["g0"] for p in data["pairs"] if p["dim_g0"] + p["dim_g1"] != g]
    if not data["pairs"] or bad:
        return f"dim g0 + dim g1 != {g} for {bad}"
    return None


def _check_labels(amb: str, wdd: dict, dim_ge: int) -> str | None:
    """The labels of a weighted Dynkin diagram lie in {0, 1, 2} and the
    grading they define has dim g(0) + dim g(1) = dim g^e (Kostant)."""
    family, rank = diagram(amb)
    labels = wdd["labels"]
    if wdd["type"] != {"family": family, "rank": rank} \
            or len(labels) != rank:
        return f"diagram {wdd['type']} is not {family}{rank}"
    if not set(labels) <= {0, 1, 2}:
        return f"labels {labels} outside 0, 1, 2"
    vals = root_values(family, labels)
    kostant = rank + vals.count(0) + vals.count(2)
    if kostant != dim_ge:
        return f"labels {labels} give dim g(0) + dim g(1) = {kostant}"
    return None
