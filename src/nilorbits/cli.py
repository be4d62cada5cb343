"""Command-line interface.

Subcommands: wdd, orbit, grade, upsilon, catalog, oracle, verify.
Pair descriptors use the grammar <type>/<g0>[-diagram], where <type> is a
Cartan label (E6, B4) or a classical name (sl6, so10, sp8) and <g0> is a
fixed-algebra descriptor such as C4, gl5, so8, so7+so4, gl2+gl4, A5+A1,
with its summands in any order.
Exit codes: 0 on success, 1 on verification failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .exceptional import exceptional_lookup
from .gradings import (check_02, check_04, check_4k2, decompose,
                       decompose_classical, grading_grid, upsilon)
from .involutions import catalog, pair_by_descriptor
from .orbits import (ClassicalOrbit, Partition, centralizer_dims,
                     is_divisible, is_even, half_orbit)
from .oracle import (centralizer_dim, ker_ad_squared, oracle_sizes,
                     triple_from_partition)
from .roots import SimpleType
from .verify import SUITES, run_suite


class UsageError(ValueError):
    pass


def _matrix_name(text: str) -> tuple[str, int] | None:
    """(kind, n) of a matrix name such as 'sl6', 'so10', 'sp8'; None for
    anything else."""
    kind, size = text[:2].lower(), text[2:]
    return (kind, int(size)) if kind in ("sl", "so", "sp") and \
        size.isdecimal() else None


# matrix names of small rank that have no Cartan label of their own kind
_SMALL_AMBIENTS = {("so", 3): "is isomorphic to sp2 = sl2: use A1 or sl2",
                   ("sp", 2): "is sl2: use A1 or sl2",
                   ("so", 4): "= A1xA1 is not simple",
                   ("so", 6): "is isomorphic to sl4: use A3 or sl4"}


def parse_ambient(text: str) -> SimpleType:
    """The simple type named by 'E6', 'B4', 'sl6', 'so10', 'sp8' and so
    on."""
    text = text.strip()
    amb = _matrix_name(text)
    if amb in _SMALL_AMBIENTS:
        raise UsageError(f"{text} {_SMALL_AMBIENTS[amb]}; 'nilorbits oracle "
                         f"{text} <partition>' takes its orbits by Jordan "
                         f"type")
    if amb is None:
        return SimpleType.parse(text)
    try:
        return SimpleType.of_ambient(*amb)
    except ValueError:
        raise UsageError(f"{text} names no simple type: sl_n needs n >= 2, "
                         "so_n n = 5 or n >= 7, sp_n even n >= 4") from None


def parse_pair(text: str):
    if "/" not in text:
        raise UsageError(f"pair descriptor must look like E6/C4, "
                         f"got {text!r}")
    amb_text, g0 = text.split("/", 1)
    diagram = g0.endswith("-diagram")
    if diagram:
        g0 = g0[: -len("-diagram")]
    pair = pair_by_descriptor(parse_ambient(amb_text), g0)
    if diagram and pair.inner:
        raise UsageError(f"{pair} is inner, not a diagram involution")
    return pair


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def cmd_wdd(args) -> int:
    t = parse_ambient(args.type)
    if t.ambient is None:
        rec = exceptional_lookup(t, args.partition)
        text = (f"{t} orbit {rec.label}\n{rec.wdd.render()}\n"
                f"dim g^e = {rec.dim_centralizer}, red = {rec.red}, "
                f"nil = {rec.dim_nil}")
        _emit(args, {"orbit": rec.label, "wdd": rec.wdd.to_json(),
                     "dim_centralizer": rec.dim_centralizer,
                     "red": str(rec.red), "dim_nil": rec.dim_nil}, text)
        return 0
    orbit = ClassicalOrbit(*t.ambient, Partition.parse(args.partition))
    wdd = orbit.wdd
    total, red, nil = centralizer_dims(orbit)
    divisible = is_divisible(orbit)
    lines = [f"{orbit} in type {t}", wdd.render(),
             f"labels: {wdd.labels}",
             f"dim g^e = {total}, red = {orbit.red} "
             f"(dim {red}), nil = {nil}",
             f"even: {is_even(orbit)}, divisible: {divisible}"]
    if divisible:
        lines.append(f"half orbit: {half_orbit(orbit).partition}")
    _emit(args, {"orbit": str(orbit), "wdd": wdd.to_json(),
                 "dim_centralizer": total, "red": str(orbit.red),
                 "dim_red": red, "dim_nil": nil,
                 "even": is_even(orbit), "divisible": divisible},
          "\n".join(lines))
    return 0


def cmd_grade(args) -> int:
    pair = parse_pair(args.pair)
    if args.partition:
        if pair.g.ambient is None:
            raise UsageError("explicit partitions apply to classical "
                             "ambients only")
        pd = decompose_classical(pair, list(map(Partition.parse,
                                                args.partition)))
    else:
        pd = decompose(pair)
    mg = grading_grid(pd)
    flags = {"d0(0)=d1(2)": check_02(mg), "d0(0)=d1(4)": check_04(mg),
             "d0(4k+2)=d1(4k+2)": check_4k2(mg)}
    orbit = pd.orbit.label
    text = (f"{pair}  e: {orbit}\n"
            f"M0 = {pd.m0}\nM1 = {pd.m1}\n{mg.render()}\n"
            + "  ".join(f"{k}: {v}" for k, v in flags.items()))
    _emit(args, {"pair": pair.to_json(), "orbit": orbit,
                 "m0": pd.m0.to_json(), "m1": pd.m1.to_json(),
                 "grid": mg.to_json(), "flags": flags}, text)
    return 0


def cmd_upsilon(args) -> int:
    pair = parse_pair(args.pair)
    u = upsilon(decompose(pair))
    text = (f"sigma       = {pair}\n"
            f"sigma-check = {u.sigma_check}  "
            f"[Sat {u.sigma_check.satake.render()}]\n"
            f"product     = {u.sigma_sigma_check}  "
            f"[Sat {u.sigma_sigma_check.satake.render()}]")
    _emit(args, u.to_json(), text)
    return 0


def cmd_catalog(args) -> int:
    t = parse_ambient(args.type)
    pairs = catalog(t)
    rows = []
    for p in pairs:
        rows.append(f"{p.descriptor:14s} dim g0 = {p.dim_g0:4d}  "
                    f"{'inner' if p.inner else 'outer'}  "
                    f"{'IBN ' if p.satake.ibn else '    '} "
                    f"{p.satake.render()}")
    _emit(args, {"type": t.to_json(),
                 "pairs": [p.to_json() for p in pairs]},
          "\n".join(rows))
    return 0


def cmd_oracle(args) -> int:
    # the oracle needs only (kind, n): so3, so4, so6 and sp2 are taken by
    # matrix size, although SimpleType rejects B1, D2, D3 and C1
    text = args.type.strip()
    amb = _matrix_name(text) or SimpleType.parse(text).ambient
    if amb is None:
        raise UsageError("the matrix oracle covers classical types only")
    kind, n = amb
    if n not in oracle_sizes(n)[kind]:
        raise UsageError(f"the matrix oracle does not realise {kind}{n}")
    orbit = ClassicalOrbit(kind, n, Partition.parse(args.partition))
    triple = triple_from_partition(kind, n, orbit.partition)
    rel = triple.check_relations()
    z = centralizer_dim(triple)
    k2 = ker_ad_squared(triple)
    text = (f"{orbit}: triple relations {'ok' if rel else 'FAILED'}, "
            f"dim z(e) = {z} (formula {centralizer_dims(orbit)[0]}), "
            f"dim ker(ad e)^2 = {k2}")
    _emit(args, {"orbit": str(orbit), "relations_ok": rel,
                 "centralizer": z, "ker_ad_squared": k2}, text)
    return 0


def cmd_verify(args) -> int:
    if args.max_rank < 1:
        raise UsageError(f"--max-rank must be at least 1, got {args.max_rank}")
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        rep = run_suite(name, max_rank=args.max_rank)
        reports.append(rep)
        if not args.json:
            print(rep.render(verbose=args.verbose))
    if args.json:
        print(json.dumps([r.to_json() for r in reports], indent=2))
    # a suite with no cases is not ok: it verified nothing
    return 0 if all(r.ok for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nilorbits",
        description="nilpotent orbits, mixed gradings and involutions, "
                    "in exact arithmetic")
    ap.add_argument("--json", action="store_true",
                    help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wdd", aliases=["orbit"],
                       help="weighted diagram and orbit facts")
    p.add_argument("type")
    p.add_argument("partition",
                   help="partition literal like '(5,3,1)', or a label like "
                        "'E6(a1)' for exceptional types")
    p.set_defaults(func=cmd_wdd)

    p = sub.add_parser("grade", help="mixed grading grid of a pair")
    p.add_argument("pair", help="for example E6/C4 or so10/gl5")
    p.add_argument("partition", nargs="*",
                   help="optional Jordan types of e, one per factor of g0 "
                        "in the order the pair lists them")
    p.set_defaults(func=cmd_grade)

    p = sub.add_parser("upsilon", help="derived involution classes")
    p.add_argument("pair")
    p.set_defaults(func=cmd_upsilon)

    p = sub.add_parser("catalog", help="involution classes of a type")
    p.add_argument("type")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("oracle", help="matrix-level spot checks")
    p.add_argument("type")
    p.add_argument("partition")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all",
                   choices=sorted(SUITES) + ["all"])
    p.add_argument("--verbose", action="store_true",
                   help="print passing cases too")
    p.add_argument("--max-rank", type=int, default=8,
                   help="rank bound of the sweeps; grids, kappa (rank <= "
                   "12) and oracle (n <= 9) keep fixed bounds, and tables "
                   "(exceptional rows and labels), divisible (sl_n with "
                   "n <= 9, E grids) and upsilon (Table 3 to rank 8, B6) "
                   "keep fixed-bound cases at any bound")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as ex:
        # str() of a KeyError is the repr of its message, quotes and all
        print(f"error: {ex.args[0] if ex.args else ex}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so that the flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output ended",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
