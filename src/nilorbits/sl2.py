"""Multiset arithmetic of finite-dimensional sl2-modules.

A module is a multiset of non-negative highest weights: R(k) denotes the
irreducible of dimension k+1.  Tensor products follow Clebsch--Gordan,
    R(a) x R(b) = R(a+b) + R(a+b-2) + ... + R(|a-b|),
and the symmetric/exterior squares of an irreducible descend in steps of 4:
    Sym^2 R(m) = R(2m) + R(2m-4) + ...,   Alt^2 R(m) = R(2m-2) + R(2m-6) + ...
Both extend to sums via  F(A+B) = F(A) + F(B) + A x B.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from types import MappingProxyType


class NegativeMultiplicityError(ValueError):
    """Raised when a virtual difference of modules is not a true module."""


class SL2Module:
    """An isomorphism class of finite-dimensional sl2-representations.

    ``mult`` maps each highest weight to its multiplicity, in increasing
    weight order.  It is a read-only view: modules are shared through the
    per-process caches of ``gradings``, so none may change in place.
    """

    __slots__ = ("mult",)

    def __init__(self, mult: Mapping[int, int] | Iterable[int] = ()):
        table: dict[int, int] = {}
        items = mult.items() if isinstance(mult, Mapping) else \
            ((w, 1) for w in mult)
        for w, m in items:
            if w < 0 or w != int(w):
                raise ValueError(f"highest weight must be a non-negative "
                                 f"integer, got {w}")
            if m:
                table[w] = table.get(w, 0) + m
        for w, m in list(table.items()):
            if m < 0:
                raise NegativeMultiplicityError(
                    f"multiplicity of R{w} is {m}")
            if m == 0:
                del table[w]
        object.__setattr__(self, "mult",
                           MappingProxyType(dict(sorted(table.items()))))

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def parse(text: str) -> "SL2Module":
        """Parse the text form, e.g. 'R2+R6+2*R10' or '2R4+R0'."""
        table: dict[int, int] = {}
        for piece in text.replace(" ", "").split("+"):
            m = re.fullmatch(r"(?:(\d+)\*?)?R(\d+)", piece)
            if not m:
                raise ValueError(f"cannot parse sl2-module term {piece!r}")
            c = int(m.group(1) or 1)
            w = int(m.group(2))
            table[w] = table.get(w, 0) + c
        return SL2Module(table)

    # -- basic structure -----------------------------------------------------

    def __bool__(self):
        return bool(self.mult)

    def __eq__(self, other):
        return isinstance(other, SL2Module) and self.mult == other.mult

    def __hash__(self):
        return hash(tuple(self.mult.items()))

    def __repr__(self):
        return f"SL2Module({self})"

    def __str__(self):
        if not self.mult:
            return "0"
        return "+".join(f"R{w}" if m == 1 else f"{m}*R{w}"
                        for w, m in self.mult.items())

    @property
    def dim(self) -> int:
        return sum(m * (w + 1) for w, m in self.mult.items())

    @property
    def max_weight(self) -> int:
        return max(self.mult, default=0)

    def weights_all_even(self) -> bool:
        return all(w % 2 == 0 for w in self.mult)

    def weights_all_odd(self) -> bool:
        return all(w % 2 == 1 for w in self.mult)

    def to_json(self) -> dict[str, int]:
        return {str(w): m for w, m in self.mult.items()}

    # -- additive structure --------------------------------------------------

    def __add__(self, other: "SL2Module") -> "SL2Module":
        table = dict(self.mult)
        for w, m in other.mult.items():
            table[w] = table.get(w, 0) + m
        return SL2Module(table)

    def __rmul__(self, k: int) -> "SL2Module":
        if k < 0:
            raise NegativeMultiplicityError("negative scalar multiple")
        return SL2Module({w: k * m for w, m in self.mult.items()})

    __mul__ = __rmul__

    def subtract(self, other: "SL2Module") -> "SL2Module":
        """Difference that must again be a true module."""
        table = dict(self.mult)
        for w, m in other.mult.items():
            table[w] = table.get(w, 0) - m
        return SL2Module(table)

    # -- representation-theoretic operations ---------------------------------

    def signed_count(self) -> int:
        """Sum of (-1)^k over the summands R(2k): the trace of i^h, which
        acts by (-1)^j on the h-eigenspace of eigenvalue 2j."""
        if not self.weights_all_even():
            raise ValueError("signed counts require an even module")
        return sum((-1) ** (w // 2) * m for w, m in self.mult.items())


def R(k: int) -> SL2Module:
    """The irreducible module with highest weight k (dimension k+1)."""
    return SL2Module({k: 1})


def _add_tensor(table: dict[int, int], wa: int, wb: int, c: int) -> None:
    """Add c * R(wa) x R(wb) to table, by Clebsch--Gordan."""
    for w in range(abs(wa - wb), wa + wb + 1, 2):
        table[w] = table.get(w, 0) + c


def tensor(a: SL2Module, b: SL2Module) -> SL2Module:
    table: dict[int, int] = {}
    for wa, ma in a.mult.items():
        for wb, mb in b.mult.items():
            _add_tensor(table, wa, wb, ma * mb)
    return SL2Module(table)


def _square(a: SL2Module, offset: int) -> SL2Module:
    """Common core of sym2 (offset 0) and alt2 (offset 2)."""
    table: dict[int, int] = {}
    weights = list(a.mult.items())
    for idx, (w, m) in enumerate(weights):
        for k in range(2 * w - offset, -1, -4):
            table[k] = table.get(k, 0) + m
        if m > 1:  # mixed terms between equal copies
            _add_tensor(table, w, w, m * (m - 1) // 2)
        for w2, m2 in weights[idx + 1:]:
            _add_tensor(table, w, w2, m * m2)
    return SL2Module(table)


def sym2(a: SL2Module) -> SL2Module:
    return _square(a, 0)


def alt2(a: SL2Module) -> SL2Module:
    return _square(a, 2)
