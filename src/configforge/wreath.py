"""Exact arithmetic in the wreath product Z wr Z.

An element is a pair (base, shift): ``base`` lies in the restricted direct
sum of countably many copies of Z (a finitely supported map from integer
indices to integer coefficients) and ``shift`` is the acting copy of Z.
Multiplication follows the semidirect-product law

    (a, s) * (b, t) = (a + s.b, s + t)

where ``s.b`` translates every index in the support of ``b`` by ``s``.
Coefficients and shifts are unbounded Python integers; every operation is
exact.

Base elements double as integer Laurent polynomials (index = exponent).
Two elements (w, s) and (v, t) commute exactly when

    v * (1 - x^s) = w * (1 - x^t)

in that ring, which reduces every centralizer question asked here to exact
polynomial division by 1 - x^t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Union

BasePairs = Iterable[tuple[int, int]]


class WreathElement:
    """Immutable group element (base, shift) in canonical form.

    The base is stored as a tuple of (index, coefficient) pairs, sorted by
    index, with no zero coefficients, so equality and hashing are
    structural.  The constructor is the one place a base is put into that
    form: duplicate indices are summed, zero coefficients dropped and the
    pairs sorted.
    """

    __slots__ = ("base", "shift")

    def __init__(self, base: Union[dict[int, int], BasePairs] = (), shift: int = 0):
        items = base.items() if isinstance(base, dict) else base
        acc: dict[int, int] = {}
        for index, coeff in items:
            total = acc.get(index, 0) + coeff
            if total:
                acc[index] = total
            elif index in acc:
                del acc[index]
        self.base: tuple[tuple[int, int], ...] = tuple(sorted(acc.items()))
        self.shift: int = shift

    @property
    def is_identity(self) -> bool:
        return not self.base and self.shift == 0

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        if not isinstance(other, WreathElement):
            return NotImplemented
        s = self.shift
        return WreathElement(chain(self.base, ((i + s, c) for i, c in other.base)),
                             s + other.shift)

    def inverse(self) -> "WreathElement":
        s = self.shift
        return WreathElement([(i - s, -c) for i, c in self.base], -s)

    def __pow__(self, exponent: int) -> "WreathElement":
        factor = self if exponent >= 0 else self.inverse()
        result = IDENTITY
        for _ in range(abs(exponent)):
            result = result * factor
        return result

    def commutes_with(self, other: "WreathElement") -> bool:
        return self * other == other * self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WreathElement):
            return NotImplemented
        return self.base == other.base and self.shift == other.shift

    def __hash__(self) -> int:
        return hash((self.base, self.shift))

    def __repr__(self) -> str:
        return f"WreathElement({dict(self.base)!r}, shift={self.shift!r})"

    def to_json(self) -> dict:
        return {"base": [[i, c] for i, c in self.base], "shift": self.shift}

    @staticmethod
    def from_json(data: dict) -> "WreathElement":
        if not isinstance(data, dict):
            raise ValueError("element must be an object with 'base' and 'shift'")
        shift = data.get("shift")
        pairs_raw = data.get("base")
        if not _is_int(shift) or not isinstance(pairs_raw, list):
            raise ValueError("element needs an integer 'shift' and a 'base' list")
        pairs = []
        for entry in pairs_raw:
            if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                    or not _is_int(entry[0]) or not _is_int(entry[1])):
                raise ValueError(f"bad base entry: {entry!r}")
            pairs.append((entry[0], entry[1]))
        return WreathElement(pairs, shift)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


IDENTITY = WreathElement()


def delta(index: int, coeff: int = 1) -> WreathElement:
    """Base element with a single coefficient at ``index`` and shift zero."""
    return WreathElement([(index, coeff)], 0)


class ConjugationAut:
    """Inner automorphism x -> h x h^-1 of Z wr Z.

    The center of Z wr Z is trivial, so the conjugator determines the
    automorphism; equality and hashing go through it.  Composition
    multiplies conjugators: (phi_a . phi_b) = phi_{a b}.
    """

    __slots__ = ("conjugator",)

    def __init__(self, conjugator: WreathElement = IDENTITY):
        self.conjugator = conjugator

    def __call__(self, x: WreathElement) -> WreathElement:
        h = self.conjugator
        return h * x * h.inverse()

    def __mul__(self, other: "ConjugationAut") -> "ConjugationAut":
        if not isinstance(other, ConjugationAut):
            return NotImplemented
        return ConjugationAut(self.conjugator * other.conjugator)

    def inverse(self) -> "ConjugationAut":
        return ConjugationAut(self.conjugator.inverse())

    @property
    def is_identity(self) -> bool:
        return self.conjugator.is_identity

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjugationAut):
            return NotImplemented
        return self.conjugator == other.conjugator

    def __hash__(self) -> int:
        return hash(("ConjugationAut", self.conjugator))

    def __repr__(self) -> str:
        return f"ConjugationAut({self.conjugator!r})"


IDENTITY_AUT = ConjugationAut()

FULL_FACTOR = "FullFactor"
CYCLIC = "Cyclic"
BASE_NOT_FG = "BaseNotFG"
# aliases kept for callers of the earlier names
WHOLE_GROUP = FULL_FACTOR
BASE_ONLY = BASE_NOT_FG


@dataclass(frozen=True)
class CentralizerClass:
    """Isomorphism type of a joint centralizer in Z wr Z.

    FullFactor: no constraint at all, the centralizer is the full group.
    Cyclic:     infinite cyclic (or trivial, generator = identity).
    BaseNotFG:  the whole free abelian base, hence not finitely generated.
    """

    tag: str
    generator: Optional[WreathElement] = None

    @property
    def finitely_generated(self) -> bool:
        return self.tag != BASE_NOT_FG

    def contains(self, x: WreathElement) -> bool:
        """Membership predicate of the classified subgroup."""
        if self.tag == FULL_FACTOR:
            return True
        if self.tag == BASE_NOT_FG:
            return x.shift == 0
        gen = self.generator
        if gen is None:
            raise ValueError("Cyclic class without generator")
        if gen.is_identity:
            return x.is_identity
        if gen.shift != 0:
            if x.shift % gen.shift:
                return False
            return gen ** (x.shift // gen.shift) == x
        # shift-zero generator: powers are integer multiples of the base
        if x.shift != 0:
            return False
        if x.is_identity:
            return True
        index, coeff = gen.base[0]
        target = dict(x.base).get(index, 0)
        if target % coeff:
            return False
        return gen ** (target // coeff) == x


def _base_difference(base: tuple[tuple[int, int], ...],
                     offset: int) -> tuple[tuple[int, int], ...]:
    """The Laurent product base * (1 - x^offset), canonical."""
    return WreathElement(chain(base, ((i + offset, -c) for i, c in base))).base


def _divide_one_minus(numerator: BasePairs, t: int) -> Optional[dict[int, int]]:
    """Exact Laurent quotient numerator / (1 - x^t), or None if not divisible.

    Requires t != 0.  Reduces to long division by the monic x^|t| - 1 after
    normalising the lowest exponent to zero; monicity keeps the division
    over Z exact, so only the remainder decides divisibility.
    """
    numerator = tuple(numerator)
    if not numerator:
        return {}
    u = abs(t)
    low = min(i for i, _ in numerator)
    poly = {i - low: c for i, c in numerator}
    quotient: dict[int, int] = {}
    while poly:
        e = max(poly)
        if e < u:
            return None
        c = poly.pop(e)
        quotient[e - u] = c
        r = poly.get(e - u, 0) + c
        if r:
            poly[e - u] = r
        else:
            poly.pop(e - u, None)
    if t > 0:
        # 1 - x^t = -(x^u - 1)
        return {i + low: -c for i, c in quotient.items()}
    # 1 - x^t = x^-u (x^u - 1)
    return {i + low + u: c for i, c in quotient.items()}


def cyclic_centralizer_generator(h: WreathElement) -> WreathElement:
    """Generator, with minimal positive shift, of the centralizer of ``h``.

    For h = (v, t) with t != 0 the projection of C(h) to the shift
    coordinate is injective with image d.Z for the smallest positive
    divisor d of |t| such that (1 - x^t) divides v (1 - x^d); the base of
    the generator is the quotient.  d = |t| always works, so this
    terminates.
    """
    if h.shift == 0:
        raise ValueError("element must have nonzero shift")
    size = abs(h.shift)
    for d in range(1, size + 1):
        if size % d:
            continue
        quotient = _divide_one_minus(_base_difference(h.base, d), h.shift)
        if quotient is not None:
            return WreathElement(quotient, d)
    raise AssertionError("unreachable: d = |shift| always divides")


def classify_centralizer(elements: Iterable[WreathElement]) -> CentralizerClass:
    """Classify the joint centralizer of a finite set of elements.

    Only the identity is fixed by a nonzero shift acting on the base, so a
    nontrivial shift-zero constraint pins the centralizer inside the base,
    while any constraint with nonzero shift pins it inside an infinite
    cyclic group.  Mixing the two, or combining shifted constraints whose
    base data disagree as rational functions v / (1 - x^t), leaves only the
    identity.
    """
    nontrivial = [g for g in elements if not g.is_identity]
    if not nontrivial:
        return CentralizerClass(FULL_FACTOR)
    shifted = [g for g in nontrivial if g.shift != 0]
    if not shifted:
        # each constraint is a nontrivial base element, whose centralizer
        # is exactly the base; intersections of the base are the base
        return CentralizerClass(BASE_NOT_FG)
    if len(shifted) < len(nontrivial):
        return CentralizerClass(CYCLIC, IDENTITY)
    head = shifted[0]
    for g in shifted[1:]:
        if _base_difference(head.base, g.shift) != _base_difference(g.base, head.shift):
            return CentralizerClass(CYCLIC, IDENTITY)
    step = math.lcm(*(cyclic_centralizer_generator(g).shift for g in shifted))
    quotient = _divide_one_minus(_base_difference(head.base, step), head.shift)
    if quotient is None:
        raise AssertionError("unreachable: step is a multiple of head's minimal shift")
    return CentralizerClass(CYCLIC, WreathElement(quotient, step))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with x a + y b = g = gcd(a, b) > 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def in_free_abelian_span(target: WreathElement,
                         generators: Iterable[WreathElement]) -> bool:
    """Decide whether ``target`` lies in the subgroup of the free abelian
    base generated by ``generators``.

    All inputs must have shift zero.  Restricts to the union of supports
    and keeps an integer row-echelon basis of the generated lattice
    (Hermite-style, extended-gcd row combinations), then tests whether the
    target reduces to zero.
    """
    generators = list(generators)
    if target.shift or any(g.shift for g in generators):
        raise ValueError("span membership is defined on base elements only")
    support = sorted({i for g in generators for i, _ in g.base}
                     | {i for i, _ in target.base})
    position = {index: p for p, index in enumerate(support)}
    width = len(support)

    pivot_rows: dict[int, list[int]] = {}
    for g in generators:
        vec = [0] * width
        for i, c in g.base:
            vec[position[i]] = c
        for j in range(width):
            if not vec[j]:
                continue
            row = pivot_rows.get(j)
            if row is None:
                pivot_rows[j] = vec
                break
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                for p in range(j, width):
                    vec[p] -= q * row[p]
            else:
                x, y, gcd = _xgcd(a, b)
                ag, bg = a // gcd, b // gcd
                for p in range(j, width):
                    rp, vp = row[p], vec[p]
                    row[p] = x * rp + y * vp
                    vec[p] = ag * vp - bg * rp

    vec = [0] * width
    for i, c in target.base:
        vec[position[i]] = c
    for j in range(width):
        if not vec[j]:
            continue
        row = pivot_rows.get(j)
        if row is None or vec[j] % row[j]:
            return False
        q = vec[j] // row[j]
        for p in range(j, width):
            vec[p] -= q * row[p]
    return True
