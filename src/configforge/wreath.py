"""Exact arithmetic in the wreath product Z wr Z.

An element is a pair (base, shift): ``base`` lies in the restricted direct
sum of countably many copies of Z (a finitely supported map from integer
indices to integer coefficients) and ``shift`` is the acting copy of Z.
Multiplication follows the semidirect-product law

    (a, s) * (b, t) = (a + s.b, s + t)

where ``s.b`` translates every index in the support of ``b`` by ``s``.
Conjugating x = (b, t) by h = (a, s) follows from it in closed form:

    h x h^-1 = (s.b + a - t.a, t)

Coefficients and shifts are unbounded Python integers; every operation is
exact.

Base elements double as integer Laurent polynomials (index = exponent).
Two elements (w, s) and (v, t) commute exactly when

    v * (1 - x^s) = w * (1 - x^t)

in that ring.  A Laurent polynomial is a multiple of 1 - x^t exactly when
its coefficients sum to zero along each residue class mod |t|, so every
centralizer question asked here is answered by folding bases onto Z/|t|
and summing along those classes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import gcd
from typing import Callable, Iterable, Optional, TypeVar, Union

BasePairs = Iterable[tuple[int, int]]
T = TypeVar("T")


class WreathElement:
    """Immutable group element (base, shift) in canonical form.

    The base is stored as a tuple of (index, coefficient) pairs, sorted by
    index, with no zero coefficients, so equality and hashing are
    structural.  The constructor puts any input into that form: duplicate
    indices are summed, zero coefficients dropped and the pairs sorted.
    Operations on canonical operands skip it where the result's order is
    known: a translate or negation (``inverse``, a product or conjugate
    with an empty base on one side), a power's translates laid out in
    order when they are disjoint (``**``), and the few terms of a small
    conjugator added into the argument one by one (``conjugate``).
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
        # most products that analyze builds have an operand with an empty
        # base (an identity or a pure shift); those need no merge
        if not other.base:
            return _trusted(self.base, s + other.shift)
        if not self.base:
            return _trusted(_translate(other.base, s), s + other.shift)
        return WreathElement(chain(self.base, ((i + s, c) for i, c in other.base)),
                             s + other.shift)

    def inverse(self) -> "WreathElement":
        s = self.shift
        return _trusted(tuple([(i - s, -c) for i, c in self.base]), -s)

    def conjugate(self, x: "WreathElement") -> "WreathElement":
        """h x h^-1 for h = self, in closed form.

        For h = (a, s) and x = (b, t) that is (s.b + a (1 - x^t), t).  An
        identity conjugator or argument returns ``x`` itself, and when
        a = 0 or t = 0 the result is the translate s.b, canonical already.
        Otherwise the 2|a| terms of a (1 - x^t) are added into s.b one by
        one while a has few terms, and merged by the constructor past that.
        """
        a, s = self.base, self.shift
        b, t = x.base, x.shift
        if not a and not s or not b and not t:
            return x
        if not a or not t:
            return _trusted(_translate(b, s), t)
        if len(a) <= _INSERT_MAX_TERMS:
            return _trusted(_add_terms([(i + s, c) for i, c in b],
                                       chain(a, [(i + t, -c) for i, c in a])), t)
        return WreathElement(chain(((i + s, c) for i, c in b), a,
                                   ((i + t, -c) for i, c in a)), t)

    def __pow__(self, exponent: int) -> "WreathElement":
        if self.shift == 0:
            return WreathElement([(i, c * exponent) for i, c in self.base])
        factor = self if exponent >= 0 else self.inverse()
        b, s, k = factor.base, factor.shift, abs(exponent)
        # (b, s)^k = (b + s.b + ... + (k-1)s.b, k s)
        if b and abs(s) > b[-1][0] - b[0][0]:
            # the translates are disjoint: lay them out in index order
            steps = range(k) if s > 0 else range(k - 1, -1, -1)
            return _trusted(tuple([(i + j * s, c) for j in steps for i, c in b]), s * k)
        return WreathElement([(i + j * s, c) for i, c in b for j in range(k)], s * k)

    def commutes_with(self, other: "WreathElement") -> bool:
        # (w, s) and (v, t) commute iff v (1 - x^s) = w (1 - x^t)
        return (_base_difference(other.base, self.shift)
                == _base_difference(self.base, other.shift))

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
        if not _is_int(shift):
            raise ValueError(f"element needs an integer 'shift', got {_excerpt(shift)}")
        return WreathElement(_entries("'base'", "base entry", data.get("base"), _base_pair),
                             shift)


def _base_pair(entry: object) -> tuple[int, int]:
    if (not isinstance(entry, (list, tuple)) or len(entry) != 2
            or not _is_int(entry[0]) or not _is_int(entry[1])):
        raise ValueError(f"expected [index, coefficient], got {_excerpt(entry)}")
    return entry[0], entry[1]


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _excerpt(value: object) -> str:
    """``repr`` of an input value for an error message, cut to 80
    characters so that a huge entry is not copied whole to stderr."""
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def _entries(field: str, what: str, raw: object, parse: Callable[[object], T]) -> list[T]:
    """``parse`` of each entry of the JSON list ``raw``, a non-list being
    refused by its ``field`` name.  A ``ValueError`` on entry i is re-raised
    prefixed ``{what} {i}: ``, so nested positions read outermost first."""
    if not isinstance(raw, list):
        raise ValueError(f"{field} must be a list, got {_excerpt(raw)}")
    parsed = []
    try:
        for position, entry in enumerate(raw):
            parsed.append(parse(entry))
    except ValueError as exc:
        raise ValueError(f"{what} {position}: {exc}") from None
    return parsed


def _trusted(base: tuple[tuple[int, int], ...], shift: int) -> WreathElement:
    """Element over a base already in canonical form (sorted, no zeros).

    Skips the constructor's merge; only for bases canonical by
    construction, such as a translate or negation of a canonical base.
    """
    element = object.__new__(WreathElement)
    element.base = base
    element.shift = shift
    return element


# most base terms of a conjugator that ``conjugate`` adds into its argument
# one by one.  Each addition is a bisect and a list insert that may move the
# argument's whole list, so two large operands would cost the product of
# their sizes; past a few terms the constructor's one merge is as fast even
# on small arguments
_INSERT_MAX_TERMS = 8


def _add_terms(out: list[tuple[int, int]], terms: BasePairs) -> tuple[tuple[int, int], ...]:
    """The canonical base ``out``, a list it consumes, plus a few nonzero
    ``terms``, canonical.

    Each term is summed into the pair at its index, which is deleted when
    it cancels, or else inserted in index order.
    """
    for i, c in terms:
        p = bisect_left(out, (i,))  # (i,) sorts before every (i, c)
        if p < len(out) and out[p][0] == i:
            c += out[p][1]
            if c:
                out[p] = (i, c)
            else:
                del out[p]
        else:
            out.insert(p, (i, c))
    return tuple(out)


def _translate(base: tuple[tuple[int, int], ...], offset: int) -> tuple[tuple[int, int], ...]:
    """The base shifted by ``offset``; translation keeps it canonical."""
    if not offset:
        return base
    return tuple([(i + offset, c) for i, c in base])


IDENTITY = WreathElement()


def delta(index: int, coeff: int = 1) -> WreathElement:
    """Base element with a single coefficient at ``index`` and shift zero."""
    return WreathElement([(index, coeff)], 0)


@dataclass(frozen=True, slots=True)
class ConjugationAut:
    """Edge label: the inner automorphism x -> h x h^-1 of Z wr Z.

    The center of Z wr Z is trivial, so the conjugator determines the
    automorphism; equality and hashing go through it.  Applying it is
    ``WreathElement.conjugate``.
    """

    conjugator: WreathElement = IDENTITY

    def __post_init__(self):
        if not isinstance(self.conjugator, WreathElement):
            raise ValueError(f"conjugator {_excerpt(self.conjugator)} is not a WreathElement")

    def __call__(self, x: WreathElement) -> WreathElement:
        return self.conjugator.conjugate(x)

    def inverse(self) -> "ConjugationAut":
        return ConjugationAut(self.conjugator.inverse())


IDENTITY_AUT = ConjugationAut()

FULL_FACTOR = "FullFactor"
CYCLIC = "Cyclic"
BASE_NOT_FG = "BaseNotFG"
TRIVIAL = "Trivial"
# aliases kept for callers of the earlier names
WHOLE_GROUP = FULL_FACTOR
BASE_ONLY = BASE_NOT_FG


@dataclass(frozen=True)
class CentralizerClass:
    """The subgroup of Z wr Z that a component's root ranges over.

    FullFactor: no constraint at all, the centralizer is the full group.
    Cyclic:     C(head) for a ``head`` of nonzero shift, infinite cyclic
                (with no head, the trivial group); decided without a
                generator, which ``generator`` builds on first use.
    BaseNotFG:  the whole free abelian base, hence not finitely generated.
    Trivial:    a pinned component's root, the identity only.

    Any other tag is refused.  Every class but BaseNotFG is finitely
    generated.
    """

    tag: str
    head: Optional[WreathElement] = None

    def __post_init__(self):
        if self.tag not in (FULL_FACTOR, CYCLIC, BASE_NOT_FG, TRIVIAL):
            raise ValueError(f"unknown centralizer class {_excerpt(self.tag)}")
        if self.head is not None and (self.tag != CYCLIC or not self.head.shift):
            raise ValueError("only a Cyclic class has a head, and its shift is nonzero")

    @property
    def finitely_generated(self) -> bool:
        return self.tag != BASE_NOT_FG

    @property
    def is_trivial(self) -> bool:
        """Whether the class is the trivial group: Trivial, or Cyclic with
        no head."""
        return self.tag == TRIVIAL or self.tag == CYCLIC and self.head is None

    @cached_property
    def generator(self) -> Optional[WreathElement]:
        """The generator of a Cyclic or Trivial class (the identity if the
        class is trivial), else None."""
        if self.head is not None:
            return cyclic_centralizer_generator(self.head)
        return IDENTITY if self.is_trivial else None

    def contains(self, x: WreathElement) -> bool:
        """Membership predicate of the classified subgroup."""
        if self.tag == FULL_FACTOR:
            return True
        if self.tag == BASE_NOT_FG:
            return x.shift == 0
        return x.is_identity if self.head is None else self.head.commutes_with(x)

    def edge_holds(self, a_src: WreathElement, h: WreathElement, a_dst: WreathElement) -> bool:
        """Whether g = a_dst^-1 h a_src commutes with every element of the
        class.

        This is the edge g_dst = h g_src h^-1 of a component whose root
        ranges over the class, with tree conjugators a_src and a_dst at
        its endpoints: a member puts a_v r a_v^-1 at v for a root value r.
        FullFactor (the whole group, whose centre is trivial) asks g = 1,
        that is h a_src = a_dst.  BaseNotFG (the base) asks g to have
        shift 0, and shifts add under multiplication.  Cyclic C(head) is
        abelian and holds the head, so g commutes with all of it exactly
        when it commutes with the head.  The trivial group commutes with
        everything.
        """
        tag = self.tag
        if tag == FULL_FACTOR:
            return h * a_src == a_dst
        if tag == BASE_NOT_FG:
            return h.shift + a_src.shift == a_dst.shift
        return self.head is None or self.head.commutes_with(a_dst.inverse() * h * a_src)


# the classes that carry no data, shared by every classification and report
_FULL_FACTOR_CLASS = CentralizerClass(FULL_FACTOR)
_BASE_NOT_FG_CLASS = CentralizerClass(BASE_NOT_FG)
_TRIVIAL_CYCLIC_CLASS = CentralizerClass(CYCLIC)
_TRIVIAL_CLASS = CentralizerClass(TRIVIAL)

# most terms a centralizer generator may have; the shift and the distance
# between two indices of a constraint, not its encoded size, set the count
MAX_GENERATOR_TERMS = 1 << 20


def _base_difference(base: tuple[tuple[int, int], ...],
                     offset: int) -> tuple[tuple[int, int], ...]:
    """The Laurent product base * (1 - x^offset), canonical."""
    return WreathElement(chain(base, ((i + offset, -c) for i, c in base))).base


def cyclic_centralizer_generator(h: WreathElement) -> WreathElement:
    """Generator, with least positive shift, of the centralizer of ``h``.

    For h = (v, t), t != 0, pass to H = (V, u), which is h if t > 0 and
    h^-1 if t < 0: both have the same centralizer, and u = |t|.  (w, d)
    commutes with H exactly when 1 - x^u divides V (1 - x^d), that is when
    V folded onto Z/u has period d.  So d is the fold's least period.  A
    period carries one folded residue r0 onto some r of the fold's
    support, so the candidates are gcd(u, r - r0); r = r0 gives u, which
    always qualifies, and an empty fold has period 1.  The base
    w = V (1 - x^d) / (1 - x^u) is the running sum of D = V (1 - x^d)
    along each residue class mod u: w(i) = sum_{j >= 0} D(i - j u).
    A generator of more than ``MAX_GENERATOR_TERMS`` terms raises
    ``ValueError`` before its terms are built.
    """
    if h.shift == 0:
        raise ValueError("element must have nonzero shift")
    if h.shift < 0:
        h = h.inverse()
    u = h.shift
    fold: dict[int, int] = {}
    for i, c in h.base:
        fold[i % u] = fold.get(i % u, 0) + c
    fold = {r: c for r, c in fold.items() if c}
    d = 1
    if fold:
        r0 = next(iter(fold))
        d = next(p for p in sorted({gcd(u, r - r0) for r in fold})
                 if all(fold.get((r + p) % u) == c for r, c in fold.items()))
    classes: dict[int, list[tuple[int, int]]] = {}
    for i, c in _base_difference(h.base, d):
        classes.setdefault(i % u, []).append((i, c))
    runs: list[tuple[range, int]] = []  # indices sharing one running sum
    for terms in classes.values():
        total = 0
        for (i, c), (stop, _) in zip(terms, terms[1:]):
            total += c
            if total:
                runs.append((range(i, stop, u), total))
        if total + terms[-1][1]:
            raise AssertionError("a residue class of V (1 - x^d) does not sum to zero")
    if sum(len(run) for run, _ in runs) > MAX_GENERATOR_TERMS:
        raise ValueError(f"centralizer generator has more than {MAX_GENERATOR_TERMS} terms")
    return _trusted(tuple(sorted([(j, total) for run, total in runs for j in run])), d)


def classify_centralizer(elements: Iterable[WreathElement]) -> CentralizerClass:
    """Classify the joint centralizer of a finite set of elements.

    Only the identity is fixed by a nonzero shift acting on the base, so a
    nontrivial shift-zero constraint pins the centralizer inside the base,
    while any constraint with nonzero shift pins it inside an infinite
    cyclic group.  Mixing the two, or combining shifted constraints whose
    base data disagree as rational functions v / (1 - x^t), leaves only the
    identity.  Otherwise the shifted constraints all commute with the
    first one and share its centralizer, which the class keeps as its
    ``head``; no generator is built.
    """
    nontrivial = [g for g in elements if not g.is_identity]
    if not nontrivial:
        return _FULL_FACTOR_CLASS
    shifted = [g for g in nontrivial if g.shift != 0]
    if not shifted:
        # each constraint is a nontrivial base element, whose centralizer
        # is exactly the base; intersections of the base are the base
        return _BASE_NOT_FG_CLASS
    head = shifted[0]
    if len(shifted) < len(nontrivial) or not all(head.commutes_with(g) for g in shifted[1:]):
        return _TRIVIAL_CYCLIC_CLASS
    # every g now lies in C(head), which is infinite cyclic (it embeds in Z
    # through the shift); a nonzero power of its generator has that same
    # centralizer, so all the shifted constraints cut out C(head)
    return CentralizerClass(CYCLIC, head)


def in_free_abelian_span(target: WreathElement,
                         generators: Iterable[WreathElement]) -> bool:
    """Decide whether ``target`` lies in the subgroup of the free abelian
    base generated by ``generators``.

    All inputs must have shift zero.  A target nonzero at an index where
    every generator is zero is outside the span, decided before any
    elimination.  Otherwise restricts to the generators' support and
    builds a Hermite normal form of the generated lattice, one generator at
    a time.  ``rows[j]`` is the basis row whose first nonzero entry is at
    column j (the echelon form).  At each nonzero column j of an entering
    vector, Euclid's steps run against ``rows[j]`` (a missing row is the
    zero row) until the vector is zero there.  The row left at j is
    reduced at the pivot columns after j as they stand, so that when it is
    stored each of its entries there lies between 0 and that pivot; the
    vector goes on to the next column.  The target is in the span exactly
    when the same reduction, from column 0, leaves it zero.
    """
    generators = list(generators)
    if target.shift or any(g.shift for g in generators):
        raise ValueError("span membership is defined on base elements only")
    support = sorted({i for g in generators for i, _ in g.base})
    position = {index: p for p, index in enumerate(support)}
    if any(i not in position for i, _ in target.base):
        return False
    width = len(support)
    rows: dict[int, list[int]] = {}

    def vector(element: WreathElement) -> list[int]:
        vec = [0] * width
        for i, c in element.base:
            vec[position[i]] = c
        return vec

    def subtract(vec: list[int], row: list[int], j: int) -> None:
        # vec -= q row, q the floor quotient at column j; row is zero before j
        q = vec[j] // row[j]
        for p in range(j, width):
            vec[p] -= q * row[p]

    def reduce(vec: list[int], start: int) -> list[int]:
        for j in range(start, width):
            if vec[j] and j in rows:
                subtract(vec, rows[j], j)
        return vec

    for g in generators:
        vec = vector(g)
        for j in range(width):
            if vec[j]:
                row = rows.get(j) or [0] * width
                while vec[j]:
                    row, vec = vec, row
                    subtract(vec, row, j)
                rows[j] = reduce(row, j + 1)
    return not any(reduce(vector(target), 0))
