"""Subgroups of direct powers of Z wr Z cut out by conjugation constraints.

A SubgroupSpec over G^m is a labelled graph on the coordinates 1..m: each
edge (src, dst, phi) imposes g_dst = phi(g_src) for an inner automorphism
phi, each pin forces a coordinate to the identity.  Such sets are
subgroups (labels are homomorphisms) and are closed under intersection by
taking unions of constraints.

The analyzer walks each connected component with a breadth-first spanning
tree: every coordinate is the root value conjugated by a fixed tree
conjugator, and each remaining edge contributes a cycle-holonomy
conjugator at the root.  The component's solution set is the joint
centralizer of those holonomies, so its classification (and finite
generation) is decided exactly by ``classify_centralizer``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .wreath import (
    CYCLIC,
    FULL_FACTOR,
    IDENTITY,
    TRIVIAL,
    CentralizerClass,
    ConjugationAut,
    WreathElement,
    _TRIVIAL_CLASS,
    _entries,
    _excerpt,
    _is_int,
    _trusted,
    classify_centralizer,
    delta,
    in_free_abelian_span,
)


class Edge(NamedTuple):
    src: int
    dst: int
    label: ConjugationAut


def _getter(indices: Sequence[int]):
    """``itemgetter(*indices)``, returning a tuple also for 0 or 1 index."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        index = indices[0]
        return lambda values: (values[index],)
    return lambda values: ()


class SubgroupSpec:
    """Immutable constraint subgroup of G^m.

    The edges are stored exactly as given, in order.  A repeated
    constraint (the same edge again, or its reverse with the inverse
    label) closes a cycle whose holonomy is the identity, or repeats an
    earlier holonomy or its inverse, so it changes no analysis verdict.
    """

    __slots__ = ("m", "edges", "pins", "_hash", "_plan")

    def __init__(self, m: int, edges: Iterable[Edge] = (), pins: Iterable[int] = ()):
        if not _is_int(m) or m < 1:
            raise ValueError(f"ambient power m must be a positive integer, got {_excerpt(m)}")
        pins = tuple(pins)
        for position, p in enumerate(pins):
            if not _is_int(p) or not 1 <= p <= m:
                raise ValueError(f"pin {position}: {_excerpt(p)} out of range 1..{m}")
        edges = tuple(edges)
        for position, edge in enumerate(edges):
            src, dst = edge.src, edge.dst
            if not (_is_int(src) and _is_int(dst) and 1 <= src <= m and 1 <= dst <= m):
                raise ValueError(f"edge {position}: endpoints {_excerpt(src)}->{_excerpt(dst)} "
                                 f"must be integers in 1..{m}")
            if not isinstance(edge.label, ConjugationAut):
                raise ValueError(f"edge {position}: label {_excerpt(edge.label)} "
                                 "is not a ConjugationAut")
        self.m = m
        self.edges: tuple[Edge, ...] = edges
        self.pins = frozenset(pins)
        # analyze's cache hashes its argument on every lookup
        self._hash = hash((m, self.edges, self.pins))
        self._plan = None  # member's compiled checks, built on first use

    @classmethod
    def free(cls, m: int) -> "SubgroupSpec":
        """The whole ambient G^m (no constraints)."""
        return cls(m)

    @classmethod
    def fully_pinned(cls, m: int) -> "SubgroupSpec":
        """The trivial subgroup: every coordinate pinned to the identity."""
        return cls(m, (), range(1, m + 1))

    def intersect(self, *others: "SubgroupSpec") -> "SubgroupSpec":
        """Union of constraints; membership means membership in every spec.

        The edges are this spec's followed by each other's in argument
        order, so the result is the same as intersecting one spec at a time.
        """
        for other in others:
            if other.m != self.m:
                raise ValueError(f"mismatched ambient power: {self.m} vs {other.m}")
        return SubgroupSpec(self.m, [e for spec in (self, *others) for e in spec.edges],
                            self.pins.union(*(other.pins for other in others)))

    def member(self, values: Sequence[WreathElement]) -> bool:
        """Exact membership of a coordinate tuple.

        Every pin must hold the identity and every edge g_dst = phi(g_src).
        The pinned coordinates are gathered in one ``itemgetter`` call and
        compared with a tuple of ``IDENTITY``; an identity-labelled edge
        maps g_src to itself, so those edges compare the gathered sources
        with the gathered destinations.  Tuple equality compares item by
        item with ``==`` after an identity short-cut, which is
        ``WreathElement.__eq__`` on any two elements, so the verdict is that
        of testing each pin and edge in turn.  Only edges with a nontrivial
        label are tested one by one.  The getters are built on first use.
        """
        if len(values) != self.m:
            raise ValueError(f"tuple length {len(values)} != ambient power {self.m}")
        plan = self._plan
        if plan is None:
            plan = self._plan = self._member_plan()
        pinned, identities, sources, targets, twisted = plan
        if pinned(values) != identities or sources(values) != targets(values):
            return False
        for src, dst, h in twisted:
            x, y = values[dst], h.conjugate(values[src])
            if not (x is y or x == y):
                return False
        return True

    def _member_plan(self) -> tuple:
        pins = sorted(p - 1 for p in self.pins)
        plain = [e for e in self.edges if e.label.is_identity]
        return (_getter(pins), (IDENTITY,) * len(pins),
                _getter([e.src - 1 for e in plain]), _getter([e.dst - 1 for e in plain]),
                tuple((e.src - 1, e.dst - 1, e.label.conjugator)
                      for e in self.edges if not e.label.is_identity))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubgroupSpec):
            return NotImplemented
        return (self.m == other.m and self.edges == other.edges
                and self.pins == other.pins)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild on unpickling: member's plan holds lambdas, which do not pickle
        return SubgroupSpec, (self.m, self.edges, self.pins)

    def __repr__(self) -> str:
        return (f"SubgroupSpec(m={self.m}, edges={len(self.edges)}, "
                f"pins={sorted(self.pins)})")

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "edges": [
                {"src": e.src, "dst": e.dst, "conjugator": e.label.conjugator.to_json()}
                for e in self.edges
            ],
            "pins": sorted(self.pins),
        }

    @staticmethod
    def from_json(data: dict) -> "SubgroupSpec":
        if not isinstance(data, dict):
            raise ValueError("subgroup spec must be an object")
        pins = data.get("pins", [])
        if not isinstance(pins, list):
            raise ValueError(f"'pins' must be a list, got {_excerpt(pins)}")
        # the constructor checks m, the pins and the edge endpoints
        return SubgroupSpec(data.get("m"), _entries("'edges'", "edge", data.get("edges"), _edge),
                            pins)


def _edge(entry: object) -> Edge:
    if not isinstance(entry, dict):
        raise ValueError(f"expected an object, got {_excerpt(entry)}")
    conj = WreathElement.from_json(entry.get("conjugator"))
    return Edge(entry.get("src"), entry.get("dst"), ConjugationAut(conj))


class ComponentReport(NamedTuple):
    """Analysis of one connected component of the constraint graph.

    ``conjugators`` maps each node v to its spanning-tree conjugator a_v,
    which expresses its coordinate in terms of the root value r as
    g_v = a_v r a_v^-1; ``holonomy`` lists one
    conjugator per independent cycle, expressed at the root (the cycle of
    a repeated constraint gives the identity or a repeat).  ``centralizer``
    is the class the root ranges over, and the only record of it:
    ``classification`` is its tag and ``fg`` its finite-generation
    verdict.  A pinned component's class is Trivial, and its report
    carries no conjugators: its ``conjugators`` is empty and its
    ``holonomy`` is ``()``, since every coordinate is the identity.
    Reports are cached by ``analyze``, so they are immutable:
    ``conjugators`` is a read-only mapping, and a centralizer builds its
    generator once, on first use.
    """

    nodes: frozenset[int]
    root: int
    conjugators: Mapping[int, WreathElement]
    holonomy: tuple[WreathElement, ...]
    centralizer: CentralizerClass

    @property
    def classification(self) -> str:
        return self.centralizer.tag

    @property
    def fg(self) -> bool:
        return self.centralizer.finitely_generated

    @property
    def size(self) -> int:
        return len(self.nodes)


_NO_CONJUGATORS: Mapping[int, WreathElement] = MappingProxyType({})


@functools.lru_cache(maxsize=8192)
def _isolated(i: int, pinned: bool) -> ComponentReport:
    """Report of coordinate ``i`` when no edge names it, shared by every
    spec: Trivial if pinned, else a free copy of G."""
    if pinned:
        return ComponentReport(frozenset((i,)), i, _NO_CONJUGATORS, (), _TRIVIAL_CLASS)
    return ComponentReport(frozenset((i,)), i, MappingProxyType({i: IDENTITY}), (),
                           classify_centralizer(()))


@functools.lru_cache(maxsize=8192)
def analyze(spec: SubgroupSpec) -> tuple[ComponentReport, ...]:
    """Connected components, spanning trees, holonomies, classifications.

    Components are rooted at their smallest coordinate and discovered in
    ascending root order; the breadth-first tree visits neighbours in
    ascending index (ties by edge input order) and the remaining edges
    contribute holonomy conjugators in input order.  Each report's
    ``centralizer`` is the class its root ranges over.  A pinned
    component's is the shared Trivial class, recognised from its node set
    alone, before any conjugator is built; otherwise it is the joint
    centralizer of the holonomies: FullFactor (a free copy of G), Cyclic,
    or BaseNotFG (not finitely generated).

    Only coordinates that an edge names are walked.  Any other coordinate
    is a component of its own whose report depends on its index and on
    whether it is pinned alone, so ``_isolated`` builds it once and every
    spec shares that object; reports are immutable, so sharing is safe.
    """
    adjacency: dict[int, list[tuple[int, int, bool]]] = {}
    for k, e in enumerate(spec.edges):
        adjacency.setdefault(e.src, []).append((e.dst, k, True))
        if e.dst != e.src:
            adjacency.setdefault(e.dst, []).append((e.src, k, False))
    for lst in adjacency.values():
        if len(lst) > 1:
            lst.sort()  # (neighbour, edge) pairs are distinct within a list

    pins = spec.pins
    visited: set[int] = set()
    reports: list[ComponentReport] = []
    for root in range(1, spec.m + 1):
        if root not in adjacency:
            reports.append(_isolated(root, root in pins))
            continue
        if root in visited:
            continue
        visited.add(root)
        order = [root]  # breadth-first: the loop reads what it appends
        tree: list[tuple[int, int, int, bool]] = []  # (parent, child, edge, forward)
        met_edges: set[int] = set()
        for u in order:
            for v, k, forward in adjacency[u]:
                met_edges.add(k)
                if v not in visited:
                    visited.add(v)
                    order.append(v)
                    tree.append((u, v, k, forward))
        nodes = frozenset(order)
        if not nodes.isdisjoint(pins):
            reports.append(ComponentReport(nodes, root, _NO_CONJUGATORS, (), _TRIVIAL_CLASS))
            continue
        conj: dict[int, WreathElement] = {root: IDENTITY}
        for u, v, k, forward in tree:
            h = spec.edges[k].label.conjugator
            conj[v] = (h if forward else h.inverse()) * conj[u]
        met_edges.difference_update(k for _, _, k, _ in tree)
        holonomy = []
        for k in sorted(met_edges):
            e = spec.edges[k]
            holonomy.append(conj[e.dst].inverse() * e.label.conjugator * conj[e.src])
        reports.append(ComponentReport(nodes, root, MappingProxyType(conj), tuple(holonomy),
                                       classify_centralizer(holonomy)))
    return tuple(reports)


def is_finitely_generated(spec: SubgroupSpec) -> bool:
    return all(report.fg for report in analyze(spec))


def _fill_component(values: list[WreathElement], report: ComponentReport,
                    root_value: WreathElement) -> None:
    """Write the component's coordinates determined by ``root_value``."""
    conj = report.conjugators
    for node in report.nodes:
        values[node - 1] = conj[node].conjugate(root_value)


def sample(spec: SubgroupSpec, seed: int = 0, size_bound: int = 2) -> tuple[WreathElement, ...]:
    """Deterministic pseudo-random member of the subgroup.

    Draws one root value per component inside the component's solution
    set, then propagates it along the spanning tree.  With b = size_bound,
    a FullFactor root takes a shift and then one coefficient per index
    -b..b, a BaseNotFG root the coefficients only (shift 0), and a Cyclic
    root the generator to one drawn power; each value is one
    ``randint(-b, b)`` of ``random.Random(seed)``, in component order.
    Trivial components draw nothing and keep their coordinates at the
    identity.  size_bound 0 yields the identity tuple.

    ``draw`` runs CPython's own loop for ``randint(-b, b)``: r is
    ``getrandbits(k)`` for k = (2b+1).bit_length(), redrawn while
    r >= 2b+1, and the value is r - b.  So the stream is that of
    ``randint`` for any nonnegative integer b.
    """
    if not _is_int(size_bound) or size_bound < 0:
        raise ValueError(f"size_bound must be a nonnegative integer, got {_excerpt(size_bound)}")
    b = size_bound
    width = 2 * b + 1
    k = width.bit_length()
    getrandbits = random.Random(seed).getrandbits

    def draw() -> int:
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        return r - b

    values = [IDENTITY] * spec.m
    for report in analyze(spec):
        cclass = report.centralizer
        if cclass.tag == TRIVIAL:
            continue
        if cclass.tag == CYCLIC:
            root = cclass.generator ** draw()
        else:
            shift = draw() if cclass.tag == FULL_FACTOR else 0
            # canonical: ascending indices, zero coefficients dropped
            root = _trusted(tuple([(i, c) for i in range(-b, b + 1) if (c := draw())]), shift)
        _fill_component(values, report, root)
    return tuple(values)


@dataclass(frozen=True)
class NonFGWitness:
    """A member of the subgroup outside the span of a candidate generating
    set, refuting that set as generators."""

    candidate_generators: tuple[tuple[WreathElement, ...], ...]
    witness: tuple[WreathElement, ...]

    def to_json(self) -> dict:
        return {
            "candidate_generators": [
                [g.to_json() for g in candidate]
                for candidate in self.candidate_generators
            ],
            "witness": [g.to_json() for g in self.witness],
        }


def nonfg_witness(spec: SubgroupSpec,
                  candidates: Iterable[Sequence[WreathElement]]) -> NonFGWitness:
    """Explicit refutation that ``candidates`` generate the subgroup.

    Requires a BaseNotFG component.  Candidates project, at that
    component's root, into the free abelian base; any subgroup they
    generate has root support inside the candidates' support bound, so a
    base generator one step beyond the bound is a member that cannot be
    reached.
    """
    candidates = tuple(tuple(c) for c in candidates)
    target = next((report for report in analyze(spec) if not report.fg), None)
    if target is None:
        raise ValueError("subgroup is finitely generated: no BaseNotFG component")
    for candidate in candidates:
        if not spec.member(candidate):
            raise ValueError("candidate generator is not a member of the subgroup")

    projected = [candidate[target.root - 1] for candidate in candidates]
    bound = 0
    for p in projected:
        for index, _ in p.base:
            bound = max(bound, abs(index))
    values = [IDENTITY] * spec.m
    _fill_component(values, target, delta(bound + 1))
    witness = tuple(values)
    if not spec.member(witness):
        raise AssertionError("witness is not a member of the subgroup")
    if in_free_abelian_span(witness[target.root - 1], projected):
        raise AssertionError("witness lies in the span of the candidates")
    return NonFGWitness(candidates, witness)


def identity_tuple(m: int) -> tuple[WreathElement, ...]:
    return (IDENTITY,) * m


def tuple_multiply(a: Sequence[WreathElement],
                   b: Sequence[WreathElement]) -> tuple[WreathElement, ...]:
    if len(a) != len(b):
        raise ValueError("tuple lengths differ")
    return tuple(x * y for x, y in zip(a, b))


def tuple_inverse(a: Sequence[WreathElement]) -> tuple[WreathElement, ...]:
    return tuple(x.inverse() for x in a)
