"""Subgroups of direct powers of Z wr Z cut out by conjugation constraints.

A SubgroupSpec over G^m is a labelled graph on the coordinates 1..m: each
edge (src, dst, phi) imposes g_dst = phi(g_src) for an inner automorphism
phi, each pin forces a coordinate to the identity.  Such sets are
subgroups (labels are homomorphisms) and are closed under intersection by
taking unions of constraints.

The analyzer walks each connected component with a breadth-first spanning
tree: every coordinate is a fixed automorphism of the root value, and each
remaining edge contributes a cycle-holonomy conjugator at the root.  The
component's solution set is the joint centralizer of those conjugators,
so its classification (and finite generation) is decided exactly by
``classify_centralizer``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .wreath import (
    BASE_NOT_FG,
    CYCLIC,
    FULL_FACTOR,
    IDENTITY,
    IDENTITY_AUT,
    ConjugationAut,
    WreathElement,
    _is_int,
    _trusted,
    classify_centralizer,
    delta,
    in_free_abelian_span,
)

TRIVIAL = "Trivial"


class Edge(NamedTuple):
    src: int
    dst: int
    label: ConjugationAut


def _element_key(e: WreathElement) -> tuple:
    return (e.shift, e.base)


def _constraint_key(edge: Edge) -> tuple:
    """Canonical dedup key: g_dst = phi(g_src) and g_src = phi^-1(g_dst)
    are the same constraint, as are the two readings of a self-loop."""
    h = edge.label.conjugator
    if edge.src == edge.dst:
        pick = min(h, h.inverse(), key=_element_key)
        return (edge.src, edge.src, pick.shift, pick.base)
    if edge.src < edge.dst:
        return (edge.src, edge.dst, h.shift, h.base)
    inv = h.inverse()
    return (edge.dst, edge.src, inv.shift, inv.base)


class SubgroupSpec:
    """Immutable constraint subgroup of G^m.

    Duplicate constraints (identical edges, or an edge and its reverse
    with the inverted label) are removed at construction, keeping the
    first occurrence in its stored orientation.
    """

    __slots__ = ("m", "edges", "pins", "_hash")

    def __init__(self, m: int, edges: Iterable[Edge] = (), pins: Iterable[int] = ()):
        if not _is_int(m) or m < 1:
            raise ValueError(f"ambient power m must be a positive integer, got {m!r}")
        pins = tuple(pins)
        for p in pins:
            if not _is_int(p) or not 1 <= p <= m:
                raise ValueError(f"pin {p!r} out of range 1..{m}")
        deduped: list[Edge] = []
        seen: set[tuple] = set()
        for edge in edges:
            if not isinstance(edge, Edge):
                edge = Edge(*edge)
            src, dst = edge.src, edge.dst
            if not (_is_int(src) and _is_int(dst) and 1 <= src <= m and 1 <= dst <= m):
                raise ValueError(f"edge endpoints {src!r}->{dst!r} must be integers in 1..{m}")
            key = _constraint_key(edge)
            if key in seen:
                continue
            seen.add(key)
            deduped.append(edge)
        self.m = m
        self.edges: tuple[Edge, ...] = tuple(deduped)
        self.pins = frozenset(pins)
        # analyze's cache hashes its argument on every lookup
        self._hash = hash((m, self.edges, self.pins))

    @classmethod
    def free(cls, m: int) -> "SubgroupSpec":
        """The whole ambient G^m (no constraints)."""
        return cls(m)

    @classmethod
    def fully_pinned(cls, m: int) -> "SubgroupSpec":
        """The trivial subgroup: every coordinate pinned to the identity."""
        return cls(m, (), range(1, m + 1))

    def intersect(self, other: "SubgroupSpec") -> "SubgroupSpec":
        """Union of constraints; membership means membership in both."""
        if self.m != other.m:
            raise ValueError(f"mismatched ambient power: {self.m} vs {other.m}")
        return SubgroupSpec(self.m, self.edges + other.edges, self.pins | other.pins)

    def member(self, values: Sequence[WreathElement]) -> bool:
        """Exact membership of a coordinate tuple."""
        if len(values) != self.m:
            raise ValueError(f"tuple length {len(values)} != ambient power {self.m}")
        for i in self.pins:
            v = values[i - 1]
            if v.base or v.shift:
                return False
        for edge in self.edges:
            if values[edge.dst - 1] != edge.label(values[edge.src - 1]):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubgroupSpec):
            return NotImplemented
        return (self.m == other.m and self.edges == other.edges
                and self.pins == other.pins)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild on unpickling: the cached hash holds for this process only
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
        m = data.get("m")
        edges_raw = data.get("edges")
        pins = data.get("pins", [])
        if not _is_int(m):
            raise ValueError("spec needs an integer 'm'")
        if not isinstance(edges_raw, list) or not isinstance(pins, list):
            raise ValueError("spec needs 'edges' and 'pins' lists")
        edges = []
        for entry in edges_raw:
            if not isinstance(entry, dict):
                raise ValueError(f"bad edge entry: {entry!r}")
            conj = WreathElement.from_json(entry.get("conjugator"))
            edges.append(Edge(entry.get("src"), entry.get("dst"), ConjugationAut(conj)))
        return SubgroupSpec(m, edges, pins)


class ComponentReport(NamedTuple):
    """Analysis of one connected component of the constraint graph.

    ``tree_auts`` maps each node to the automorphism expressing its
    coordinate in terms of the root value; ``holonomy`` lists one
    conjugator per independent cycle, expressed at the root.  A Trivial
    report carries neither: its ``tree_auts`` is empty and its ``holonomy``
    is ``()``, since every coordinate of a pinned component is the
    identity.  Reports are cached by ``analyze``, so they are immutable:
    ``tree_auts`` is a read-only mapping.
    """

    nodes: frozenset[int]
    root: int
    tree_auts: Mapping[int, ConjugationAut]
    holonomy: tuple[WreathElement, ...]
    classification: str
    generator: Optional[WreathElement]
    fg: bool

    @property
    def size(self) -> int:
        return len(self.nodes)


_NO_AUTS: Mapping[int, ConjugationAut] = MappingProxyType({})


@functools.lru_cache(maxsize=8192)
def analyze(spec: SubgroupSpec) -> tuple[ComponentReport, ...]:
    """Connected components, spanning trees, holonomies, classifications.

    Components are rooted at their smallest coordinate and discovered in
    ascending root order; the breadth-first tree visits neighbours in
    ascending index (ties by edge input order) and the remaining edges
    contribute holonomy conjugators in input order.  A pinned component is
    Trivial, and it is recognised from its node set alone, before any
    automorphism is built; otherwise its class is that of the joint
    centralizer of the holonomies: FullFactor (a free copy of G), Cyclic,
    or BaseNotFG (not finitely generated).
    """
    adjacency: dict[int, list[tuple[int, int, bool]]] = {
        i: [] for i in range(1, spec.m + 1)
    }
    for k, e in enumerate(spec.edges):
        adjacency[e.src].append((e.dst, k, True))
        if e.dst != e.src:
            adjacency[e.dst].append((e.src, k, False))
    for lst in adjacency.values():
        lst.sort(key=lambda item: (item[0], item[1]))

    visited: set[int] = set()
    reports: list[ComponentReport] = []
    for root in range(1, spec.m + 1):
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
        if not nodes.isdisjoint(spec.pins):
            reports.append(ComponentReport(nodes, root, _NO_AUTS, (), TRIVIAL, None, True))
            continue
        auts: dict[int, ConjugationAut] = {root: IDENTITY_AUT}
        for u, v, k, forward in tree:
            h = spec.edges[k].label.conjugator
            auts[v] = ConjugationAut((h if forward else h.inverse()) * auts[u].conjugator)
        met_edges.difference_update(k for _, _, k, _ in tree)
        holonomy = []
        for k in sorted(met_edges):
            e = spec.edges[k]
            holonomy.append(auts[e.dst].conjugator.inverse() * e.label.conjugator
                            * auts[e.src].conjugator)
        cclass = classify_centralizer(holonomy)
        reports.append(ComponentReport(
            nodes=nodes,
            root=root,
            tree_auts=MappingProxyType(auts),
            holonomy=tuple(holonomy),
            classification=cclass.tag,
            generator=cclass.generator,
            fg=cclass.tag != BASE_NOT_FG,
        ))
    return tuple(reports)


def is_finitely_generated(spec: SubgroupSpec) -> bool:
    return all(report.fg for report in analyze(spec))


def _fill_component(values: list[WreathElement], report: ComponentReport,
                    root_value: WreathElement) -> None:
    """Write the component's coordinates determined by ``root_value``."""
    for node in report.nodes:
        values[node - 1] = report.tree_auts[node](root_value)


def _random_base(rng: random.Random, bound: int) -> tuple[tuple[int, int], ...]:
    """Canonical base with one coefficient drawn per index -bound..bound."""
    draws = [(i, rng.randint(-bound, bound)) for i in range(-bound, bound + 1)]
    return tuple([pair for pair in draws if pair[1]])


def _draw_root(rng: random.Random, report: ComponentReport, bound: int) -> WreathElement:
    """Root value of a component that is not Trivial."""
    if report.classification == FULL_FACTOR:
        shift = rng.randint(-bound, bound)
        return _trusted(_random_base(rng, bound), shift)
    if report.classification == CYCLIC:
        return report.generator ** rng.randint(-bound, bound)
    return _trusted(_random_base(rng, bound), 0)  # BaseNotFG: any base element


def sample(spec: SubgroupSpec, seed: int = 0, size_bound: int = 2) -> tuple[WreathElement, ...]:
    """Deterministic pseudo-random member of the subgroup.

    Draws one root value per component inside the component's solution
    set, then propagates it along the spanning tree.  Trivial components
    consume no draws and keep their coordinates at the identity, so the
    pseudo-random stream depends only on the other components.  size_bound
    0 yields the identity tuple.
    """
    if size_bound < 0:
        raise ValueError("size_bound must be nonnegative")
    rng = random.Random(seed)
    values = [IDENTITY] * spec.m
    for report in analyze(spec):
        if report.classification != TRIVIAL:
            _fill_component(values, report, _draw_root(rng, report, size_bound))
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
    target = None
    for report in analyze(spec):
        if report.classification == BASE_NOT_FG:
            target = report
            break
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
