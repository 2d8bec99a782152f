"""Constructing and verifying realizations of configurations.

A configuration is realized in G^(kn), one block of n coordinates per
atom (the single-1 configurations it joins, ascending mask), block b
holding coordinates bn + 1 .. (b+1)n; subgroup i is the direct product of
its per-block constraints.  On the block of the atom at subset
j_1 < ... < j_p, subgroup j_i carries the chain constraint
g_{j_i} = g_{j_{i+1}} for i < p, subgroup j_p closes the cycle with
g_{j_p} = twist(g_{j_1}) (a self-loop when p = 1), and every subgroup off
the subset pins the block.  The twist is conjugation by a nontrivial base
element.  A proper subfamily of the subset leaves the cycle open and its
intersection splits into free copies of G; the whole subset closes it,
and the intersection collapses to the twist's fixed set, the free abelian
base, which is not finitely generated.  The all-zero configuration is
one block of the empty atom, pinned by every subgroup.

A RealizationCertificate carries the constructed subgroups together with
the per-subset analysis; ``verify`` recomputes everything from the
subgroups alone.

The same machinery decomposes the fixed subgroup of an automorphism of
G^k that permutes the factors with inner twists: components of its
constraint graph are the orbits of the permutation, each contributing the
composite twist around the orbit as its holonomy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .configuration import Configuration, format_subset, mask_elements, subset_mask
from .subgroups import ComponentReport, Edge, SubgroupSpec, _fill_component, analyze, sample
from .wreath import (IDENTITY, IDENTITY_AUT, ConjugationAut, WreathElement, _entries, _excerpt,
                     _is_int, delta)

# the fixed twist used by every construction: conjugation by a generator
# of the base, whose fixed set is exactly the base
TWIST_AUT = ConjugationAut(delta(0))


def _block_specs(n: int, atom_masks: Sequence[int]) -> list[SubgroupSpec]:
    """The n subgroups realizing the join of the given atoms, one block
    per mask in the given order, laid out as the module describes."""
    edges: list[list[Edge]] = [[] for _ in range(n)]
    pins: list[list[int]] = [[] for _ in range(n)]
    for block, mask in enumerate(atom_masks):
        offset = block * n
        members = mask_elements(mask)
        for pos, j in enumerate(members):
            if pos + 1 < len(members):
                edge = Edge(members[pos + 1] + offset, j + offset, IDENTITY_AUT)
            else:
                edge = Edge(members[0] + offset, j + offset, TWIST_AUT)
            edges[j - 1].append(edge)
        for i in range(n):
            if not (mask >> i) & 1:
                pins[i].extend(range(offset + 1, offset + n + 1))
    ambient = len(atom_masks) * n
    return [SubgroupSpec(ambient, edges[i], pins[i]) for i in range(n)]


def realize_atom(n: int, subset: Iterable[int]) -> list[SubgroupSpec]:
    """Subgroups of G^n realizing the configuration with a single 1 at
    ``subset``: one block of ``realize``."""
    return _block_specs(n, [subset_mask(subset, n)])


@dataclass(frozen=True)
class SubsetReport:
    """Recorded analysis of one subset intersection."""

    mask: int
    fg: bool
    components: tuple[tuple[int, str], ...]  # (size, classification) per component

    def to_json(self) -> dict:
        return {
            "subset": list(mask_elements(self.mask)),
            "fg": self.fg,
            "components": [{"size": s, "class": c} for s, c in self.components],
        }

    @staticmethod
    def from_json(data: dict, n: int) -> "SubsetReport":
        if not isinstance(data, dict) or not isinstance(data.get("subset"), list):
            raise ValueError(f"needs a 'subset' list, got {_excerpt(data)}")
        mask = subset_mask(data["subset"], n)
        fg = data.get("fg")
        if not isinstance(fg, bool):
            raise ValueError(f"needs a bool 'fg', got {_excerpt(fg)}")
        comps = _entries("'components'", "component", data.get("components"), _component)
        return SubsetReport(mask, fg, tuple(comps))


def _component(entry: object) -> tuple[int, str]:
    if (not isinstance(entry, dict) or not _is_int(entry.get("size"))
            or not isinstance(entry.get("class"), str)):
        raise ValueError(f"needs an integer 'size' and a string 'class', got {_excerpt(entry)}")
    return entry["size"], entry["class"]


@dataclass
class RealizationCertificate:
    """Configuration, realizing subgroups, and per-subset verdicts."""

    config: Configuration
    ambient_m: int
    specs: tuple[SubgroupSpec, ...]
    reports: dict[int, SubsetReport]

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "ambient_m": self.ambient_m,
            "specs": [spec.to_json() for spec in self.specs],
            "reports": [self.reports[mask].to_json()
                        for mask in sorted(self.reports)],
        }

    @staticmethod
    def from_json(data: dict) -> "RealizationCertificate":
        if not isinstance(data, dict):
            raise ValueError("certificate must be an object")
        config = Configuration.from_json(data.get("config"))
        ambient = data.get("ambient_m")
        if not _is_int(ambient):
            raise ValueError("certificate needs an integer 'ambient_m'")
        specs = _entries("'specs'", "spec", data.get("specs"), SubgroupSpec.from_json)
        reports: dict[int, SubsetReport] = {}

        def add_report(entry: object) -> None:
            report = SubsetReport.from_json(entry, config.n)
            if report.mask in reports:
                raise ValueError("duplicate report subset")
            reports[report.mask] = report

        _entries("'reports'", "report", data.get("reports"), add_report)
        return RealizationCertificate(config, ambient, tuple(specs), reports)


def intersection_spec(specs: Sequence[SubgroupSpec], mask: int) -> SubgroupSpec:
    """Intersection of the specs selected by a nonempty subset mask, in
    ascending index: ``SubgroupSpec.intersect`` of the selected specs."""
    selected = [spec for i, spec in enumerate(specs) if (mask >> i) & 1]
    if not selected:
        raise ValueError("subset mask must be nonempty")
    return selected[0].intersect(*selected[1:])


def _subset_analysis(spec: SubgroupSpec, mask: int) -> SubsetReport:
    components = analyze(spec)
    return SubsetReport(
        mask,
        all(c.centralizer.finitely_generated for c in components),
        tuple((len(c.nodes), c.centralizer.tag) for c in components),
    )


def realize(config: Configuration) -> RealizationCertificate:
    """Construct subgroups realizing ``config``, laid out as the module
    describes, and record their analysis."""
    specs = tuple(_block_specs(config.n, sorted(config.ones) or [0]))
    reports = {mask: _subset_analysis(intersection_spec(specs, mask), mask)
               for mask in range(1, (1 << config.n))}
    return RealizationCertificate(config, specs[0].m, specs, reports)


def _constraints_hold(cert: RealizationCertificate, mask: int,
                      components: Sequence[ComponentReport]) -> bool:
    """Whether every member of the intersection as ``components`` describe
    it satisfies each pin and edge of every constituent spec in ``mask``.

    The components must partition 1..m.  An edge must join two nodes of
    one component, and hold on it by its class's ``edge_holds`` unless the
    class is trivial; a pin must fall in a component whose class is
    trivial.  The constituents' own constraints are tested, not the
    intersection's, so the check does not rely on the intersection builder
    either.
    """
    m = cert.ambient_m
    owner = {node: report for report in components for node in report.nodes}
    if (sum(len(report.nodes) for report in components) != m
            or owner.keys() != set(range(1, m + 1))):
        return False
    # the nodes of components whose root is not trivial
    free = {node for report in components if not report.centralizer.is_trivial
            for node in report.nodes}
    for j in mask_elements(mask):
        spec = cert.specs[j - 1]
        if not spec.pins.isdisjoint(free):
            return False
        for src, dst, label in spec.edges:
            report = owner[src]
            if owner[dst] is not report:
                return False
            if src not in free:
                continue
            conj = report.conjugators
            if not report.centralizer.edge_holds(conj[src], label.conjugator, conj[dst]):
                return False
    return True


def check_subset(cert: RealizationCertificate, mask: int, samples: int = 0,
                 seed: int = 0) -> Optional[str]:
    """The first check that subset ``mask`` fails, as a reason code, or
    None when it passes: ``report-does-not-fit``, ``config-mismatch``
    (the analysis recomputed from the specs contradicts the
    configuration), ``report-mismatch`` (it differs from the recorded
    report), ``constraint-rejected`` (a member of the intersection as
    analysed breaks a constraint of a constituent subgroup) or
    ``sample-rejected`` (one of ``samples`` sampled members of the
    intersection fails membership in a constituent subgroup).

    The recorded report is first checked against the intersection's
    edges and pins alone: its component sizes must sum to the ambient
    power, and it must list at least one component per coordinate that no
    edge or pin names, since each such coordinate is a component of its
    own.  A report that passes bounds ``ambient_m`` by its component count
    plus the named coordinates, so the analysis costs time in the size of
    the certificate, however large the ``ambient_m`` it names.

    ``constraint-rejected`` is exact: it tests every constituent pin and
    edge against the analysed components at once (``_constraints_hold``),
    where sampling tests members one at a time.  Sampled members are
    tested once, against the constituents: the intersection spec's edges
    and pins are exactly theirs, so a tuple that every constituent accepts
    is a member of the intersection too.

    Raises ValueError when the certificate has no report for ``mask``,
    not n specs, a spec whose ``m`` is not ``ambient_m``, or other than
    2^n - 1 reports.
    """
    if not _is_int(samples) or samples < 0:
        raise ValueError(f"samples must be a nonnegative integer, got {_excerpt(samples)}")
    recorded = cert.reports.get(mask)
    if recorded is None:
        raise ValueError(f"certificate has no report for {format_subset(mask)}")
    n = cert.config.n
    if len(cert.specs) != n:
        raise ValueError(f"certificate has {len(cert.specs)} specs for n = {n}")
    for spec in cert.specs:
        if spec.m != cert.ambient_m:
            raise ValueError(f"spec ambient {spec.m} != certificate ambient {cert.ambient_m}")
    if len(cert.reports) != (1 << n) - 1:
        raise ValueError("certificate reports do not cover exactly the nonempty subsets")
    spec = intersection_spec(cert.specs, mask)
    named = {*spec.pins, *[e.src for e in spec.edges], *[e.dst for e in spec.edges]}
    if (sum(size for size, _ in recorded.components) != spec.m
            or len(recorded.components) < spec.m - len(named)):
        return "report-does-not-fit"
    recomputed = _subset_analysis(spec, mask)
    if recomputed.fg != (cert.config.value(mask) == 0):
        return "config-mismatch"
    if recomputed.fg != recorded.fg or recomputed.components != recorded.components:
        return "report-mismatch"
    if not _constraints_hold(cert, mask, analyze(spec)):
        return "constraint-rejected"
    elements = mask_elements(mask)
    for i in range(samples):
        value = sample(spec, seed=seed + mask * 1009 + i, size_bound=2)
        if not all(cert.specs[j - 1].member(value) for j in elements):
            return "sample-rejected"
    return None


def subset_checks(cert: RealizationCertificate, samples: int = 0,
                  seed: int = 0) -> Iterable[tuple[int, Optional[str]]]:
    """Yield (mask, reason) per subset in ascending mask, the reason code
    of ``check_subset``, None when it finds no fault."""
    for mask in range(1, 1 << cert.config.n):
        yield mask, check_subset(cert, mask, samples, seed)


def verify(cert: RealizationCertificate, samples: int = 0, seed: int = 0) -> bool:
    """Recompute every subset analysis from the specs alone, compare, and
    check every constraint against it; ``samples`` members per subset are
    also drawn and tested."""
    return all(reason is None for _, reason in subset_checks(cert, samples=samples, seed=seed))


class PermutationalAut:
    """Automorphism of G^k permuting the factors with inner twists.

    ``perm`` lists the image of each position (1-based), ``labels`` the
    per-position twist: the induced map sends (x_1, ..., x_k) to the tuple
    with labels_j(x_j) at position perm_j.  A perm entry that is not an
    integer, or a label that is not a ``ConjugationAut``, is refused by its
    position.
    """

    __slots__ = ("k", "perm", "labels")

    def __init__(self, perm: Sequence[int],
                 labels: Optional[Sequence[ConjugationAut]] = None):
        perm = tuple(perm)
        k = len(perm)
        for position, j in enumerate(perm):
            if not _is_int(j):
                raise ValueError(f"perm entry {position}: {_excerpt(j)} is not an integer")
        if sorted(perm) != list(range(1, k + 1)):
            raise ValueError(f"perm {perm!r} is not a bijection of 1..{k}")
        if labels is None:
            labels = (IDENTITY_AUT,) * k
        labels = tuple(labels)
        if len(labels) != k:
            raise ValueError("labels must match the permutation length")
        for position, label in enumerate(labels):
            if not isinstance(label, ConjugationAut):
                raise ValueError(f"label {position}: {_excerpt(label)} is not a ConjugationAut")
        self.k = k
        self.perm = perm
        self.labels = labels

    def apply(self, values: Sequence[WreathElement]) -> tuple[WreathElement, ...]:
        if len(values) != self.k:
            raise ValueError(f"tuple length {len(values)} != k = {self.k}")
        out: list[WreathElement] = [IDENTITY] * self.k
        for j in range(1, self.k + 1):
            out[self.perm[j - 1] - 1] = self.labels[j - 1](values[j - 1])
        return tuple(out)

    def __repr__(self) -> str:
        return f"PermutationalAut(perm={self.perm!r})"


@dataclass(frozen=True)
class Orbit:
    """One cycle of the permutation: smallest index, length, and the
    composite twist conjugator around the cycle, expressed at the
    representative."""

    representative: int
    size: int
    holonomy: WreathElement


@dataclass(frozen=True)
class OrbitDecomposition:
    orbits: tuple[Orbit, ...]

    @property
    def count(self) -> int:
        return len(self.orbits)


def fixed_subgroup(aut: PermutationalAut) -> tuple[OrbitDecomposition, SubgroupSpec]:
    """Fixed set of the induced automorphism of G^k as a constraint
    subgroup, plus the orbit decomposition that explains it.

    The fixed-point condition reads g_{perm(j)} = labels_j(g_j) for every
    j, so the constraint graph's components are exactly the orbits of the
    permutation.  Each orbit is read off ``analyze``: its root, its size,
    and the holonomy of the one cycle it closes, which is the composite
    twist around the orbit.  A 2-cycle whose labels are mutually inverse
    keeps both edges and closes a cycle whose composite twist is the
    identity.
    """
    edges = [Edge(src=j, dst=aut.perm[j - 1], label=aut.labels[j - 1])
             for j in range(1, aut.k + 1)]
    spec = SubgroupSpec(aut.k, edges)
    orbits = tuple(Orbit(representative=report.root, size=report.size,
                         holonomy=report.holonomy[0] if report.holonomy else IDENTITY)
                   for report in analyze(spec))
    return OrbitDecomposition(orbits), spec


def embed_orbit_roots(aut: PermutationalAut,
                      roots: Mapping[int, WreathElement]) -> tuple[WreathElement, ...]:
    """Assemble a fixed point of ``aut`` from one root value per orbit.

    Each root must commute with its orbit's holonomy conjugator; the root
    is then carried to every position of the orbit by the spanning-tree
    conjugators of ``analyze``.  The assembly is injective and a
    homomorphism in the roots.
    """
    _, spec = fixed_subgroup(aut)
    reports = analyze(spec)
    expected = {report.root for report in reports}
    if set(roots) != expected:
        raise ValueError(f"roots must be given exactly at {sorted(expected)}")
    values: list[WreathElement] = [IDENTITY] * aut.k
    for report in reports:
        root_value = roots[report.root]
        if not all(h.commutes_with(root_value) for h in report.holonomy):
            raise ValueError(
                f"root at {report.root} is not fixed by the orbit holonomy")
        _fill_component(values, report, root_value)
    return tuple(values)
