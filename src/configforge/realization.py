"""Constructing and verifying realizations of configurations.

Every single-1 configuration is realized on one block of n coordinates by
a chain of equality constraints closed up by a twist, conjugation by a
nontrivial base element: the proper sub-intersections are free copies of
G, while the full intersection collapses to the twist's fixed set, the
free abelian base, which is not finitely generated.  General
configurations are joins of their single-1 atoms and are realized block
by block in a direct product, one block per atom.

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

from .configuration import Configuration, mask_elements
from .subgroups import Edge, SubgroupSpec, analyze, sample
from .wreath import IDENTITY, IDENTITY_AUT, ConjugationAut, WreathElement, _is_int, delta

# the fixed twist used by every construction: conjugation by a generator
# of the base, whose fixed set is exactly the base
TWIST_AUT = ConjugationAut(delta(0))


def realize_atom(n: int, subset: Iterable[int]) -> list[SubgroupSpec]:
    """Subgroups of G^n realizing the configuration with a single 1 at
    ``subset``.

    Writing the subset as j_1 < ... < j_p: subgroup j_i carries the chain
    constraint g_{j_i} = g_{j_{i+1}} for i < p, subgroup j_p closes the
    cycle with g_{j_p} = twist(g_{j_1}) (a self-loop when p = 1), and
    every subgroup off the subset is fully pinned.  Any intersection over
    a subfamily misses an edge of the cycle and splits as a direct product
    of free copies of G; the intersection over exactly the subset closes
    the cycle and collapses to the twist's fixed set.
    """
    members = sorted(set(subset))
    if not members:
        raise ValueError("subset must be nonempty")
    if members[0] < 1 or members[-1] > n:
        raise ValueError(f"subset {members} out of range 1..{n}")
    specs: list[Optional[SubgroupSpec]] = [None] * n
    for pos, j in enumerate(members):
        if pos + 1 < len(members):
            edge = Edge(src=members[pos + 1], dst=j, label=IDENTITY_AUT)
        else:
            edge = Edge(src=members[0], dst=j, label=TWIST_AUT)
        specs[j - 1] = SubgroupSpec(n, (edge,))
    for i in range(1, n + 1):
        if specs[i - 1] is None:
            specs[i - 1] = SubgroupSpec.fully_pinned(n)
    return specs


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
        specs_raw = data.get("specs")
        reports_raw = data.get("reports")
        if not _is_int(ambient):
            raise ValueError("certificate needs an integer 'ambient_m'")
        if not isinstance(specs_raw, list) or not isinstance(reports_raw, list):
            raise ValueError("certificate needs 'specs' and 'reports' lists")
        specs = tuple(SubgroupSpec.from_json(s) for s in specs_raw)
        reports = {}
        for entry in reports_raw:
            if not isinstance(entry, dict) or not isinstance(entry.get("subset"), list):
                raise ValueError(f"bad report entry: {entry!r}")
            mask = 0
            for e in entry["subset"]:
                if not _is_int(e) or e < 1:
                    raise ValueError(f"bad subset element: {e!r}")
                mask |= 1 << (e - 1)
            fg = entry.get("fg")
            comps_raw = entry.get("components")
            if not isinstance(fg, bool) or not isinstance(comps_raw, list):
                raise ValueError(f"bad report entry: {entry!r}")
            comps = []
            for c in comps_raw:
                if (not isinstance(c, dict) or not _is_int(c.get("size"))
                        or not isinstance(c.get("class"), str)):
                    raise ValueError(f"bad component entry: {c!r}")
                comps.append((c["size"], c["class"]))
            if mask in reports:
                raise ValueError("duplicate report subset")
            reports[mask] = SubsetReport(mask, fg, tuple(comps))
        return RealizationCertificate(config, ambient, specs, reports)


def intersection_spec(specs: Sequence[SubgroupSpec], mask: int) -> SubgroupSpec:
    """Fold the specs selected by a nonempty subset mask, ascending index."""
    result: Optional[SubgroupSpec] = None
    for i in range(1, len(specs) + 1):
        if (mask >> (i - 1)) & 1:
            result = specs[i - 1] if result is None else result.intersect(specs[i - 1])
    if result is None:
        raise ValueError("subset mask must be nonempty")
    return result


def _subset_analysis(spec: SubgroupSpec, mask: int) -> SubsetReport:
    components = analyze(spec)
    return SubsetReport(
        mask,
        all(c.fg for c in components),
        tuple((c.size, c.classification) for c in components),
    )


def realize(config: Configuration) -> RealizationCertificate:
    """Construct subgroups realizing ``config`` and record their analysis.

    One block of n coordinates per atom of the configuration (ascending
    mask), block b occupying coordinates (b-1)n + 1 .. bn; subgroup i is
    the direct product of its per-block constraints.  An all-zero
    configuration keeps the ambient at n with every subgroup fully pinned.
    """
    n = config.n
    atom_masks = sorted(config.ones)
    if not atom_masks:
        ambient = n
        specs = tuple(SubgroupSpec.fully_pinned(n) for _ in range(n))
    else:
        ambient = len(atom_masks) * n
        edges: list[list[Edge]] = [[] for _ in range(n)]
        pins: list[set[int]] = [set() for _ in range(n)]
        for block, atom_mask in enumerate(atom_masks):
            offset = block * n
            for i, block_spec in enumerate(realize_atom(n, mask_elements(atom_mask))):
                edges[i].extend(
                    Edge(e.src + offset, e.dst + offset, e.label)
                    for e in block_spec.edges
                )
                pins[i].update(p + offset for p in block_spec.pins)
        specs = tuple(SubgroupSpec(ambient, edges[i], pins[i]) for i in range(n))
    reports = {mask: _subset_analysis(intersection_spec(specs, mask), mask)
               for mask in range(1, (1 << n))}
    return RealizationCertificate(config, ambient, specs, reports)


def _validate_certificate(cert: RealizationCertificate) -> None:
    n = cert.config.n
    if len(cert.specs) != n:
        raise ValueError(f"certificate has {len(cert.specs)} specs for n = {n}")
    for spec in cert.specs:
        if spec.m != cert.ambient_m:
            raise ValueError(f"spec ambient {spec.m} != certificate ambient {cert.ambient_m}")
    expected = set(range(1, 1 << n))
    if set(cert.reports) != expected:
        raise ValueError("certificate reports do not cover exactly the nonempty subsets")


def subset_checks(cert: RealizationCertificate, samples: int = 8,
                  seed: int = 0) -> Iterable[tuple[int, bool]]:
    """Yield (mask, ok) per subset: the analysis recomputed from the specs
    must match both the configuration and the recorded report, and sampled
    members of the intersection must pass membership in every constituent
    subgroup."""
    _validate_certificate(cert)
    n = cert.config.n
    for mask in range(1, 1 << n):
        spec = intersection_spec(cert.specs, mask)
        recomputed = _subset_analysis(spec, mask)
        recorded = cert.reports[mask]
        ok = (recomputed.fg == (cert.config.value(mask) == 0)
              and recomputed.fg == recorded.fg
              and recomputed.components == recorded.components)
        if ok and samples > 0:
            elements = mask_elements(mask)
            for i in range(samples):
                value = sample(spec, seed=seed + mask * 1009 + i, size_bound=2)
                if not spec.member(value) or not all(
                        cert.specs[j - 1].member(value) for j in elements):
                    ok = False
                    break
        yield mask, ok


def verify(cert: RealizationCertificate, samples: int = 8, seed: int = 0) -> bool:
    """Recompute every subset analysis from the specs alone and compare."""
    return all(ok for _, ok in subset_checks(cert, samples=samples, seed=seed))


class PermutationalAut:
    """Automorphism of G^k permuting the factors with inner twists.

    ``perm`` lists the image of each position (1-based), ``labels`` the
    per-position twist: the induced map sends (x_1, ..., x_k) to the tuple
    with labels_j(x_j) at position perm_j.
    """

    __slots__ = ("k", "perm", "labels")

    def __init__(self, perm: Sequence[int],
                 labels: Optional[Sequence[ConjugationAut]] = None):
        perm = tuple(perm)
        k = len(perm)
        if sorted(perm) != list(range(1, k + 1)):
            raise ValueError(f"perm {perm!r} is not a bijection of 1..{k}")
        if labels is None:
            labels = (IDENTITY_AUT,) * k
        labels = tuple(labels)
        if len(labels) != k:
            raise ValueError("labels must match the permutation length")
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


def _orbit_cycle(aut: PermutationalAut, start: int) -> list[int]:
    cycle = [start]
    current = aut.perm[start - 1]
    while current != start:
        cycle.append(current)
        current = aut.perm[current - 1]
    return cycle


def fixed_subgroup(aut: PermutationalAut) -> tuple[OrbitDecomposition, SubgroupSpec]:
    """Fixed set of the induced automorphism of G^k as a constraint
    subgroup, plus the orbit decomposition that explains it.

    The fixed-point condition reads g_{perm(j)} = labels_j(g_j) for every
    j, so the constraint graph's components are exactly the orbits of the
    permutation and each orbit closes one cycle whose holonomy is the
    composite twist around it.
    """
    edges = [Edge(src=j, dst=aut.perm[j - 1], label=aut.labels[j - 1])
             for j in range(1, aut.k + 1)]
    spec = SubgroupSpec(aut.k, edges)
    orbits = []
    seen: set[int] = set()
    for j in range(1, aut.k + 1):
        if j in seen:
            continue
        cycle = _orbit_cycle(aut, j)
        seen.update(cycle)
        holonomy = IDENTITY
        for node in cycle:
            holonomy = aut.labels[node - 1].conjugator * holonomy
        orbits.append(Orbit(representative=j, size=len(cycle), holonomy=holonomy))
    return OrbitDecomposition(tuple(orbits)), spec


def embed_orbit_roots(aut: PermutationalAut,
                      roots: Mapping[int, WreathElement]) -> tuple[WreathElement, ...]:
    """Assemble a fixed point of ``aut`` from one root value per orbit.

    Each root must commute with its orbit's holonomy conjugator; the root
    is then twisted into every position along the cycle.  The assembly is
    injective and a homomorphism in the roots.
    """
    decomposition, _ = fixed_subgroup(aut)
    expected = {orbit.representative for orbit in decomposition.orbits}
    if set(roots) != expected:
        raise ValueError(f"roots must be given exactly at {sorted(expected)}")
    values: list[WreathElement] = [IDENTITY] * aut.k
    for orbit in decomposition.orbits:
        root_value = roots[orbit.representative]
        if not orbit.holonomy.commutes_with(root_value):
            raise ValueError(
                f"root at {orbit.representative} is not fixed by the orbit holonomy")
        current = root_value
        values[orbit.representative - 1] = current
        node = orbit.representative
        for _ in range(orbit.size - 1):
            current = aut.labels[node - 1](current)
            node = aut.perm[node - 1]
            values[node - 1] = current
    return tuple(values)
