"""Realization pipeline: atoms, block products, certificates, and the
fixed-subgroup decomposition of permutational automorphisms."""

import dataclasses
import random

import pytest

import oracles
from configforge import (
    BASE_NOT_FG,
    FULL_FACTOR,
    IDENTITY,
    IDENTITY_AUT,
    TRIVIAL,
    TWIST_AUT,
    Configuration,
    ConjugationAut,
    PermutationalAut,
    RealizationCertificate,
    WreathElement,
    analyze,
    delta,
    embed_orbit_roots,
    enumerate_configurations,
    fixed_subgroup,
    intersection_spec,
    realize,
    realize_atom,
    sample,
    verify,
)


def subset_verdicts(specs, n):
    """mask -> finitely generated, over all nonempty subsets."""
    return {mask: all(r.fg for r in analyze(intersection_spec(specs, mask)))
            for mask in range(1, 1 << n)}


def test_realize_atom_pair():
    specs = realize_atom(2, [1, 2])
    chain, twist = specs[0].edges[0], specs[1].edges[0]
    assert (chain.src, chain.dst, chain.label) == (2, 1, IDENTITY_AUT)
    assert (twist.src, twist.dst, twist.label) == (1, 2, TWIST_AUT)
    assert subset_verdicts(specs, 2) == {0b01: True, 0b10: True, 0b11: False}


def test_realize_atom_single_coordinate_selfloop():
    specs = realize_atom(1, [1])
    edge = specs[0].edges[0]
    assert (edge.src, edge.dst) == (1, 1)
    assert edge.label == TWIST_AUT
    assert subset_verdicts(specs, 1) == {0b1: False}


def test_realize_atom_sparse_subset():
    specs = realize_atom(3, [1, 3])
    assert specs[1].pins == frozenset({1, 2, 3})
    assert subset_verdicts(specs, 3) == {
        0b001: True, 0b010: True, 0b011: True,
        0b100: True, 0b101: False, 0b110: True, 0b111: True,
    }


def test_realize_atom_errors():
    with pytest.raises(ValueError):
        realize_atom(3, [])
    with pytest.raises(ValueError):
        realize_atom(3, [0])
    with pytest.raises(ValueError):
        realize_atom(3, [4])


def test_realize_all_zero_configuration():
    cert = realize(Configuration(2))
    assert cert.ambient_m == 2
    assert all(spec.pins == frozenset({1, 2}) for spec in cert.specs)
    assert all(cert.reports[mask].fg for mask in (1, 2, 3))
    assert verify(cert)


def test_realize_howson_configuration():
    cert = realize(Configuration(2, [0b11]))
    assert cert.ambient_m == 2
    assert [cert.reports[m].fg for m in (1, 2, 3)] == [True, True, False]
    assert verify(cert)


def test_realize_two_atoms_uses_two_blocks():
    cert = realize(Configuration(2, [0b01, 0b11]))
    assert cert.ambient_m == 4
    assert [cert.reports[m].fg for m in (1, 2, 3)] == [False, True, False]
    assert verify(cert)


def test_realize_matches_configuration_exhaustive_n2():
    for config in enumerate_configurations(2):
        cert = realize(config)
        for mask in range(1, 4):
            assert cert.reports[mask].fg == (config.value(mask) == 0)
        assert verify(cert)


def test_verify_detects_flipped_report_bit():
    cert = realize(Configuration(2, [0b11]))
    report = cert.reports[0b11]
    cert.reports[0b11] = dataclasses.replace(report, fg=not report.fg)
    assert not verify(cert)


def test_verify_detects_tampered_component_summary():
    cert = realize(Configuration(2, [0b11]))
    report = cert.reports[0b01]
    cert.reports[0b01] = dataclasses.replace(report, components=((1, TRIVIAL), (1, TRIVIAL)))
    assert not verify(cert)


def test_verify_detects_swapped_specs():
    cert = realize(Configuration(2, [0b01]))  # asymmetric prescription
    cert.specs = (cert.specs[1], cert.specs[0])
    assert not verify(cert)


def test_verify_rejects_malformed_certificates():
    cert = realize(Configuration(2, [0b11]))
    broken = RealizationCertificate(cert.config, 3, cert.specs, cert.reports)
    with pytest.raises(ValueError):
        verify(broken)
    missing = RealizationCertificate(
        cert.config, cert.ambient_m, cert.specs,
        {k: v for k, v in cert.reports.items() if k != 2})
    with pytest.raises(ValueError):
        verify(missing)


def test_certificate_json_roundtrip():
    cert = realize(Configuration(2, [0b01, 0b11]))
    data = cert.to_json()
    again = RealizationCertificate.from_json(data)
    assert again.config == cert.config
    assert again.ambient_m == cert.ambient_m
    assert again.specs == cert.specs
    assert again.reports == cert.reports
    assert verify(again)


def test_certificate_json_rejects_bool_component_size():
    data = realize(Configuration(2, [0b01])).to_json()
    component = data["reports"][0]["components"][0]
    assert component["size"] == 1  # true would compare equal to it
    component["size"] = True
    with pytest.raises(ValueError):
        RealizationCertificate.from_json(data)


def test_fixed_subgroup_identity_aut():
    decomposition, spec = fixed_subgroup(PermutationalAut([1, 2, 3]))
    assert decomposition.count == 3
    assert all(orbit.size == 1 and orbit.holonomy == IDENTITY
               for orbit in decomposition.orbits)
    assert all(r.classification == FULL_FACTOR for r in analyze(spec))


def test_fixed_subgroup_swap_is_diagonal():
    aut = PermutationalAut([2, 1])
    decomposition, spec = fixed_subgroup(aut)
    assert decomposition.count == 1
    orbit = decomposition.orbits[0]
    assert (orbit.representative, orbit.size, orbit.holonomy) == (1, 2, IDENTITY)
    reports = analyze(spec)
    assert len(reports) == 1 and reports[0].classification == FULL_FACTOR
    value = embed_orbit_roots(aut, {1: delta(0)})
    assert value == (delta(0), delta(0))
    assert spec.member(value)
    assert aut.apply(value) == value


def test_fixed_subgroup_three_cycle_with_twist():
    aut = PermutationalAut([2, 3, 1], [TWIST_AUT, IDENTITY_AUT, IDENTITY_AUT])
    decomposition, spec = fixed_subgroup(aut)
    assert decomposition.count == 1
    assert decomposition.orbits[0].holonomy == delta(0)
    reports = analyze(spec)
    assert len(reports) == 1 and reports[0].classification == BASE_NOT_FG


def test_permutational_aut_validation():
    with pytest.raises(ValueError):
        PermutationalAut([1, 1])
    with pytest.raises(ValueError):
        PermutationalAut([2, 1], [IDENTITY_AUT])
    with pytest.raises(ValueError):
        PermutationalAut([2, 1]).apply((IDENTITY,))


def test_embed_orbit_roots_identity_roots():
    aut = PermutationalAut([2, 3, 1])
    roots = {1: IDENTITY}
    assert embed_orbit_roots(aut, roots) == (IDENTITY, IDENTITY, IDENTITY)


def test_embed_orbit_roots_requires_fixed_root():
    aut = PermutationalAut([2, 3, 1], [TWIST_AUT, IDENTITY_AUT, IDENTITY_AUT])
    with pytest.raises(ValueError):
        embed_orbit_roots(aut, {1: WreathElement({}, 1)})  # shift does not commute
    with pytest.raises(ValueError):
        embed_orbit_roots(aut, {2: IDENTITY})  # wrong representative


def test_embed_orbit_roots_homomorphism():
    rng = random.Random(43)
    aut = PermutationalAut([3, 4, 1, 2],
                           [ConjugationAut(delta(1)), IDENTITY_AUT,
                            ConjugationAut(delta(-1, 2)), IDENTITY_AUT])
    decomposition, spec = fixed_subgroup(aut)
    for _ in range(20):
        roots_a, roots_b = {}, {}
        for orbit in decomposition.orbits:
            base_a = {i: rng.randint(-2, 2) for i in range(-2, 3)}
            base_b = {i: rng.randint(-2, 2) for i in range(-2, 3)}
            roots_a[orbit.representative] = WreathElement(base_a, 0)
            roots_b[orbit.representative] = WreathElement(base_b, 0)
            assert orbit.holonomy.shift == 0  # base roots commute with base holonomy
        a = embed_orbit_roots(aut, roots_a)
        b = embed_orbit_roots(aut, roots_b)
        ab = embed_orbit_roots(aut, {k: roots_a[k] * roots_b[k] for k in roots_a})
        assert tuple(x * y for x, y in zip(a, b)) == ab
        assert spec.member(a) and aut.apply(a) == a


def test_sampled_fixed_points_decompose():
    rng = random.Random(47)
    for trial in range(25):
        k = rng.randint(1, 6)
        perm = list(range(1, k + 1))
        rng.shuffle(perm)
        labels = [ConjugationAut(oracles.random_element(rng, radius=1))
                  for _ in range(k)]
        aut = PermutationalAut(perm, labels)
        decomposition, spec = fixed_subgroup(aut)
        value = sample(spec, seed=trial, size_bound=2)
        assert spec.member(value)
        assert aut.apply(value) == value
        roots = {orbit.representative: value[orbit.representative - 1]
                 for orbit in decomposition.orbits}
        for orbit in decomposition.orbits:
            assert orbit.holonomy.commutes_with(roots[orbit.representative])
        assert embed_orbit_roots(aut, roots) == value
