"""Constraint subgroups: intersection, membership, analysis, sampling,
and non-finite-generation witnesses."""

import os
import random
import subprocess
import sys

import pytest

import configforge
import oracles
from configforge import (
    BASE_NOT_FG,
    FULL_FACTOR,
    IDENTITY,
    IDENTITY_AUT,
    TRIVIAL,
    TWIST_AUT,
    Edge,
    SubgroupSpec,
    WreathElement,
    analyze,
    delta,
    identity_tuple,
    in_free_abelian_span,
    intersection_spec,
    is_finitely_generated,
    nonfg_witness,
    realize_atom,
    sample,
    tuple_inverse,
    tuple_multiply,
)


def chain_twist_spec(n):
    """Full intersection of the chain/twist family on G^n."""
    return intersection_spec(realize_atom(n, range(1, n + 1)), (1 << n) - 1)


def test_intersect_with_free_spec():
    x = SubgroupSpec(3, [Edge(2, 1, IDENTITY_AUT)], [3])
    assert SubgroupSpec.free(3).intersect(x) == x
    assert x.intersect(SubgroupSpec.free(3)) == x


def test_intersect_membership_iff_both():
    rng = random.Random(29)
    for _ in range(20):
        m = rng.randint(1, 4)
        a = SubgroupSpec(m, *oracles.random_spec_data(rng, max_m=m, max_edges=3)[1:])
        b = SubgroupSpec(m, *oracles.random_spec_data(rng, max_m=m, max_edges=3)[1:])
        both = a.intersect(b)
        for seed in range(6):
            for value in (sample(a, seed=seed), sample(b, seed=seed),
                          sample(both, seed=seed)):
                assert both.member(value) == (a.member(value) and b.member(value))


def test_intersect_mismatched_ambient():
    with pytest.raises(ValueError):
        SubgroupSpec.free(2).intersect(SubgroupSpec.free(3))


def test_intersect_chain_specs_single_component():
    h1 = SubgroupSpec(3, [Edge(2, 1, IDENTITY_AUT)])
    h2 = SubgroupSpec(3, [Edge(3, 2, IDENTITY_AUT)])
    reports = analyze(h1.intersect(h2))
    assert len(reports) == 1
    assert reports[0].size == 3
    assert reports[0].classification == FULL_FACTOR


def test_intersect_creates_cycle_with_twist_holonomy():
    h1 = SubgroupSpec(2, [Edge(2, 1, IDENTITY_AUT)])
    h2 = SubgroupSpec(2, [Edge(1, 2, TWIST_AUT)])
    reports = analyze(h1.intersect(h2))
    assert len(reports) == 1
    assert reports[0].holonomy == (delta(0),)
    assert reports[0].classification == BASE_NOT_FG


def test_member_identity_tuple_always():
    for spec in (SubgroupSpec.free(2), SubgroupSpec.fully_pinned(3), chain_twist_spec(4)):
        assert spec.member(identity_tuple(spec.m))


def test_member_equality_constraint():
    spec = SubgroupSpec(2, [Edge(1, 2, IDENTITY_AUT)])
    a = delta(0)
    assert spec.member((a, a))
    assert not spec.member((delta(0), delta(1)))


def test_member_length_mismatch():
    with pytest.raises(ValueError):
        SubgroupSpec.free(2).member((IDENTITY,))


def test_edge_validation():
    with pytest.raises(ValueError):
        SubgroupSpec(2, [Edge(0, 1, IDENTITY_AUT)])
    with pytest.raises(ValueError):
        SubgroupSpec(2, [Edge(1, 3, IDENTITY_AUT)])
    with pytest.raises(ValueError):
        SubgroupSpec(0)
    with pytest.raises(ValueError):
        SubgroupSpec(2, (), [5])


def test_analyze_empty_spec_is_full_factors():
    reports = analyze(SubgroupSpec.free(2))
    assert [r.classification for r in reports] == [FULL_FACTOR, FULL_FACTOR]
    assert is_finitely_generated(SubgroupSpec.free(2))


def test_analyze_fully_pinned_trivial():
    reports = analyze(SubgroupSpec.fully_pinned(3))
    assert all(r.classification == TRIVIAL and r.fg for r in reports)


def test_analyze_chain_twist_subsets():
    n = 4
    specs = realize_atom(n, range(1, n + 1))
    full = (1 << n) - 1
    for mask in range(1, full + 1):
        reports = analyze(intersection_spec(specs, mask))
        size = bin(mask).count("1")
        if mask == full:
            assert len(reports) == 1
            assert reports[0].classification == BASE_NOT_FG
            assert not reports[0].fg
        else:
            assert len(reports) == n - size
            assert all(r.classification == FULL_FACTOR for r in reports)


def test_analyze_pinned_node_wins_over_holonomy():
    spec = chain_twist_spec(3).intersect(SubgroupSpec(3, (), [2]))
    reports = analyze(spec)
    assert [r.classification for r in reports] == [TRIVIAL]


def test_dedup_duplicate_edges():
    e = Edge(1, 2, TWIST_AUT)
    spec = SubgroupSpec(2, [e, e])
    assert len(spec.edges) == 1
    assert analyze(spec)[0].holonomy == ()


def test_dedup_reverse_edge_with_inverse_label():
    forward = Edge(1, 2, TWIST_AUT)
    backward = Edge(2, 1, TWIST_AUT.inverse())
    spec = SubgroupSpec(2, [forward, backward])
    assert len(spec.edges) == 1
    # a genuinely different label on the reverse edge is kept
    spec2 = SubgroupSpec(2, [forward, Edge(2, 1, TWIST_AUT)])
    assert len(spec2.edges) == 2


def test_dedup_selfloop_inverse_reading():
    spec = SubgroupSpec(1, [Edge(1, 1, TWIST_AUT), Edge(1, 1, TWIST_AUT.inverse())])
    assert len(spec.edges) == 1


def test_contradictory_constraints_restrict_instead_of_error():
    # g1 = g2 together with g1 = twist(g2): a cycle whose holonomy pins
    # the fixed set down to the base
    spec = SubgroupSpec(2, [Edge(2, 1, IDENTITY_AUT), Edge(2, 1, TWIST_AUT)])
    reports = analyze(spec)
    assert len(reports) == 1
    assert reports[0].classification == BASE_NOT_FG


def test_sample_bound_zero_is_identity():
    for spec in (SubgroupSpec.free(3), chain_twist_spec(3)):
        assert sample(spec, seed=4, size_bound=0) == identity_tuple(spec.m)


def test_sample_respects_equality_constraint():
    spec = SubgroupSpec(2, [Edge(1, 2, IDENTITY_AUT)])
    for seed in range(5):
        value = sample(spec, seed=seed)
        assert value[0] == value[1]
        assert spec.member(value)


def test_sample_full_intersection_constant_commuting():
    spec = chain_twist_spec(4)
    for seed in range(5):
        value = sample(spec, seed=seed)
        assert len(set(value)) == 1
        assert value[0].commutes_with(delta(0))
        assert spec.member(value)


def test_sample_members_and_closure_random_specs():
    rng = random.Random(31)
    for _ in range(40):
        m, edges, pins = oracles.random_spec_data(rng)
        spec = SubgroupSpec(m, edges, pins)
        x = sample(spec, seed=rng.randrange(10**6))
        y = sample(spec, seed=rng.randrange(10**6))
        assert spec.member(x)
        assert spec.member(y)
        assert spec.member(tuple_multiply(x, y))
        assert spec.member(tuple_inverse(x))


def test_perturbed_samples_are_rejected():
    # multiplying the dst of a proper edge breaks its equality outright,
    # and a pinned coordinate stops being the identity; self-loop nodes
    # are excluded since their fixed set can absorb a base perturbation
    rng = random.Random(37)
    checked = 0
    while checked < 25:
        m, edges, pins = oracles.random_spec_data(rng)
        spec = SubgroupSpec(m, edges, pins)
        constrained = sorted({e.dst for e in spec.edges if e.src != e.dst}
                             | set(spec.pins))
        if not constrained:
            continue
        value = list(sample(spec, seed=rng.randrange(10**6)))
        index = constrained[rng.randrange(len(constrained))] - 1
        value[index] = value[index] * delta(7)
        assert not spec.member(tuple(value))
        checked += 1


def test_root_projection_is_bijective_on_full_factor_spec():
    # tuples of a free-copies component spec are determined by their root
    # values, and the projection is a homomorphism
    spec = intersection_spec(realize_atom(4, range(1, 5)), 0b0111)
    reports = analyze(spec)
    assert all(r.classification == FULL_FACTOR for r in reports)
    for seed in range(4):
        x = sample(spec, seed=seed)
        y = sample(spec, seed=seed + 100)
        roots_x = [x[r.root - 1] for r in reports]
        roots_y = [y[r.root - 1] for r in reports]
        product = tuple_multiply(x, y)
        assert [product[r.root - 1] for r in reports] == \
            [a * b for a, b in zip(roots_x, roots_y)]
        rebuilt = [IDENTITY] * spec.m
        for report, root_value in zip(reports, roots_x):
            for node in report.nodes:
                rebuilt[node - 1] = report.tree_auts[node](root_value)
        assert tuple(rebuilt) == x


def test_nonfg_witness_empty_candidates():
    spec = chain_twist_spec(3)
    witness = nonfg_witness(spec, [])
    assert witness.witness[0] == delta(1)
    assert spec.member(witness.witness)


def test_nonfg_witness_support_bound_rule():
    spec = chain_twist_spec(2)
    constant = tuple(WreathElement({0: 2}, 0) for _ in range(2))
    witness = nonfg_witness(spec, [constant])
    assert witness.witness[0] == delta(1)
    assert not in_free_abelian_span(witness.witness[0], [constant[0]])
    wide = [tuple(WreathElement({i: 1}, 0) for _ in range(2)) for i in (-2, 2)]
    assert nonfg_witness(spec, wide).witness[0] == delta(3)


def test_nonfg_witness_requires_base_not_fg_component():
    with pytest.raises(ValueError):
        nonfg_witness(SubgroupSpec.free(2), [])


def test_nonfg_witness_rejects_non_member_candidates():
    spec = chain_twist_spec(2)
    with pytest.raises(ValueError):
        nonfg_witness(spec, [(delta(0), delta(1))])


_OPTIMIZED_WITNESS_SCRIPT = """
import sys
from configforge import intersection_spec, realize_atom, subgroups
if __debug__:
    sys.exit(3)  # not running under -O
subgroups.in_free_abelian_span = lambda target, generators: True
spec = intersection_spec(realize_atom(2, [1, 2]), 0b11)
try:
    subgroups.nonfg_witness(spec, [])
except AssertionError:
    sys.exit(0)
sys.exit(1)
"""


def test_nonfg_witness_soundness_checks_run_under_optimize():
    # a span check that wrongly accepts the witness must still be caught
    # when assert statements are compiled away
    package_root = os.path.dirname(os.path.dirname(configforge.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_WITNESS_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_analyzer_matches_naive_oracle_small():
    rng = random.Random(41)
    for _ in range(40):
        m, edges, pins = oracles.random_spec_data(rng)
        spec = SubgroupSpec(m, edges, pins)
        reports = analyze(spec)
        count, fg = oracles.naive_component_count_and_fg(m, edges, pins)
        assert len(reports) == count
        assert all(r.fg for r in reports) == fg


def test_spec_json_roundtrip():
    spec = chain_twist_spec(3).intersect(SubgroupSpec(3, (), [2]))
    data = spec.to_json()
    assert SubgroupSpec.from_json(data) == spec
    with pytest.raises(ValueError):
        SubgroupSpec.from_json({"m": 2, "edges": [{"src": 1}], "pins": []})
    with pytest.raises(ValueError):
        SubgroupSpec.from_json({"m": "x", "edges": [], "pins": []})


@pytest.mark.parametrize("endpoints", [(True, 2), (1, True), (True, True)])
def test_spec_json_rejects_bool_endpoints(endpoints):
    src, dst = endpoints
    data = {"m": 2, "edges": [{"src": src, "dst": dst,
                               "conjugator": {"base": [], "shift": 0}}], "pins": []}
    with pytest.raises(ValueError):
        SubgroupSpec.from_json(data)
