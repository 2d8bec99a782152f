"""Constraint subgroups: intersection, membership, analysis, sampling,
and non-finite-generation witnesses."""

import os
import pickle
import random
import subprocess
import sys
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import configforge
import oracles
from configforge import subgroups, wreath
from configforge import (
    BASE_NOT_FG,
    CYCLIC,
    FULL_FACTOR,
    IDENTITY,
    ConjugationAut,
    IDENTITY_AUT,
    TRIVIAL,
    TWIST_AUT,
    Edge,
    SubgroupSpec,
    WreathElement,
    analyze,
    classify_centralizer,
    delta,
    in_free_abelian_span,
    intersection_spec,
    nonfg_witness,
    realize_atom,
    sample,
)
from configforge.subgroups import (identity_tuple, is_finitely_generated, tuple_inverse,
                                  tuple_multiply)


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


@pytest.mark.parametrize("endpoints", [(True, 2), (1, True), ("1", 2), (1, None)])
def test_constructor_rejects_non_integer_endpoints(endpoints):
    with pytest.raises(ValueError):
        SubgroupSpec(2, [Edge(*endpoints, IDENTITY_AUT)])


@pytest.mark.parametrize("label, message", [
    (delta(0), "edge 1: label WreathElement({0: 1}, shift=0) is not a ConjugationAut"),
    (None, "edge 1: label None is not a ConjugationAut"),
    ("x" * 200, "edge 1: label 'xxx"),
])
def test_constructor_refuses_labels_that_are_not_conjugation_auts(label, message):
    # a bare element used to be accepted, and analyze then raised
    # AttributeError on its missing conjugator
    with pytest.raises(ValueError) as excinfo:
        SubgroupSpec(2, [Edge(1, 2, IDENTITY_AUT), Edge(1, 2, label)])
    assert str(excinfo.value).startswith(message)
    assert len(str(excinfo.value)) < 140


def test_constructor_rejects_non_integer_pins():
    for pins in ([True], ["1"], [[1]]):
        with pytest.raises(ValueError):
            SubgroupSpec(2, (), pins)


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


def test_analyze_reports_are_immutable():
    report = analyze(chain_twist_spec(2))[0]
    snapshot = (dict(report.conjugators), report.classification)
    with pytest.raises(TypeError):
        report.conjugators[1] = TWIST_AUT.conjugator
    with pytest.raises(AttributeError):
        report.classification = FULL_FACTOR
    again = analyze(chain_twist_spec(2))[0]
    assert (dict(again.conjugators), again.classification) == snapshot


def test_analyze_pinned_node_wins_over_holonomy():
    spec = chain_twist_spec(3).intersect(SubgroupSpec(3, (), [2]))
    reports = analyze(spec)
    assert [r.classification for r in reports] == [TRIVIAL]


def test_pinned_component_carries_no_automorphisms_and_stays_identity():
    # coordinates 1-2 form a twisted cycle pinned at 2; 3-4 are unpinned
    spec = SubgroupSpec(4, [Edge(1, 2, TWIST_AUT), Edge(2, 1, IDENTITY_AUT),
                            Edge(3, 4, TWIST_AUT)], [2])
    pinned, free = analyze(spec)
    assert (pinned.nodes, pinned.classification) == (frozenset({1, 2}), TRIVIAL)
    assert dict(pinned.conjugators) == {}
    assert pinned.holonomy == ()
    assert pinned.centralizer.tag == TRIVIAL and pinned.fg is True
    assert pinned.centralizer.is_trivial
    assert set(free.conjugators) == {3, 4}
    for seed in range(5):
        value = sample(spec, seed=seed)
        assert value[:2] == (IDENTITY, IDENTITY)
        assert not value[2].is_identity
        assert spec.member(value)


def test_spec_keeps_repeated_constraints_in_order():
    e = Edge(1, 2, TWIST_AUT)
    assert SubgroupSpec(2, [e, e]).edges == (e, e)
    backward = Edge(2, 1, TWIST_AUT.inverse())
    loops = [Edge(1, 1, TWIST_AUT), Edge(1, 1, TWIST_AUT.inverse())]
    assert SubgroupSpec(2, [backward, e, *loops]).edges == (backward, e, *loops)
    # a genuinely different label on the reverse edge is kept
    assert SubgroupSpec(2, [e, Edge(2, 1, TWIST_AUT)]).edges == (e, Edge(2, 1, TWIST_AUT))
    # intersect concatenates, so a spec met with itself repeats its edges
    spec = SubgroupSpec(2, [e], [2])
    assert spec.intersect(spec) == SubgroupSpec(2, [e, e], [2]) != spec
    # the repeat closes a cycle whose holonomy is the identity
    assert analyze(SubgroupSpec(2, [e, e]))[0].holonomy == (IDENTITY,)


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


def test_analyze_builds_no_generator_and_sample_builds_each_once(monkeypatch):
    # a shifted self-loop on 1 and a two-edge cycle on 2-3 with a shifted
    # holonomy: two Cyclic components
    spec = SubgroupSpec(3, [Edge(1, 1, ConjugationAut(WreathElement({0: 1}, 2))),
                            Edge(2, 3, ConjugationAut(WreathElement({}, 1))),
                            Edge(3, 2, IDENTITY_AUT)])
    original = wreath.cyclic_centralizer_generator

    def refuse(head):
        raise AssertionError("a generator was built")

    analyze.cache_clear()
    monkeypatch.setattr(wreath, "cyclic_centralizer_generator", refuse)
    reports = analyze(spec)
    assert [r.classification for r in reports] == [CYCLIC, CYCLIC]
    assert all(r.fg for r in reports)
    built = []

    def counting(head):
        built.append(head)
        return original(head)

    monkeypatch.setattr(wreath, "cyclic_centralizer_generator", counting)
    for seed in range(4):
        assert spec.member(sample(spec, seed=seed))
    assert built == [r.centralizer.head for r in reports]


def test_sample_size_bound_limits():
    spec = chain_twist_spec(3)
    for bound in (127, 128, 300):
        assert spec.member(sample(spec, seed=1, size_bound=bound))
    for bound in (-1, 2.0, True):
        with pytest.raises(ValueError, match="size_bound"):
            sample(spec, seed=1, size_bound=bound)


def reference_member(spec, values):
    """Membership as one loop over the pins and one over the edges."""
    if len(values) != spec.m:
        raise ValueError("length")
    for i in spec.pins:
        v = values[i - 1]
        if v.base or v.shift:
            return False
    for edge in spec.edges:
        if values[edge.dst - 1] != edge.label(values[edge.src - 1]):
            return False
    return True


# elements equal to each other but not the same object, several of them
# equal to the identity, and labels both identity and twisted
_POOL = (IDENTITY, WreathElement(), delta(0), delta(1), delta(0, -1),
         WreathElement({}, 1), WreathElement({0: 1}, 1))
_LABELS = (IDENTITY_AUT, ConjugationAut(WreathElement()), TWIST_AUT,
           ConjugationAut(WreathElement({}, 1)), ConjugationAut(WreathElement({0: 1}, 1)))


def _copy(x):
    return WreathElement(x.base, x.shift)


@st.composite
def spec_and_values(draw):
    m = draw(st.integers(1, 5))
    coord = st.integers(1, m)
    edges = draw(st.lists(st.tuples(coord, coord, st.sampled_from(_LABELS)), max_size=4))
    pins = draw(st.lists(coord, max_size=2))
    spec = SubgroupSpec(m, [Edge(*e) for e in edges], pins)
    if draw(st.booleans()):
        values = list(sample(spec, seed=draw(st.integers(0, 99)), size_bound=1))
    else:
        values = [draw(st.sampled_from(_POOL)) for _ in range(m)]
    copies = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    values = [_copy(x) if c else x for x, c in zip(values, copies)]
    return spec, values if draw(st.booleans()) else tuple(values)


@settings(max_examples=400, deadline=None)
@given(spec_and_values())
def test_member_matches_reference_loop(case):
    spec, values = case
    assert spec.member(values) == reference_member(spec, values)


def test_member_single_pin_and_single_edge():
    pinned = SubgroupSpec(2, (), [2])
    assert pinned.member((delta(3), WreathElement()))
    assert pinned.member([delta(3), _copy(IDENTITY)])
    assert not pinned.member((IDENTITY, delta(0)))
    loop = SubgroupSpec(1, [Edge(1, 1, TWIST_AUT)])
    assert loop.member((delta(5),)) and not loop.member((WreathElement({}, 1),))
    equal = SubgroupSpec(2, [Edge(2, 1, IDENTITY_AUT)])
    assert equal.member((delta(1), _copy(delta(1))))
    assert not equal.member([delta(1), delta(0)])


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
                rebuilt[node - 1] = report.conjugators[node].conjugate(root_value)
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
from configforge import (CYCLIC, CentralizerClass, WreathElement,
                         cyclic_centralizer_generator, delta, intersection_spec,
                         realize_atom, subgroups)
if __debug__:
    sys.exit(3)  # not running under -O
try:
    CentralizerClass(CYCLIC, delta(0))
    sys.exit(4)  # a shift-zero Cyclic head was accepted
except ValueError:
    pass
try:
    cyclic_centralizer_generator(WreathElement({0: 1, 10**12 + 1: 1}, 2))
    sys.exit(5)  # a generator past the term limit was built
except ValueError:
    pass
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
    # when assert statements are compiled away, and the checks on a
    # centralizer's head and generator size must still raise
    package_root = os.path.dirname(os.path.dirname(configforge.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_WITNESS_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_spec_unpickled_from_another_process_hashes_like_a_fresh_one():
    # string hashes differ between processes, so a spec's cached hash must
    # not travel with it
    package_root = os.path.dirname(os.path.dirname(configforge.__file__))
    env = dict(os.environ, PYTHONHASHSEED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    script = ("import pickle, sys\n"
              "from configforge import Edge, SubgroupSpec, TWIST_AUT\n"
              "spec = SubgroupSpec(2, [Edge(1, 2, TWIST_AUT)], [2])\n"
              "sys.stdout.buffer.write(pickle.dumps(spec))\n")
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr
    spec = pickle.loads(result.stdout)
    fresh = SubgroupSpec(2, [Edge(1, 2, TWIST_AUT)], [2])
    assert spec == fresh and hash(spec) == hash(fresh)
    assert analyze(spec) is analyze(fresh)


def test_spec_pickles_after_member_builds_its_plan():
    # member's plan holds lambdas; a spec that has one must pickle all the same
    spec = SubgroupSpec(3, [Edge(1, 2, TWIST_AUT), Edge(2, 3, IDENTITY_AUT)], [3])
    tuples = [sample(spec, seed=seed) for seed in range(3)]
    tuples += [(delta(0), delta(0), IDENTITY), (WreathElement({}, 1),) * 2 + (IDENTITY,)]
    verdicts = [spec.member(values) for values in tuples]
    assert spec._plan is not None and True in verdicts and False in verdicts
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and hash(copy) == hash(spec)
    assert [copy.member(values) for values in tuples] == verdicts


def reference_analyze(spec):
    """``analyze`` as it was before isolated coordinates were shared: a BFS
    from every coordinate 1..m, each report built afresh."""
    adjacency = {i: [] for i in range(1, spec.m + 1)}
    for k, e in enumerate(spec.edges):
        adjacency[e.src].append((e.dst, k, True))
        if e.dst != e.src:
            adjacency[e.dst].append((e.src, k, False))
    for lst in adjacency.values():
        lst.sort(key=lambda item: (item[0], item[1]))
    visited = set()
    reports = []
    for root in range(1, spec.m + 1):
        if root in visited:
            continue
        visited.add(root)
        order, tree, met_edges = [root], [], set()
        for u in order:
            for v, k, forward in adjacency[u]:
                met_edges.add(k)
                if v not in visited:
                    visited.add(v)
                    order.append(v)
                    tree.append((u, v, k, forward))
        nodes = frozenset(order)
        if not nodes.isdisjoint(spec.pins):
            reports.append(subgroups.ComponentReport(
                nodes, root, MappingProxyType({}), (), wreath.CentralizerClass(TRIVIAL)))
            continue
        conj = {root: IDENTITY}
        for u, v, k, forward in tree:
            h = spec.edges[k].label.conjugator
            conj[v] = (h if forward else h.inverse()) * conj[u]
        met_edges.difference_update(k for _, _, k, _ in tree)
        holonomy = []
        for k in sorted(met_edges):
            e = spec.edges[k]
            holonomy.append(conj[e.dst].inverse() * e.label.conjugator * conj[e.src])
        cclass = classify_centralizer(holonomy)
        reports.append(subgroups.ComponentReport(
            nodes, root, MappingProxyType(conj), tuple(holonomy), cclass))
    return tuple(reports)


def _report_fields(report):
    return (report.nodes, report.root,
            dict(report.conjugators),
            report.holonomy, report.classification, report.centralizer, report.fg)


@st.composite
def sparse_specs(draw):
    """Specs on up to 9 coordinates with at most 5 base edges, so most
    have isolated coordinates, pinned or not, next to pinned and unpinned
    multi-node components; edges are repeated with another label
    (parallel), reversed with the same or the inverse label, or self-loops."""
    m = draw(st.integers(1, 9))
    coord = st.integers(1, m)
    edges = []
    for src, dst, label in draw(st.lists(st.tuples(coord, coord, st.sampled_from(_LABELS)),
                                         max_size=5)):
        edges.append(Edge(src, dst, label))
        copy = draw(st.sampled_from(("none", "parallel", "reversed", "inverse")))
        if copy == "parallel":
            edges.append(Edge(src, dst, draw(st.sampled_from(_LABELS))))
        elif copy == "reversed":
            edges.append(Edge(dst, src, label))
        elif copy == "inverse":
            edges.append(Edge(dst, src, label.inverse()))
    loops = draw(st.lists(st.tuples(coord, st.sampled_from(_LABELS)), max_size=2))
    edges += [Edge(i, i, label) for i, label in loops]
    return SubgroupSpec(m, draw(st.permutations(edges)), draw(st.lists(coord, max_size=4)))


@settings(max_examples=500, deadline=None)
@given(sparse_specs())
def test_analyze_matches_reference_field_by_field(spec):
    reports, expected = analyze(spec), reference_analyze(spec)
    assert len(reports) == len(expected)
    for got, want in zip(reports, expected):
        assert _report_fields(got) == _report_fields(want)


def reference_sample(spec, seed, b):
    """``sample`` as its docstring states it: one ``randint(-b, b)`` per
    value, in component order, a FullFactor root's shift before its
    coefficients."""
    rng = random.Random(seed)
    values = [IDENTITY] * spec.m
    for report in analyze(spec):
        if report.classification == TRIVIAL:
            continue
        if report.classification == CYCLIC:
            root = report.centralizer.generator ** rng.randint(-b, b)
        else:
            shift = rng.randint(-b, b) if report.classification == FULL_FACTOR else 0
            root = WreathElement({i: rng.randint(-b, b) for i in range(-b, b + 1)}, shift)
        for node in report.nodes:
            values[node - 1] = report.conjugators[node].conjugate(root)
    return tuple(values)


@settings(max_examples=150, deadline=None)
@given(sparse_specs(), st.integers(0, 2**64), st.integers(0, 300))
def test_sample_equals_randint_reference(spec, seed, bound):
    # bounds from 128 up draw more than 8 bits per value
    assert sample(spec, seed, bound) == reference_sample(spec, seed, bound)


def _old_constraint_key(edge):
    """The key by which specs once dropped repeated constraints: an edge
    and its reverse with the inverse label, and the two readings of a
    self-loop, are one constraint."""
    h = edge.label.conjugator
    if edge.src == edge.dst:
        pick = min(h, h.inverse(), key=lambda x: (x.shift, x.base))
        return (edge.src, edge.src, pick.shift, pick.base)
    if edge.src < edge.dst:
        return (edge.src, edge.dst, h.shift, h.base)
    inv = h.inverse()
    return (edge.dst, edge.src, inv.shift, inv.base)


def _deduplicated(spec):
    """``spec`` with each repeated constraint after its first occurrence dropped."""
    seen, kept = set(), []
    for edge in spec.edges:
        key = _old_constraint_key(edge)
        if key not in seen:
            seen.add(key)
            kept.append(edge)
    return SubgroupSpec(spec.m, kept, spec.pins)


def _fields_but_holonomy(report):
    nodes, root, auts, _, *rest = _report_fields(report)
    return nodes, root, auts, *rest


@st.composite
def specs_with_repeats(draw):
    """``sparse_specs`` with some edges repeated as given or reversed with
    the inverse label (for a self-loop, the inverse reading), shuffled."""
    spec = draw(sparse_specs())
    edges = list(spec.edges)
    for src, dst, label in spec.edges:
        copy = draw(st.sampled_from(("none", "same", "inverse")))
        if copy == "same":
            edges.append(Edge(src, dst, label))
        elif copy == "inverse":
            edges.append(Edge(dst, src, label.inverse()))
    return SubgroupSpec(spec.m, draw(st.permutations(edges)), spec.pins)


@settings(max_examples=300, deadline=None)
@given(specs_with_repeats())
def test_repeated_constraints_change_no_analysis_or_sample(spec):
    # only the holonomy lists may differ: a repeat adds the identity, or an
    # earlier holonomy again or its inverse, after the first occurrence
    unique = _deduplicated(spec)
    assert ([_fields_but_holonomy(r) for r in analyze(spec)]
            == [_fields_but_holonomy(r) for r in analyze(unique)])
    for seed in range(3):
        assert sample(spec, seed) == sample(unique, seed)


def test_isolated_coordinate_report_is_shared_across_specs():
    # coordinate 3 is named by no edge in either spec; 4 is pinned in both
    a = SubgroupSpec(4, [Edge(1, 2, TWIST_AUT)], [4])
    b = SubgroupSpec(4, [Edge(2, 1, IDENTITY_AUT)], [1, 4])
    (_, free_a, pinned_a), (_, free_b, pinned_b) = analyze(a), analyze(b)
    assert free_a is free_b and free_a.classification == FULL_FACTOR
    assert pinned_a is pinned_b and pinned_a.classification == TRIVIAL


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
