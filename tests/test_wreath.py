"""Arithmetic, automorphism, and centralizer tests for the wreath core."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from configforge import wreath
from configforge import (
    BASE_ONLY,
    CYCLIC,
    IDENTITY,
    TRIVIAL,
    WHOLE_GROUP,
    CentralizerClass,
    ConjugationAut,
    WreathElement,
    classify_centralizer,
    cyclic_centralizer_generator,
    delta,
    in_free_abelian_span,
)


def test_multiply_identity():
    x = WreathElement({0: 1}, 2)
    assert IDENTITY * x == x
    assert x * IDENTITY == x


def test_multiply_shift_translates_base():
    # hand evaluation of (d0, 1) * (d0, -1)
    assert WreathElement({0: 1}, 1) * WreathElement({0: 1}, -1) == \
        WreathElement({0: 1, 1: 1}, 0)


def test_multiply_base_inverse_cancels():
    assert delta(0) * delta(0, -1) == IDENTITY


def test_inverse_examples():
    assert IDENTITY.inverse() == IDENTITY
    assert delta(0).inverse() == delta(0, -1)
    # solve (a, s) * x = identity by hand
    assert WreathElement({0: 1}, 1).inverse() == WreathElement({-1: -1}, -1)


def test_canonical_form():
    assert WreathElement({3: 0, 1: 2}).base == ((1, 2),)
    assert WreathElement([(0, 1), (0, -1)], 5) == WreathElement({}, 5)
    assert WreathElement([(2, 1), (-1, 4)]).base == ((-1, 4), (2, 1))


def test_group_axioms_random():
    rng = random.Random(101)
    for _ in range(200):
        a, b, c = (oracles.random_element(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * IDENTITY == a and IDENTITY * a == a
        assert a * a.inverse() == IDENTITY
        assert a.inverse() * a == IDENTITY


def test_pow():
    g = WreathElement({0: 1}, 2)
    assert g ** 0 == IDENTITY
    assert g ** 1 == g
    assert g ** 2 == g * g
    assert g ** -2 == (g * g).inverse()
    rng = random.Random(53)
    for _ in range(30):
        g = oracles.random_element(rng, radius=2)
        for k in range(-4, 5):
            expected = IDENTITY
            for _ in range(abs(k)):
                expected = expected * (g if k > 0 else g.inverse())
            assert g ** k == expected


def test_pow_large_exponents_in_closed_form():
    start = time.perf_counter()
    assert (WreathElement({0: 1}, 1) ** 8000
            == WreathElement({i: 1 for i in range(8000)}, 8000))
    assert time.perf_counter() - start < 1.0
    assert delta(0, 3) ** 10**12 == delta(0, 3 * 10**12)
    assert WreathElement({}, -2) ** 10**12 == WreathElement({}, -2 * 10**12)


def test_apply_aut_fixes_identity():
    assert ConjugationAut(delta(0))(IDENTITY) == IDENTITY


def test_apply_aut_trivial_on_abelian_base():
    assert ConjugationAut(delta(0))(delta(5, 3)) == delta(5, 3)


def test_apply_aut_on_shift():
    # hand evaluation: conjugating the unit shift by d0
    assert ConjugationAut(delta(0))(WreathElement({}, 1)) == \
        WreathElement({0: 1, 1: -1}, 1)


@pytest.mark.parametrize("conjugator", [5, None, {0: 1}, ConjugationAut(delta(0))])
def test_conjugation_aut_refuses_a_conjugator_that_is_not_an_element(conjugator):
    # each used to be accepted, failing only when applied
    with pytest.raises(ValueError, match="is not a WreathElement"):
        ConjugationAut(conjugator)


def test_aut_homomorphism_and_composition():
    rng = random.Random(7)
    for _ in range(100):
        h1, h2, x, y = (oracles.random_element(rng) for _ in range(4))
        phi, psi = ConjugationAut(h1), ConjugationAut(h2)
        assert phi(x * y) == phi(x) * phi(y)
        assert ConjugationAut(h1 * h2)(x) == phi(psi(x))
        assert phi.inverse()(phi(x)) == x
    assert ConjugationAut(delta(3)).inverse() == ConjugationAut(delta(3, -1))


def test_classify_all_identity_is_whole_group():
    assert classify_centralizer([IDENTITY]).tag == WHOLE_GROUP
    assert classify_centralizer([]).tag == WHOLE_GROUP


def test_classify_base_element_is_base_only():
    cls = classify_centralizer([delta(0)])
    assert cls.tag == BASE_ONLY
    assert not cls.finitely_generated


def test_classify_pure_shift_is_cyclic():
    # brute-force enumeration over the bounded box confirms the generator
    cls = classify_centralizer([WreathElement({}, 1)])
    assert cls.tag == CYCLIC
    assert cls.generator == WreathElement({}, 1)
    assert cls.finitely_generated


def test_classify_mixed_constraints_trivial():
    cls = classify_centralizer([delta(0), WreathElement({}, 1)])
    assert cls.tag == CYCLIC and cls.generator == IDENTITY


def test_classify_matches_box_oracle():
    elements = oracles.box_elements()
    rng = random.Random(13)
    for _ in range(60):
        conjugators = [elements[rng.randrange(len(elements))]
                       for _ in range(rng.randint(1, 3))]
        cls = classify_centralizer(conjugators)
        members = oracles.box_centralizer(conjugators)
        assert members == oracles.class_member_set(cls)
        assert all(cls.contains(x) for x in members)
        for _ in range(40):
            x = elements[rng.randrange(len(elements))]
            assert cls.contains(x) == (x in members)


def test_edge_rule_matches_box_oracle():
    """``edge_holds(a_src, h, a_dst)`` is true exactly when
    a_dst^-1 h a_src commutes, by literal products, with every box member
    of the class.  The classes are those of random box conjugator sets,
    each once, FullFactor and Trivial.  Triples come from the radius-1
    box, half of them built to hold: a_dst = h a_src c with c in the class
    (c = 1 for FullFactor, whose centre is trivial)."""
    elements = oracles.box_elements()
    box = set(elements)
    small = oracles.box_elements(1)
    rng = random.Random(23)
    classes = {classify_centralizer(()), CentralizerClass(TRIVIAL)}
    for _ in range(300):
        conjugators = [elements[rng.randrange(len(elements))]
                       for _ in range(rng.randint(1, 3))]
        classes.add(classify_centralizer(conjugators))
    checked = 0
    for cls in sorted(classes, key=repr):
        if cls.head is not None and cls.generator not in box:
            continue  # its box members are {1}, which every g commutes with
        members = sorted(oracles.class_member_set(cls), key=lambda x: (x.shift, x.base))
        for k in range(40):
            a_src, h, a_dst = (small[rng.randrange(len(small))] for _ in range(3))
            if k % 2:
                c = IDENTITY if cls.tag == WHOLE_GROUP else rng.choice(members)
                a_dst = h * a_src * c
            g = a_dst.inverse() * h * a_src
            expected = all(g * x == x * g for x in members)
            assert cls.edge_holds(a_src, h, a_dst) == expected, (cls, a_src, h, a_dst)
            assert expected or not k % 2
            checked += 1
    assert checked >= 1000


def test_commutation_table_matches_definition():
    elements = oracles.box_elements()
    rng = random.Random(17)
    for _ in range(2000):
        x = elements[rng.randrange(len(elements))]
        g = elements[rng.randrange(len(elements))]
        assert oracles.commutes_in_box(x, g) == (x * g == g * x)


def test_cyclic_generator_pure_shifts():
    assert cyclic_centralizer_generator(WreathElement({}, 1)) == WreathElement({}, 1)
    # the unit shift commutes with the double shift; minimality confirmed
    # by the box enumeration below
    assert cyclic_centralizer_generator(WreathElement({}, 2)) == WreathElement({}, 1)


def test_cyclic_generator_divides_shift():
    gen = cyclic_centralizer_generator(WreathElement({0: 1}, 2))
    assert gen.shift in (1, 2) and 2 % gen.shift == 0
    # the Laurent divisibility test rejects shift 1 here
    assert gen == WreathElement({0: 1}, 2)


def test_cyclic_generator_commutes_and_spans_box():
    rng = random.Random(19)
    elements = oracles.box_elements()
    shifted = [e for e in elements if e.shift]
    for _ in range(40):
        h = shifted[rng.randrange(len(shifted))]
        gen = cyclic_centralizer_generator(h)
        assert gen.commutes_with(h)
        members = oracles.box_centralizer([h])
        limit = 2 // gen.shift if gen.shift else 0
        powers = {gen ** k for k in range(-(2 * limit + 4), 2 * limit + 5)}
        assert members <= powers


def test_classify_commuting_powers_is_centralizer_of_first():
    rng = random.Random(59)
    for shift in (1, 2, -3, 4, 6):
        for _ in range(5):
            g = WreathElement({i: rng.randint(-2, 2) for i in range(-2, 3)}, shift)
            cls = classify_centralizer([g ** 2, g ** -3, g ** 6])
            assert cls.tag == CYCLIC
            assert cls.generator == cyclic_centralizer_generator(g ** 2)


def test_classify_huge_shift_is_instant():
    for shift in (10**9, -10**9):
        h = WreathElement({0: 1}, shift)
        start = time.perf_counter()
        cls = classify_centralizer([h])
        assert time.perf_counter() - start < 1.0
        assert cls.tag == CYCLIC
        assert cls.generator == (h if shift > 0 else h.inverse())


def test_cyclic_generator_rejects_zero_shift():
    with pytest.raises(ValueError):
        cyclic_centralizer_generator(delta(0))


def test_centralizer_class_contains_base_generator():
    # the centralizer of a shift-zero element is the base, not a cyclic
    # group, so no Cyclic class has such a head; no other class has one
    with pytest.raises(ValueError):
        CentralizerClass(CYCLIC, delta(0, 2))
    with pytest.raises(ValueError):
        CentralizerClass(BASE_ONLY, WreathElement({}, 1))


def test_centralizer_class_refuses_unknown_tags():
    # an unknown tag would otherwise pass as a finitely generated trivial group
    for tag in ("Bogus", "trivial", "", None, 1):
        with pytest.raises(ValueError, match="unknown centralizer class"):
            CentralizerClass(tag)
    with pytest.raises(ValueError):
        CentralizerClass(TRIVIAL, WreathElement({}, 1))
    trivial = CentralizerClass(TRIVIAL)
    assert trivial.finitely_generated and trivial.is_trivial
    assert trivial.generator == IDENTITY
    assert trivial.contains(IDENTITY) and not trivial.contains(delta(0))


def test_cyclic_generator_term_limit(monkeypatch):
    # (1 + x^N) / (1 + x) has N terms: refused past the limit before any
    # term is built, however far apart the two input indices are
    start = time.perf_counter()
    with pytest.raises(ValueError, match="terms"):
        cyclic_centralizer_generator(WreathElement({0: 1, 10**12 + 1: 1}, 2))
    assert time.perf_counter() - start < 1.0
    monkeypatch.setattr(wreath, "MAX_GENERATOR_TERMS", 5)
    assert len(cyclic_centralizer_generator(WreathElement({0: 1, 5: 1}, 2)).base) == 5
    with pytest.raises(ValueError, match="terms"):
        cyclic_centralizer_generator(WreathElement({0: 1, 7: 1}, 2))


def test_centralizer_class_contains_large_shift_without_powers():
    start = time.perf_counter()
    pure = CentralizerClass(CYCLIC, WreathElement({}, 1))
    assert pure.contains(WreathElement({}, 10**9))
    assert pure.contains(WreathElement({}, -10**9))
    assert not pure.contains(WreathElement({0: 1}, 10**9))
    # (d0, 1)^(10^9) has 10^9 terms in its base, so the bare shift is no power
    based = CentralizerClass(CYCLIC, WreathElement({0: 1}, 1))
    assert not based.contains(WreathElement({}, 10**9))
    assert not based.contains(WreathElement({0: 1, 10**9 - 1: 1}, 10**9))
    # C((0, 2)) is generated by (0, 1)
    assert CentralizerClass(CYCLIC, WreathElement({}, 2)).contains(
        WreathElement({}, 10**9 + 1))
    assert time.perf_counter() - start < 1.0


# -- properties of the kernel against the long forms -------------------------

_indices = st.one_of(st.integers(-6, 6), st.integers(-10**12, 10**12))
_bases = st.lists(st.tuples(_indices, st.integers(-3, 3)), max_size=6)
_shifts = st.one_of(st.integers(-4, 4), st.integers(-10**9, 10**9))
elements = st.one_of(
    st.just(IDENTITY),
    st.builds(WreathElement, _bases, st.just(0)),
    st.builds(WreathElement, st.just(()), _shifts),
    st.builds(WreathElement, _bases, _shifts),
)


def _long_product(x, y):
    """(a, s) * (b, t) = (a + s.b, s + t) through the canonicalising constructor."""
    s = x.shift
    return WreathElement(list(x.base) + [(i + s, c) for i, c in y.base], s + y.shift)


def _long_inverse(x):
    s = x.shift
    return WreathElement([(i - s, -c) for i, c in x.base], -s)


def _assert_canonical(r):
    assert isinstance(r.base, tuple)
    assert all(type(pair) is tuple and len(pair) == 2 for pair in r.base)
    indices = [i for i, _ in r.base]
    assert all(i < j for i, j in zip(indices, indices[1:]))
    assert all(c != 0 for _, c in r.base)
    rebuilt = WreathElement(dict(r.base), r.shift)
    assert r == rebuilt and hash(r) == hash(rebuilt)


@settings(max_examples=300, deadline=None)
@given(elements, elements)
def test_conjugation_matches_long_form(h, x):
    got = ConjugationAut(h)(x)
    _assert_canonical(got)
    assert got == _long_product(_long_product(h, x), _long_inverse(h))


# one (conjugator, argument) pair per branch of WreathElement.conjugate
_CONJUGATE_SHORTCUTS = {
    "identity-conjugator": (IDENTITY, WreathElement({0: 1, 2: -1}, 1)),
    "identity-argument": (WreathElement({0: 1, 1: 2}, -1), IDENTITY),
    "empty-base-conjugator": (WreathElement({}, 2), WreathElement({-1: 3, 1: 1}, -1)),
    "shift-zero-argument": (WreathElement({0: 1}, 3), WreathElement({0: 2, 4: -1})),
    # the merge cancels the coefficient at index 0
    "general-merge": (WreathElement({0: 1}, 1), WreathElement({-1: -1}, 1)),
    # an empty base alone is no identity: this one merges too
    "shift-only-argument": (WreathElement({0: 1}, 1), WreathElement({}, 2)),
    # the conjugator's term at 0 cancels the argument's translated term
    "insert-cancels": (WreathElement({0: 2, 3: 1}, 1), WreathElement({-1: -2, 5: 1}, 2)),
    "insert-before-first": (WreathElement({-5: 1}, 0), WreathElement({0: 1, 2: 1}, 1)),
    "insert-after-last": (WreathElement({9: 1, 12: -1}, 0), WreathElement({0: 1, 2: 1}, -1)),
    "conjugator-past-cutoff": (
        WreathElement({i: 1 for i in range(wreath._INSERT_MAX_TERMS + 1)}, 1),
        WreathElement({0: 1, 4: -1}, 3)),
}


@pytest.mark.parametrize("case", [*_CONJUGATE_SHORTCUTS, "random"])
def test_conjugate_equals_product(case):
    rng = random.Random(24)
    pairs = ([(oracles.random_element(rng), oracles.random_element(rng)) for _ in range(300)]
             if case == "random" else [_CONJUGATE_SHORTCUTS[case]])
    for h, x in pairs:
        got = h.conjugate(x)
        _assert_canonical(got)
        assert got == h * x * h.inverse(), (h, x)
        assert ConjugationAut(h)(x) == got


def test_conjugate_power_and_commutation_stay_fast_on_large_operands():
    # adding a conjugator's terms one by one into the argument is quadratic
    # when both are large; past the cut-off conjugate merges them instead
    n = 1 << 16
    h = WreathElement({3 * i: 1 for i in range(n)}, 1)
    x = WreathElement({3 * i + 1: 2 for i in range(n)}, 1)
    results = {}
    for name, run in [("conjugate", lambda: h.conjugate(x)), ("power", lambda: x ** 3),
                      ("negative power", lambda: h ** -2),
                      ("commutes_with", lambda: h.commutes_with(x))]:
        start = time.perf_counter()
        results[name] = run()
        assert time.perf_counter() - start < 1.0, name
    assert len(results["conjugate"].base) == 3 * n and results["conjugate"].shift == 1
    assert len(results["power"].base) == 3 * n and len(results["negative power"].base) == 2 * n
    assert results["commutes_with"] is False


@settings(max_examples=300, deadline=None)
@given(elements, st.integers(-4, 4))
def test_pow_matches_long_products(x, k):
    got = x ** k
    _assert_canonical(got)
    factor = x if k >= 0 else _long_inverse(x)
    expected = IDENTITY
    for _ in range(abs(k)):
        expected = _long_product(expected, factor)
    assert got == expected


@settings(max_examples=300, deadline=None)
@given(elements, elements)
def test_product_and_inverse_canonical(x, y):
    product = x * y
    _assert_canonical(product)
    assert product == _long_product(x, y)
    inverse = x.inverse()
    _assert_canonical(inverse)
    assert inverse == _long_inverse(x)


@settings(max_examples=300, deadline=None)
@given(elements.flatmap(lambda x: st.tuples(
    st.just(x), st.one_of(elements, st.integers(-3, 3).map(lambda k: x ** k)))))
def test_commutes_with_matches_products(pair):
    x, y = pair
    assert x.commutes_with(y) == (_long_product(x, y) == _long_product(y, x))


_small_elements = st.builds(
    WreathElement, st.lists(st.tuples(st.integers(-4, 4), st.integers(-2, 2)), max_size=4),
    st.integers(-4, 4))


# one window of indices per base, placed at 0 or +-10**12: terms far apart
# relative to the shift can give a generator with that many terms, which
# is output, not search, and too large to build here
_windows = st.tuples(st.sampled_from([0, 10**12, -10**12]),
                     st.lists(st.tuples(st.integers(-6, 6), st.integers(-3, 3)), max_size=4))


def _placed(window):
    return [(window[0] + i, c) for i, c in window[1]]


_roots = st.builds(
    WreathElement, _windows.map(_placed),
    st.one_of(st.integers(1, 4), st.integers(-4, -1),
              st.integers(10**9 - 2, 10**9), st.integers(-10**9, -10**9 + 2)))


@settings(max_examples=300, deadline=None)
@given(st.builds(WreathElement, _windows.map(_placed), st.sampled_from([-3, -2, -1, 1, 2, 3])),
       st.integers(-6, 6), st.one_of(st.just(IDENTITY), _small_elements))
def test_contains_matches_powers(head, k, perturbation):
    cls = classify_centralizer([head])
    gen = cls.generator
    x = gen ** k * perturbation
    member = x.shift % gen.shift == 0 and gen ** (x.shift // gen.shift) == x
    assert cls.contains(x) == member == head.commutes_with(x)


@settings(max_examples=300, deadline=None)
@given(_roots, st.sampled_from([k for k in range(-6, 7) if k]))
def test_cyclic_generator_of_power(g, k):
    h = g ** k
    gen = cyclic_centralizer_generator(h)
    assert gen.shift > 0 and abs(h.shift) % gen.shift == 0
    assert gen.commutes_with(h)
    centralizer = CentralizerClass(CYCLIC, gen)
    assert centralizer.contains(h)
    assert centralizer.contains(g)  # g lies in C(h) = <gen>


def test_span_examples():
    assert in_free_abelian_span(IDENTITY, [])
    assert not in_free_abelian_span(delta(0), [delta(0, 2)])  # 2x = 1 over Z
    assert in_free_abelian_span(WreathElement({0: 1, 1: 1}), [delta(0), delta(1)])


def test_span_rejects_shifted_inputs():
    with pytest.raises(ValueError):
        in_free_abelian_span(WreathElement({}, 1), [])
    with pytest.raises(ValueError):
        in_free_abelian_span(IDENTITY, [WreathElement({}, 1)])


def test_span_matches_bounded_search():
    rng = random.Random(23)
    undecided = 0
    for _ in range(150):
        def base_elem():
            return WreathElement(
                {i: rng.randint(-3, 3) for i in range(-3, 4) if rng.random() < 0.5}, 0)
        generators = [base_elem() for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.5 and generators:
            # force plenty of positive cases
            target = IDENTITY
            for g in generators:
                target = target * (g ** rng.randint(-2, 2))
        else:
            target = base_elem()
        got = in_free_abelian_span(target, generators)
        expected = oracles.span_membership_oracle(target, generators)
        if expected is None:
            undecided += 1
            continue
        assert got == expected, (target, generators)
    assert undecided < 30


@pytest.mark.parametrize("k, expected", [(40, False), (45, True), (50, True), (60, True)])
def test_span_of_dense_generators_is_decided_in_under_a_second(k, expected):
    # k dense generators over 40 indices, target inside their support: an
    # elimination that lets its entries grow took 37 s at k = 45
    r = random.Random(k)
    generators = [WreathElement({i: r.randint(-9, 9) for i in range(40)}) for _ in range(k)]
    start = time.perf_counter()
    assert in_free_abelian_span(delta(0), generators) is expected
    assert time.perf_counter() - start < 1.0


def _structured_generators(family, k, width, r):
    if family == "dense":
        return [{i: r.randint(-9, 9) for i in range(width)} for _ in range(k)]
    if family == "banded":
        band = width - k + 1
        return [{s + t: r.randint(-9, 9) for t in range(band)} for s in range(k)]
    # cyclic shifts of a few random rows
    rows = [[r.randint(-9, 9) for _ in range(width)] for _ in range(-(-k // width))]
    return [{(s + t) % width: rows[s // width][t] for t in range(width)} for s in range(k)]


@pytest.mark.parametrize("family, k, width", [
    ("dense", 45, 40), ("dense", 60, 40), ("banded", 30, 80), ("circulant", 80, 30)])
def test_span_decides_structured_lattices(family, k, width):
    r = random.Random(f"{family} {k} {width}")
    vectors = _structured_generators(family, k, width, r)
    generators = [WreathElement(v) for v in vectors]
    doubled = [WreathElement({i: 2 * c for i, c in v.items()}) for v in vectors]
    for _ in range(3):
        coefficients = [r.randint(-5, 5) for _ in vectors]
        combination = IDENTITY
        for g, c in zip(generators, coefficients):
            combination = combination * g ** c
        assert in_free_abelian_span(combination, generators)
        even = combination * combination
        assert in_free_abelian_span(even, doubled)
        # one odd coefficient, inside the support: the support test cannot decide it
        odd = even * delta(r.randrange(width))
        assert not in_free_abelian_span(odd, doubled)


def test_element_json_roundtrip():
    x = WreathElement({-2: 5, 7: -1}, 3)
    assert WreathElement.from_json(x.to_json()) == x
    with pytest.raises(ValueError):
        WreathElement.from_json({"base": [[0, 1]], "shift": "no"})
    with pytest.raises(ValueError):
        WreathElement.from_json({"base": [[0]], "shift": 0})
