"""Realization pipeline: atoms, block products, certificates, and the
fixed-subgroup decomposition of permutational automorphisms."""

import dataclasses
import hashlib
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from configforge import cli, realization, subgroups
from configforge import (
    BASE_NOT_FG,
    CYCLIC,
    FULL_FACTOR,
    IDENTITY,
    IDENTITY_AUT,
    TRIVIAL,
    TWIST_AUT,
    Configuration,
    ConjugationAut,
    Edge,
    PermutationalAut,
    RealizationCertificate,
    SubgroupSpec,
    WreathElement,
    analyze,
    delta,
    embed_orbit_roots,
    enumerate_configurations,
    fixed_subgroup,
    intersection_spec,
    mask_elements,
    realize,
    realize_atom,
    sample,
    subset_checks,
    verify,
)

# sha256 of the certificate files ``configforge realize`` writes for the
# full configurations; n = 5 and 6 as recorded in bench/reference.json
FULL_CERT_SHA256 = {
    5: "708f18d22f40a4878ff5c31010d3d44adb47ddb5bde2e011d2abda92c4bd7297",
    6: "37299ca243d0ba04cb9858ba7c1a4a742125f6f2ca5448998a6b8aa2d28efa76",
    7: "68374fd5cb868abbea16e182313bfe6660806bbdb2d235a83c4feea607adbd1b",
}
# leading 8 bytes of the sha256 of every n = 4 certificate, indexed by
# the configuration's 15-bit value table
DIGESTS_N4 = Path(__file__).resolve().parents[1] / "bench" / "digests_n4.bin"
# sha256 of the members sampled below: ``verify --seed S`` tests exactly
# such members, so changing them is a change of the CLI contract
SAMPLE_STREAM_SHA256 = "4d682b38c69e5a56f331a5eed314d8afa0a434779d2eb6700ea9228267ce719a"
# the same for the fixed subgroup below, whose orbits are Cyclic,
# BaseNotFG and FullFactor, sampled at several size bounds
FIXED_SAMPLE_STREAM_SHA256 = "877d8c9888b3479e524e7f6032b3785d6baa87a1e4ade425a6e84346aa55c4f5"


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_realize_atom_is_one_block_of_realize(n):
    for mask in range(1, 1 << n):
        assert realize_atom(n, mask_elements(mask)) == list(realize(Configuration(n, [mask])).specs)
    assert realize(Configuration(n)).specs == (SubgroupSpec(n, (), range(1, n + 1)),) * n


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
    with pytest.raises(ValueError, match="samples"):
        verify(cert, samples=-3)


def test_check_subset_rejects_bool_and_float_samples():
    # True would sample once and 2.0 would fail inside range()
    cert = realize(Configuration(2, [0b11]))
    for samples in (True, 2.0):
        with pytest.raises(ValueError, match="samples must be a nonnegative integer"):
            realization.check_subset(cert, 0b11, samples=samples)
        with pytest.raises(ValueError, match="samples"):
            verify(cert, samples=samples)


def test_verify_checks_samples_against_constituents(monkeypatch):
    cert = realize(Configuration(3, range(1, 8)))
    target = 0b101
    target_spec = intersection_spec(cert.specs, target)
    original = realization.sample

    def tampered(spec, seed=0, size_bound=2):
        value = list(original(spec, seed=seed, size_bound=size_bound))
        if spec == target_spec:
            value[min(spec.pins) - 1] = delta(0)
        return tuple(value)

    monkeypatch.setattr(realization, "sample", tampered)
    assert dict(subset_checks(cert, samples=8)) == {
        mask: "sample-rejected" if mask == target else None for mask in range(1, 8)}
    assert not verify(cert, samples=8)


def test_full_certificate_bytes_match_recorded_digests(tmp_path):
    path = tmp_path / "cert.json"
    for n, digest in FULL_CERT_SHA256.items():
        cli._dump_json(realize(Configuration(n, range(1, 1 << n))).to_json(), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, f"n = {n}"


def _n4_config(code):
    """The n = 4 configuration whose value table is the 15-bit ``code``."""
    return Configuration(4, [m for m in range(1, 16) if code >> (m - 1) & 1])


def _digest_prefix(cert, path):
    cli._dump_json(cert.to_json(), str(path))
    return hashlib.sha256(path.read_bytes()).digest()[:8]


def test_n4_certificate_bytes_match_recorded_digests(tmp_path):
    table = DIGESTS_N4.read_bytes()
    path = tmp_path / "cert.json"
    for code in range(0, 1 << 15, 128):
        assert _digest_prefix(realize(_n4_config(code)), path) == table[8 * code:8 * code + 8], \
            f"n = 4 code {code}"


def test_n4_certificates_verify_and_match_recorded_digests(tmp_path):
    # an odd stride meets every residue of the low bits of the code
    table = DIGESTS_N4.read_bytes()
    path = tmp_path / "cert.json"
    for code in range(0, 1 << 15, 113):
        cert = realize(_n4_config(code))
        assert verify(cert), f"n = 4 code {code}"
        assert _digest_prefix(cert, path) == table[8 * code:8 * code + 8], f"n = 4 code {code}"


def test_sampled_member_stream_is_unchanged():
    cert = realize(Configuration(6, range(1, 64)))
    digest = hashlib.sha256()
    for seed, mask in enumerate((63, 1, 21, 42)):
        value = sample(intersection_spec(cert.specs, mask), seed=seed)
        digest.update(json.dumps([x.to_json() for x in value]).encode())
    assert digest.hexdigest() == SAMPLE_STREAM_SHA256


def test_sampled_fixed_point_stream_is_unchanged():
    aut = PermutationalAut(
        [2, 1, 4, 5, 3, 6, 8, 7],
        [ConjugationAut(WreathElement({0: 1}, 1)), IDENTITY_AUT,
         ConjugationAut(delta(1)), IDENTITY_AUT, ConjugationAut(delta(-1, 2)),
         IDENTITY_AUT,
         ConjugationAut(WreathElement({1: 2, 3: -1}, -2)), IDENTITY_AUT])
    _, spec = fixed_subgroup(aut)
    assert [r.classification for r in analyze(spec)] == [
        CYCLIC, BASE_NOT_FG, FULL_FACTOR, CYCLIC]
    digest = hashlib.sha256()
    for bound in (0, 1, 2, 5):
        for seed in (0, 1, 7):
            value = sample(spec, seed=seed, size_bound=bound)
            assert spec.member(value) and aut.apply(value) == value
            digest.update(json.dumps([x.to_json() for x in value]).encode())
    assert digest.hexdigest() == FIXED_SAMPLE_STREAM_SHA256


def test_report_that_cannot_partition_fails_before_analysis(monkeypatch):
    # subgroup 1 is a self-loop at coordinate 1 and leaves 2 and 3 free;
    # subgroup 2 is fully pinned
    cert = realize(Configuration(3, [0b001]))
    seen = []  # masks analysed or sampled; verify's sample seeds are mask * 1009 + i
    analysis, draw = realization._subset_analysis, realization.sample
    monkeypatch.setattr(realization, "_subset_analysis",
                        lambda spec, mask: seen.append(mask) or analysis(spec, mask))
    monkeypatch.setattr(realization, "sample", lambda spec, seed, size_bound:
                        seen.append(seed // 1009) or draw(spec, seed, size_bound))
    for mask, forged in ((0b001, ((3, FULL_FACTOR),)),  # one component, two free coordinates
                         (0b010, ((1, TRIVIAL),) * 2 + ((2, TRIVIAL),))):  # sizes sum to 4
        reports = {**cert.reports, mask: dataclasses.replace(cert.reports[mask], components=forged)}
        seen.clear()
        checks = dict(subset_checks(RealizationCertificate(
            cert.config, cert.ambient_m, cert.specs, reports), samples=8))
        assert checks == {m: "report-does-not-fit" if m == mask else None for m in range(1, 8)}
        assert mask not in seen and len(set(seen)) == 6


@pytest.fixture
def fresh_analysis():
    """An empty ``analyze`` cache before and after the test, so reports a
    patched analysis made do not outlive it."""
    analyze.cache_clear()
    yield
    analyze.cache_clear()


def test_constraint_check_rejects_a_pinned_coordinate_read_as_free(
        monkeypatch, fresh_analysis, tmp_path, capsys):
    # subgroup 3 pins coordinate 3, which no edge names; read as FullFactor
    # it keeps every verdict f.g. and every report consistent
    isolated = subgroups._isolated
    monkeypatch.setattr(subgroups, "_isolated", lambda i, pinned: isolated(i, False))
    cert = realize(Configuration(3, [0b011, 0b110]))
    assert cert.reports[0b100].components[2] == (1, FULL_FACTOR)
    reasons = dict(subset_checks(cert))
    assert reasons[0b100] == "constraint-rejected"
    assert set(reasons.values()) == {None, "constraint-rejected"}
    assert not verify(cert)
    path = tmp_path / "cert.json"
    cli._dump_json(cert.to_json(), str(path))
    assert cli.main(["verify", "--cert", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "mismatch at {3}: constraint-rejected" in lines
    assert lines[-1] == f"verification FAILED: {len(lines) - 1} of 7 subsets"


def test_constraint_check_rejects_a_twisted_cycle_read_as_free(
        monkeypatch, fresh_analysis, tmp_path, capsys):
    # one subgroup of G^2 closes the cycle 1 -> 2 -> 1 with a shifted
    # twist: its fixed set is Cyclic, f.g. as prescribed
    twist = ConjugationAut(WreathElement({0: 1}, 1))
    spec = SubgroupSpec(2, [Edge(1, 2, IDENTITY_AUT), Edge(2, 1, twist)])
    config = Configuration(1)

    def certificate():
        report = realization._subset_analysis(spec, 0b1)
        return RealizationCertificate(config, 2, (spec,), {0b1: report})

    honest = certificate()
    assert honest.reports[0b1].components == ((2, CYCLIC),)
    assert verify(honest)
    classify = subgroups.classify_centralizer
    monkeypatch.setattr(subgroups, "classify_centralizer", lambda holonomy: classify(
        () if classify(holonomy).tag == CYCLIC else holonomy))
    analyze.cache_clear()
    forged = certificate()
    assert forged.reports[0b1].components == ((2, FULL_FACTOR),)
    assert realization.check_subset(forged, 0b1, samples=0) == "constraint-rejected"
    assert not verify(forged)
    path = tmp_path / "cert.json"
    cli._dump_json(forged.to_json(), str(path))
    capsys.readouterr()
    assert cli.main(["witness", "--cert", str(path), "--subset", "1"]) == 1
    assert capsys.readouterr().out == "subset {1}: constraint-rejected\n"


def _split_into_singletons(reports):
    # each half keeps the tree's conjugators, so the edge would hold if
    # read in either one
    return tuple(r._replace(nodes=frozenset((v,)), root=v)
                 for r in reports for v in sorted(r.nodes))


@pytest.mark.parametrize("spec, forge", [
    # coordinate 1 listed twice and coordinate 2 dropped, the sizes' sum kept
    (SubgroupSpec(2), lambda reports: (reports[0],) * 2),
    # the chain 1 -> 2 split into two free singletons: its edge joins two
    (SubgroupSpec(2, [Edge(1, 2, IDENTITY_AUT)]), _split_into_singletons),
], ids=["node-named-twice", "edge-between-components"])
def test_constraint_check_rejects_a_forged_component_layout(spec, forge, monkeypatch):
    # recorded and recomputed under the same forged analysis, so the
    # report fits and matches; only the constraint check can refuse it
    honest = analyze(spec)
    monkeypatch.setattr(realization, "analyze",
                        lambda s: forge(honest) if s == spec else analyze(s))
    report = realization._subset_analysis(spec, 0b1)
    forged = RealizationCertificate(Configuration(1), 2, (spec,), {0b1: report})
    assert report.components == ((1, FULL_FACTOR), (1, FULL_FACTOR))
    assert realization.check_subset(forged, 0b1, samples=0) == "constraint-rejected"
    assert not verify(forged)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 4), code=st.integers(0, (1 << 15) - 1))
def test_honest_certificates_pass_the_constraint_check(n, code):
    cert = realize(Configuration(n, [m for m in range(1, 1 << n) if code >> (m - 1) & 1]))
    for mask in range(1, 1 << n):
        components = analyze(intersection_spec(cert.specs, mask))
        assert realization._constraints_hold(cert, mask, components), mask_elements(mask)


# replacements for a twist conjugator: a shifted element (Cyclic
# centralizer, f.g.) and base elements other than the twist's delta(0)
_TWIST_SWAPS = (IDENTITY_AUT, ConjugationAut(WreathElement({0: 1}, 1)),
                ConjugationAut(delta(1)), ConjugationAut(WreathElement({0: 2})),
                ConjugationAut(WreathElement({0: 1, 1: -1})))


def _tampered_specs(specs, kind, i, pick):
    """Copies of ``specs`` with one constraint of subgroup ``i`` changed;
    a kind with nothing to change in that subgroup changes nothing."""
    m = specs[0].m
    edges = [list(spec.edges) for spec in specs]
    pins = [set(spec.pins) for spec in specs]
    coordinate = pick % m + 1
    own = edges[i]
    k = pick % len(own) if own else None
    if kind == "add-pin":
        pins[i].add(coordinate)
    elif kind == "drop-pin" and pins[i]:
        pins[i].discard(sorted(pins[i])[pick % len(pins[i])])
    elif kind == "retarget" and own:
        src, dst, label = own[k]
        own[k] = Edge(coordinate, dst, label) if pick % 2 else Edge(src, coordinate, label)
    elif kind == "swap-twist":
        twisted = [j for j, edge in enumerate(own) if edge.label == TWIST_AUT]
        if twisted:
            j = twisted[pick % len(twisted)]
            own[j] = own[j]._replace(label=_TWIST_SWAPS[pick % len(_TWIST_SWAPS)])
    elif kind == "drop-edge" and own:
        del own[k]
    elif kind == "move-edge" and own and len(specs) > 1:
        edges[(i + 1 + pick % (len(specs) - 1)) % len(specs)].append(own.pop(k))
    return tuple(SubgroupSpec(m, edges[j], pins[j]) for j in range(len(specs)))


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 3), ones=st.sets(st.integers(1, 7)),
       kind=st.sampled_from(["add-pin", "drop-pin", "retarget", "swap-twist",
                             "drop-edge", "move-edge"]),
       i=st.integers(0, 2), pick=st.integers(0, 1000))
@example(n=1, ones={1}, kind="drop-edge", i=0, pick=0)  # the subset becomes f.g.
@example(n=2, ones={3}, kind="add-pin", i=0, pick=0)  # pins the closed cycle
@example(n=2, ones={1}, kind="move-edge", i=0, pick=0)  # the twist moves to subgroup 2
@example(n=2, ones={3}, kind="add-pin", i=1, pick=1)  # pins the cycle off its root
@example(n=2, ones={1}, kind="drop-pin", i=1, pick=0)  # subgroup 2 pins an isolated coordinate
def test_verify_agrees_with_the_oracle_on_tampered_specs(n, ones, kind, i, pick):
    # realize's reports against specs with one constraint changed; the
    # oracle recomputes each intersection from plain unions of edges and
    # pins.  Sampling only adds rejections, so the tampered certificate is
    # checked on its analysis alone, the stronger claim; the honest one is
    # checked with sampling, which also sees a wrong class that is f.g.
    config = Configuration(n, {mask for mask in ones if mask < 1 << n})
    honest = realize(config)
    assert verify(honest, samples=8)
    specs = _tampered_specs(honest.specs, kind, i % n, pick)
    cert = RealizationCertificate(config, honest.ambient_m, specs, honest.reports)
    accepted = verify(cert, samples=0)
    for mask in range(1, 1 << n):
        selected = [spec for j, spec in enumerate(specs) if mask >> j & 1]
        count, fg = oracles.naive_component_count_and_fg(
            cert.ambient_m, [e for spec in selected for e in spec.edges],
            set().union(*(spec.pins for spec in selected)))
        if fg != (config.value(mask) == 0):
            assert not accepted, f"verify accepted {mask_elements(mask)} against the oracle"
        if accepted:
            assert count == len(cert.reports[mask].components), mask_elements(mask)


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


def test_certificate_json_rejects_subset_element_beyond_n():
    data = realize(Configuration(2, [0b01])).to_json()
    for element in (3, 10**12):
        data["reports"][0]["subset"] = [element]
        start = time.perf_counter()
        # the element becomes a bit of the mask, so an unchecked 10**12
        # would ask for a 125 GB integer
        with pytest.raises(ValueError, match=str(element)):
            RealizationCertificate.from_json(data)
        assert time.perf_counter() - start < 1.0


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


def test_orbit_holonomy_is_product_of_labels_around_cycle():
    rng = random.Random(61)
    forced_inverse_pairs = 0
    for _ in range(60):
        k = rng.randint(1, 6)
        perm = list(range(1, k + 1))
        rng.shuffle(perm)
        labels = [ConjugationAut(oracles.random_element(rng, radius=1))
                  for _ in range(k)]
        for j in range(1, k + 1):
            p = perm[j - 1]
            if j < p and perm[p - 1] == j and rng.random() < 0.5:
                labels[p - 1] = labels[j - 1].inverse()
                forced_inverse_pairs += 1
        decomposition, _ = fixed_subgroup(PermutationalAut(perm, labels))
        seen = set()
        expected = []
        for start in range(1, k + 1):
            if start in seen:
                continue
            product, node, size = IDENTITY, start, 0
            while node not in seen:
                seen.add(node)
                product = labels[node - 1].conjugator * product
                node = perm[node - 1]
                size += 1
            expected.append((start, size, product))
        assert [(o.representative, o.size, o.holonomy)
                for o in decomposition.orbits] == expected
    assert forced_inverse_pairs > 0


def test_intersection_spec_rejects_mismatched_ambient():
    specs = [SubgroupSpec(2), SubgroupSpec(3)]
    with pytest.raises(ValueError):
        intersection_spec(specs, 0b11)
    with pytest.raises(ValueError):
        intersection_spec(specs, 0)


def test_permutational_aut_validation():
    with pytest.raises(ValueError):
        PermutationalAut([1, 1])
    with pytest.raises(ValueError):
        PermutationalAut([2, 1], [IDENTITY_AUT])
    with pytest.raises(ValueError):
        PermutationalAut([2, 1]).apply((IDENTITY,))


@pytest.mark.parametrize("perm, labels, message", [
    ([1.0, 2], None, "perm entry 0: 1.0 is not an integer"),
    ([True], None, "perm entry 0: True is not an integer"),
    ([2, "1"], None, "perm entry 1: '1' is not an integer"),
    ([2, 1], [IDENTITY_AUT, delta(0)], "label 1: WreathElement({0: 1}, shift=0) is not a"),
    ([1], [None], "label 0: None is not a ConjugationAut"),
    ([], None, "perm () is empty"),  # fixed_subgroup named its ambient power m = 0
])
def test_permutational_aut_refuses_non_integer_entries_and_non_labels(perm, labels, message):
    # each used to be accepted, failing only when applied or when
    # fixed_subgroup built its spec
    with pytest.raises(ValueError) as excinfo:
        PermutationalAut(perm, labels)
    assert str(excinfo.value).startswith(message)


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
