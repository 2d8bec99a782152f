"""Configuration algebra: join, atoms, enumeration, serialization."""

import random

import pytest

from configforge import Configuration, enumerate_configurations, mask_elements, subset_mask


def test_subset_mask_roundtrip():
    assert subset_mask([1, 3], 3) == 0b101
    assert mask_elements(0b101) == (1, 3)
    with pytest.raises(ValueError):
        subset_mask([], 3)
    with pytest.raises(ValueError):
        subset_mask([4], 3)


def test_join_all_zero_is_identity():
    zero = Configuration(2)
    c = Configuration(2, [0b01, 0b11])
    assert zero.join(c) == c
    assert c.join(zero) == c


def test_join_pointwise_or():
    c1 = Configuration(2, [0b01])
    c2 = Configuration(2, [0b11])
    joined = c1.join(c2)
    assert joined.value(0b01) == 1
    assert joined.value(0b10) == 0
    assert joined.value(0b11) == 1


def test_join_mismatched_n():
    with pytest.raises(ValueError):
        Configuration(2).join(Configuration(3))


def test_join_laws_random():
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        top = (1 << n) - 1
        def rand_config():
            return Configuration(n, [m for m in range(1, top + 1) if rng.random() < 0.4])
        for _ in range(40):
            a, b, c = rand_config(), rand_config(), rand_config()
            assert a.join(a) == a
            assert a.join(b) == b.join(a)
            assert a.join(b.join(c)) == a.join(b).join(c)
            assert a.join(Configuration(n)) == a


def test_atoms_join_back():
    c = Configuration(3, [0b011, 0b111])
    folded = Configuration(3)
    for mask in sorted(c.ones):
        folded = folded.join(Configuration(3, (mask,)))
    assert folded == c


def test_atoms_join_back_random():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(1, 4)
        top = (1 << n) - 1
        c = Configuration(n, [m for m in range(1, top + 1) if rng.random() < 0.5])
        folded = Configuration(n)
        for mask in c.ones:
            folded = folded.join(Configuration(n, (mask,)))
        assert folded == c


def test_enumerate_counts():
    assert len(list(enumerate_configurations(1))) == 2
    assert len(list(enumerate_configurations(2))) == 8
    count = sum(1 for _ in enumerate_configurations(3))
    assert count == 128


def test_enumerate_unique_and_ordered():
    seen = list(enumerate_configurations(2))
    assert len(set(seen)) == 8
    assert seen[0] == Configuration(2)
    # mask 1 is the slowest-varying table entry
    tables = [tuple(c.value(m) for m in (1, 2, 3)) for c in seen]
    assert tables == sorted(tables)


def test_n_bounds():
    with pytest.raises(ValueError):
        Configuration(0)
    with pytest.raises(ValueError):
        Configuration(17)
    Configuration(16)


def test_value_range_checked():
    c = Configuration(2)
    with pytest.raises(ValueError):
        c.value(0)
    with pytest.raises(ValueError):
        c.value(4)


def test_json_roundtrip():
    c = Configuration(3, [0b101, 0b111])
    data = c.to_json()
    assert data == {"n": 3, "ones": [[1, 3], [1, 2, 3]]}
    assert Configuration.from_json(data) == c
    with pytest.raises(ValueError):
        Configuration.from_json({"n": 2, "ones": [[3]]})
    with pytest.raises(ValueError):
        Configuration.from_json({"n": 2})
