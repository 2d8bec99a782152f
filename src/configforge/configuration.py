"""Boolean configurations on the nonempty subsets of {1, ..., n}.

A configuration assigns 0 or 1 to every nonempty subset, the prescription
of which subgroup intersections must come out finitely generated (0) or
not (1).  Subsets are encoded as bitmasks: element i of {1, ..., n} is bit
i - 1, so the masks run over 1 .. 2^n - 1.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .wreath import _entries, _excerpt, _is_int

MAX_N = 16  # 2^n - 1 table entries; realization ambients grow as k * n


def _check_n(n: object) -> None:
    if not _is_int(n) or not 1 <= n <= MAX_N:
        raise ValueError(f"n must be an integer in 1..{MAX_N}")


def _check_mask(mask: object, n: int) -> None:
    top = (1 << n) - 1
    if not _is_int(mask) or not 1 <= mask <= top:
        raise ValueError(f"subset mask {_excerpt(mask)} out of range 1..{top}")


def subset_mask(elements: Iterable[int], n: int) -> int:
    """Bitmask of a nonempty subset given as element indices in 1..n."""
    mask = 0
    for e in elements:
        if not _is_int(e) or not 1 <= e <= n:
            raise ValueError(f"subset element {_excerpt(e)} out of range 1..{n}")
        mask |= 1 << (e - 1)
    if mask == 0:
        raise ValueError("subset must be nonempty")
    return mask


def mask_elements(mask: int) -> tuple[int, ...]:
    """Sorted element indices of a subset bitmask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def format_subset(mask: int) -> str:
    """A subset bitmask as its sorted elements in braces, e.g. ``{1,3}``."""
    return "{" + ",".join(map(str, mask_elements(mask))) + "}"


class Configuration:
    """Total map from nonempty subsets of {1..n} to {0, 1}.

    Stored as the set of masks mapped to 1; everything else is 0.
    """

    __slots__ = ("n", "ones")

    def __init__(self, n: int, ones: Iterable[int] = ()):
        _check_n(n)
        ones = frozenset(ones)
        for mask in ones:
            _check_mask(mask, n)
        self.n = n
        self.ones = ones

    def value(self, mask: int) -> int:
        _check_mask(mask, self.n)
        return 1 if mask in self.ones else 0

    def join(self, other: "Configuration") -> "Configuration":
        """Pointwise OR; the all-zero configuration is the identity."""
        if not isinstance(other, Configuration):
            raise TypeError("join expects a Configuration")
        if self.n != other.n:
            raise ValueError(f"mismatched n: {self.n} vs {other.n}")
        return Configuration(self.n, self.ones | other.ones)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.n == other.n and self.ones == other.ones

    def __hash__(self) -> int:
        return hash((self.n, self.ones))

    def __repr__(self) -> str:
        subsets = [list(mask_elements(m)) for m in sorted(self.ones)]
        return f"Configuration(n={self.n}, ones={subsets!r})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "ones": [list(mask_elements(m)) for m in sorted(self.ones)],
        }

    @staticmethod
    def from_json(data: dict) -> "Configuration":
        if not isinstance(data, dict):
            raise ValueError("configuration must be an object")
        n = data.get("n")
        # checked before any mask: subset_mask builds 1 << (n - 1)
        _check_n(n)

        def mask(subset: object) -> int:
            if not isinstance(subset, list):
                raise ValueError(f"expected a list, got {_excerpt(subset)}")
            return subset_mask(subset, n)

        return Configuration(n, _entries("'ones'", "'ones' entry", data.get("ones"), mask))


def enumerate_configurations(n: int) -> Iterator[Configuration]:
    """All 2^(2^n - 1) configurations, in lexicographic order of the value
    table (the subset with mask 1 varies slowest)."""
    _check_n(n)
    count = (1 << n) - 1
    for code in range(1 << count):
        ones = [mask for mask in range(1, count + 1)
                if (code >> (count - mask)) & 1]
        yield Configuration(n, ones)
