"""Kernel micro-benchmark: multiply, inverse and conjugate in Z wr Z.

The corpora are fixed and stored in ``reference.json``: elements of
sampled members of the full n = 6 realization, and orbit holonomies of
fixed-subgroups automorphisms.  Each kernel's results are checksummed,
so a wrong kernel fails the run instead of reporting a fast time.
"""

from __future__ import annotations

import hashlib
import statistics
import time

PASSES = 41
KERNELS = ("mul", "inverse", "conj")
CORPORA = ("n6_samples", "holonomies")  # concatenated in this order


def load_corpus(cf, data: list) -> list:
    return [cf.wreath.WreathElement.from_json(e) for e in data]


def _checksum(results: list) -> str:
    return hashlib.sha256(repr([(x.base, x.shift) for x in results]).encode()).hexdigest()


def run_kernels(cf, corpora: list[list]) -> tuple[dict[str, float], dict[str, str]]:
    """Per-call nanoseconds (median over passes) and result checksums."""
    w = cf.wreath
    elements = [x for corpus in corpora for x in corpus]
    partners = [x for corpus in corpora for x in corpus[1:] + corpus[:1]]
    pairs = list(zip(elements, partners))
    conjugations = [(w.ConjugationAut(h), x) for h, x in pairs]
    kernels = {
        "mul": lambda: [a * b for a, b in pairs],
        "inverse": lambda: [a.inverse() for a in elements],
        "conj": lambda: [phi(x) for phi, x in conjugations],
    }
    ns, checksums = {}, {}
    for name in KERNELS:
        times = []
        for _ in range(PASSES):
            t0 = time.perf_counter()
            results = kernels[name]()
            times.append(time.perf_counter() - t0)
        ns[name] = statistics.median(times) / len(results) * 1e9
        checksums[name] = _checksum(results)
    return ns, checksums
