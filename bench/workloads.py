"""The four benchmark workloads: input generation, timed ops and checks.

Every op is a callable returning a dict of phase times in seconds (or
lists of them, for a phase timed more than once in an op), with ``op``
the program time of the whole op.  Correctness checks run outside
the timed sections and raise ``CheckFailed``.  Program code is always
reached through module attributes (``self.m.realization.realize``), so
the tracer's rebinding of those attributes takes effect.

Why each workload exists, and which layer it stresses, is recorded in
``BENCHMARK.json`` and in ``README.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import types
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
DIGESTS_N4 = os.path.join(BENCH_DIR, "digests_n4.bin")
DIGEST_N4_BYTES = 8  # leading bytes of each n = 4 certificate's sha256
WORK_DIR = os.path.join(ROOT, ".bench_work")

SAMPLES = 8  # the verify and fixed-subgroup sample count, as the CLI default
FIXED_K = 16
MAX_SHIFT_EXP = 6  # shifts are log-uniform in 1 .. 10^6
CLASS_OF_KIND = {"repeated": "Cyclic", "independent": "Cyclic", "shift-zero": "BaseNotFG"}
KINDS = tuple(CLASS_OF_KIND)
BATCH = 8  # automorphisms per fixed-subgroups op, stratified together
N4_BATCH = 40  # random-n4 configurations sharing one analyze cache
REALIZE_REPEATS = 6  # realize calls per full-n6 op, each a realize_s sample


class ProgramMissing(Exception):
    """The checkout holds no configforge sources to measure."""


def import_program() -> types.SimpleNamespace:
    """Import configforge afresh from this checkout's ``src``.

    Earlier imports are dropped first, so each call pays the full import
    and the set-up time can be measured more than once per run.
    """
    if not os.path.isfile(os.path.join(SRC, "configforge", "__init__.py")):
        raise ProgramMissing(f"no configforge sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "configforge" or n.startswith("configforge.")]:
        del sys.modules[name]
    importlib.import_module("configforge.cli")
    return program()


def program() -> types.SimpleNamespace:
    """The imported configforge modules, by layer."""
    package = sys.modules["configforge"]
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"configforge was imported from {package.__file__}, not {SRC}")
    layers = {name: sys.modules[f"configforge.{name}"]
              for name in ("wreath", "subgroups", "realization", "configuration", "cli")}
    return types.SimpleNamespace(modules=[package, *layers.values()], **layers)


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        ref = json.load(handle)
    with open(DIGESTS_N4, "rb") as handle:
        ref["digests_n4"] = handle.read()
    if len(ref["digests_n4"]) != DIGEST_N4_BYTES << 15:
        raise ValueError("n = 4 digest table has the wrong size")
    return ref


class CheckFailed(Exception):
    """An output of the program differs from what is expected."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def cert_bytes(cert) -> bytes:
    """Certificate JSON bytes exactly as ``configforge realize`` writes them."""
    return (json.dumps(cert.to_json(), indent=2, sort_keys=True) + "\n").encode("utf-8")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def full_config(cf, n: int):
    """The configuration with every nonempty subset set to 1."""
    return cf.configuration.Configuration(n, range(1, 1 << n))


def n4_config(cf, code: int):
    """The n = 4 configuration whose 15-bit value table is ``code``
    (bit mask - 1 holds the value of subset ``mask``)."""
    return cf.configuration.Configuration(4, [m for m in range(1, 16) if code >> (m - 1) & 1])


def check_verdicts(cert, config) -> None:
    for mask, report in cert.reports.items():
        check(report.fg == (config.value(mask) == 0), f"verdict differs from prescription at mask {mask}")


# -- fixed-subgroups inputs ---------------------------------------------------

def _random_base(rng: random.Random, positive: bool = False) -> list[tuple[int, int]]:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.randint(-3, 3)] = rng.randint(1, 3) if positive else rng.choice((-3, -2, -1, 1, 2, 3))
    return sorted(terms.items())


def _square(base, shift):
    """Base and shift of (base, shift)^2 = (base + x^shift.base, 2 shift)."""
    acc = dict(base)
    for i, c in base:
        acc[i + shift] = acc.get(i + shift, 0) + c
    return sorted((i, c) for i, c in acc.items() if c), 2 * shift


def _cycles(perm: list[int]) -> list[list[int]]:
    seen, cycles = set(), []
    for start in range(1, len(perm) + 1):
        if start in seen:
            continue
        cycle, j = [], start
        while j not in seen:
            seen.add(j)
            cycle.append(j)
            j = perm[j - 1]
        cycles.append(cycle)
    return cycles


def twist_batch(rng: random.Random, size: int = BATCH) -> list[tuple[list[int], list[tuple], Counter]]:
    """``size`` automorphism inputs: for each, a permutation of 1..16, one
    (base, shift) twist per position, and the component classes the
    twists must produce.

    Each orbit gets one of three kinds of twist: one conjugator repeated
    around the orbit (so the holonomy is a proper power: a fixed point
    carries a square), independent conjugators whose shifts share a sign
    (so the composite shift is nonzero), or shift-zero conjugators with
    positive coefficients (so the composite base is nonzero).  The
    expected class follows from shifts and signs alone.

    Shifts are log-uniform in 1..10^6.  Kinds and shift exponents are
    stratified over the batch, so that every batch holds close to the
    same mix of cheap and expensive holonomies.
    """
    perms = []
    for _ in range(size):
        perm = list(range(1, FIXED_K + 1))
        rng.shuffle(perm)
        perms.append(perm)
    orbits = [(a, cycle) for a, perm in enumerate(perms) for cycle in _cycles(perm)]
    kinds = [KINDS[j % len(KINDS)] for j in range(len(orbits))]
    rng.shuffle(kinds)
    shift_count = sum(1 if kind == "repeated" else len(cycle)
                      for kind, (_, cycle) in zip(kinds, orbits) if kind != "shift-zero")
    exponents = [(j + rng.random()) * MAX_SHIFT_EXP / shift_count for j in range(shift_count)]
    rng.shuffle(exponents)

    def shift(sign: int) -> int:
        return sign * max(1, round(10 ** exponents.pop()))

    twists = [[None] * FIXED_K for _ in range(size)]
    expected = [Counter() for _ in range(size)]
    for kind, (a, cycle) in zip(kinds, orbits):
        expected[a][CLASS_OF_KIND[kind]] += 1
        sign = rng.choice((1, -1))
        if kind == "repeated":
            twist = (_random_base(rng), shift(sign))
            if len(cycle) == 1:
                twist = _square(*twist)
            for j in cycle:
                twists[a][j - 1] = twist
        elif kind == "independent":
            for j in cycle:
                twists[a][j - 1] = (_random_base(rng), shift(sign))
        else:
            for j in cycle:
                twists[a][j - 1] = (_random_base(rng, positive=True), 0)
    return list(zip(perms, twists, expected))


def make_aut(cf, perm, twists):
    w = cf.wreath
    labels = [w.ConjugationAut(w.WreathElement(base, shift)) for base, shift in twists]
    return cf.realization.PermutationalAut(perm, labels)


# -- workloads ------------------------------------------------------------------

class Workload:
    """One benchmark workload.  ``prepare`` is part of set-up; ``op``
    runs, times and checks one op."""

    name = ""
    timeout_s = 10.0
    subprocesses = False  # True if the program runs in child processes

    def __init__(self, cf, seed: int, ref: dict):
        self.m = cf
        self.seed = seed
        self.ref = ref
        self.tracer = None  # set for the traced phase
        self.cert_sizes: list[int] = []
        self.dir = None

    def path(self, name: str) -> str:
        """A file in this workload's own directory under WORK_DIR."""
        if self.dir is None:
            os.makedirs(WORK_DIR, exist_ok=True)
            self.dir = tempfile.mkdtemp(prefix=f"{self.name}-", dir=WORK_DIR)
        return os.path.join(self.dir, name)

    def prepare(self) -> None:
        raise NotImplementedError

    def op(self) -> dict:
        raise NotImplementedError

    def notes(self, records: list[dict]) -> list[str]:
        """Workload-specific lines for the human-readable report."""
        return []

    def child_traces(self) -> list[dict]:
        """Trace aggregates written by traced child processes."""
        return []

    def close(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)


class FullN6(Workload):
    """Realize the full n = 6 configuration, then verify it as
    ``configforge verify`` would: written and re-read as a JSON file by
    the CLI's own helpers, with a cold cache.

    Every timed section starts from a cold cache and a collected heap, as
    in a new CLI process, so that no collection of garbage left by the
    previous section lands in it.  An op realizes REALIZE_REPEATS times,
    because a run has room for only a few verify calls and one realize
    per op left too few realize samples to steady their median; the op
    time counts the last realize, whose certificate is verified; every
    certificate is written and its bytes checked.
    """

    name = "full-n6"
    timeout_s = 60.0

    def prepare(self):
        self.config = full_config(self.m, 6)
        self.rng = random.Random(self.seed)
        self.cert_path = self.path("cert.json")

    def cold(self):
        self.m.subgroups.analyze.cache_clear()
        gc.collect()

    def op(self):
        realization, cli = self.m.realization, self.m.cli
        verify_seed = self.rng.randrange(1 << 30)
        realize_s = []
        for _ in range(REALIZE_REPEATS):
            self.cold()
            t0 = time.perf_counter()
            cert = realization.realize(self.config)
            t1 = time.perf_counter()
            cli._dump_json(cert.to_json(), self.cert_path)
            t2 = time.perf_counter()
            realize_s.append(t1 - t0)
            with open(self.cert_path, "rb") as handle:
                raw = handle.read()
            check(sha256(raw) == self.ref["full_n6_cert_sha256"], "full n = 6 certificate bytes changed")
        self.cert_sizes.append(len(raw))
        check_verdicts(cert, self.config)
        del cert, raw
        self.cold()
        t3 = time.perf_counter()
        loaded = realization.RealizationCertificate.from_json(cli._load_json(self.cert_path))
        t4 = time.perf_counter()
        ok = realization.verify(loaded, samples=SAMPLES, seed=verify_seed)
        t5 = time.perf_counter()
        check(ok is True, "verify rejected the full n = 6 certificate")
        return {"op": (t2 - t0) + (t5 - t3), "realize": realize_s, "verify": t5 - t4}


class RandomN4(Workload):
    """Random n = 4 configurations, each subset set to 1 with probability
    1/2, realized and verified in one process as ``enumerate`` does, so
    the analyze cache is shared across a batch of N4_BATCH of them.

    The cache is cleared between batches, not once per run: otherwise its
    size, and with it the peak RSS, would grow with the number of ops a
    run completes, that is with the speed of the machine.
    """

    name = "random-n4"
    timeout_s = 10.0

    def prepare(self):
        self.rng = random.Random(self.seed)
        self.pending = self.rng.getrandbits(15)
        self.done = 0

    def op(self):
        code, self.pending = self.pending, self.rng.getrandbits(15)
        config = n4_config(self.m, code)
        realization = self.m.realization
        if self.done % N4_BATCH == 0:
            self.m.subgroups.analyze.cache_clear()
        self.done += 1
        t0 = time.perf_counter()
        cert = realization.realize(config)
        t1 = time.perf_counter()
        ok = realization.verify(cert)
        t2 = time.perf_counter()
        raw = cert_bytes(cert)
        self.cert_sizes.append(len(raw))
        at = code * DIGEST_N4_BYTES
        check(hashlib.sha256(raw).digest()[:DIGEST_N4_BYTES] == self.ref["digests_n4"][at:at + DIGEST_N4_BYTES],
              f"certificate bytes changed for n = 4 code {code}")
        check_verdicts(cert, config)
        check(ok is True, f"verify rejected n = 4 code {code}")
        return {"op": t2 - t0, "realize": t1 - t0, "verify": t2 - t1}


class FixedSubgroups(Workload):
    """Fixed subgroups of random permutational automorphisms of G^16:
    decompose, analyze, then sample members and check each is fixed.

    An op is a batch of BATCH automorphisms whose holonomy shifts are
    stratified across the batch.  One automorphism's cost spans three
    orders of magnitude with its shifts, so single-automorphism medians
    would depend on the seed; a stratified batch costs about the same
    every time.
    """

    name = "fixed-subgroups"
    timeout_s = 10.0

    def prepare(self):
        self.rng = random.Random(self.seed)
        self.classes: Counter = Counter()
        self.pending = self._draw()

    def _draw(self):
        return [(make_aut(self.m, perm, twists), expected, self.rng.randrange(1 << 30))
                for perm, twists, expected in twist_batch(self.rng)]

    def op(self):
        batch, self.pending = self.pending, self._draw()
        realization, subgroups = self.m.realization, self.m.subgroups
        realize_s = verify_s = 0.0
        results = []
        for aut, _, sample_seed in batch:
            subgroups.analyze.cache_clear()
            t0 = time.perf_counter()
            decomposition, spec = realization.fixed_subgroup(aut)
            reports = subgroups.analyze(spec)
            t1 = time.perf_counter()
            fixed = []
            for i in range(SAMPLES):
                value = subgroups.sample(spec, seed=sample_seed + i)
                fixed.append(spec.member(value) and aut.apply(value) == value)
            t2 = time.perf_counter()
            realize_s += t1 - t0
            verify_s += t2 - t1
            results.append((decomposition, reports, fixed))
        for (_, expected, _), (decomposition, reports, fixed) in zip(batch, results):
            classes = Counter(r.classification for r in reports)
            self.classes.update(classes)
            check(classes == expected, f"component classes {dict(classes)} differ from {dict(expected)}")
            check(decomposition.count == sum(expected.values()), "orbit count differs")
            check(all(fixed), "a sampled tuple is not a fixed member")
        return {"op": realize_s + verify_s, "realize": realize_s, "verify": verify_s}

    def notes(self, records):
        return [f"components: {dict(sorted(self.classes.items()))}"]


class CliRoundtrip(Workload):
    """An op is the sequence ``enumerate --n 3``, then ``realize`` and
    ``verify`` of the full n = 5 configuration, each command through
    ``python -m configforge``."""

    name = "cli-roundtrip"
    timeout_s = 60.0
    subprocesses = True

    def prepare(self):
        self.rng = random.Random(self.seed)
        config = full_config(self.m, 5)
        with open(self.path("config.json"), "w", encoding="utf-8") as handle:
            json.dump(config.to_json(), handle)
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.env.pop("CONFIGFORGE_THREADS", None)  # measure the default
        self.stats_files: list[str] = []

    def child_traces(self):
        traces = []
        for path in self.stats_files:
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    traces.append(json.load(handle))
        return traces

    def op(self):
        verify_seed = str(self.rng.randrange(1 << 30))
        times = {
            "enumerate": self.command("enumerate", ["enumerate", "--n", "3"]),
            "realize": self.command("realize", ["realize", "--config", "config.json", "--out", "cert.json"]),
            "verify": self.command("verify", ["verify", "--cert", "cert.json", "--seed", verify_seed]),
        }
        return {"op": sum(times.values()), **times}

    def command(self, name: str, args: list[str]) -> float:
        if self.tracer:
            stats = self.path(f"stats-{len(self.stats_files)}.json")
            self.stats_files.append(stats)
            argv = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), stats] + args
        else:
            argv = [sys.executable, "-m", "configforge"] + args
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=self.dir, env=self.env, capture_output=True,
                              timeout=self.timeout_s)
        elapsed = time.perf_counter() - t0
        check(proc.returncode == 0, f"{name} exited {proc.returncode}: {proc.stderr[-300:]!r}")
        check(sha256(proc.stdout) == self.ref["cli_stdout_sha256"][name], f"{name} stdout changed")
        if name == "realize":
            with open(self.path("cert.json"), "rb") as handle:
                raw = handle.read()
            self.cert_sizes.append(len(raw))
            check(sha256(raw) == self.ref["full_n5_cert_sha256"], "full n = 5 certificate bytes changed")
        return elapsed


WORKLOADS = {w.name: w for w in (FullN6, RandomN4, FixedSubgroups, CliRoundtrip)}
