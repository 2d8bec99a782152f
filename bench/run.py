"""configforge benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload full-n6 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its
``src``.  The run sets up (import plus the first input) several times,
then runs ops in a closed loop, one at a time, until ``--seconds`` have
passed, checking every output.  Between ops it sets up again, once per
SETUP_EVERY_S of the phase, so that the reported median set-up time
samples the machine over the same interval as the ops.  With
``--trace 0`` it reports the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` it also runs the kernel
micro-benchmark, measures half the time untraced and half traced, and
reports the per-layer metrics.  Human-readable lines come first; the last
line of stdout is the JSON result.  The exit code is 0 only if every
check passed, and 2 if there is no program to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
import traceback

import kernels
import tracer as tracing
import workloads as wl

SETUP_BEFORE = 5  # set-ups before the measured phase
SETUP_EVERY_S = 1.0  # one more set-up per this much of the untraced phase
TRACE_TIMEOUT_FACTOR = 4
MIN_TAIL_BEYOND = 10


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def benchmark_spec() -> dict:
    with open(os.path.join(wl.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


class SetUp:
    """Set-ups of one workload from a fresh import, and their times."""

    def __init__(self, workload_cls, seed: int, ref: dict):
        self.args = workload_cls, seed, ref
        self.setup_s: list[float] = []
        self.import_s: list[float] = []

    def __call__(self):
        """Set up once, from a collected heap as a new process starts;
        return the workload."""
        workload_cls, seed, ref = self.args
        gc.collect()
        t0 = time.perf_counter()
        cf = wl.import_program()
        t1 = time.perf_counter()
        workload = workload_cls(cf, seed, ref)
        workload.prepare()
        t2 = time.perf_counter()
        self.setup_s.append(t2 - t0)
        self.import_s.append(t1 - t0)
        return workload

    def again(self, count: int) -> None:
        """Set up ``count`` more times, discarding the workloads."""
        for _ in range(count):
            self().close()
        gc.collect()


class Phase:
    """The ops of one measured phase: their phase times and failures."""

    def __init__(self):
        self.records: list[dict] = []
        self.failures: list[str] = []
        self.attempted = 0

    def times(self, key: str) -> list[float]:
        """Every time recorded under ``key``, lists flattened."""
        values = []
        for record in self.records:
            value = record.get(key, [])
            values.extend(value if isinstance(value, list) else [value])
        return values

    @property
    def op_s(self) -> float:
        return sum(self.times("op"))

    @property
    def ops_per_s(self) -> float:
        return len(self.records) / self.op_s if self.records else 0.0


def measure(workload, seconds: float, timeout_s: float, setup: SetUp | None = None) -> Phase:
    """Run ops back to back until ``seconds`` have passed, each under a
    wall-clock timeout, from a cleared analyze cache; with ``setup``,
    set up again between ops, once per SETUP_EVERY_S."""
    phase = Phase()
    workload.m.subgroups.analyze.cache_clear()
    start = time.perf_counter()
    deadline = start + seconds
    setups = 0
    while time.perf_counter() < deadline:
        phase.attempted += 1
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            phase.records.append(workload.op())
        except wl.CheckFailed as exc:
            phase.failures.append(f"check failed: {exc}")
        except OpTimeout:
            phase.failures.append(f"op exceeded {timeout_s:.0f} s")
        except Exception:  # an op that crashes is a failed op; keep measuring
            phase.failures.append(traceback.format_exc(limit=3))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if workload.tracer:
            workload.tracer.reset_stack()
        due = int((time.perf_counter() - start) / SETUP_EVERY_S)
        if setup and due > setups:
            setup.again(due - setups)
            setups = due
    return phase


def tail(values: list[float]):
    """Highest whole percentile with at least MIN_TAIL_BEYOND samples
    beyond it (nearest rank), or None if that is below the 90th."""
    n = len(values)
    pct = math.floor(100 * (n - MIN_TAIL_BEYOND) / n) if n else 0
    if pct < 90:
        return None
    rank = math.ceil(pct / 100 * n)
    return pct, sorted(values)[rank - 1]


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.subprocesses else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(workload, phase: Phase, setup_s: list[float]) -> tuple[dict, list[str]]:
    ops = phase.times("op")
    metrics = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": statistics.median(ops) * 1e3 if ops else 0.0,
        # means, not medians: full-n6 and cli-roundtrip complete 4-8 verify
        # calls a run, and the mean of that few varies half as much between runs
        "realize_s": statistics.fmean(phase.times("realize") or [0.0]),
        "verify_s": statistics.fmean(phase.times("verify") or [0.0]),
        "peak_rss_mb": peak_rss_mb(workload),
    }
    notes = [f"ops completed: {len(ops)}, set-ups: {len(setup_s)}", f"error_rate: {len(phase.failures) / max(phase.attempted, 1):.4f} "
             f"({len(phase.failures)} of {phase.attempted})"]
    found = tail(ops)
    notes.append(f"op_tail_ms: p{found[0]} = {found[1] * 1e3:.3f} ms over {len(ops)} ops" if found
                 else f"op_tail_ms: not reported, {len(ops)} ops leave fewer than "
                      f"{MIN_TAIL_BEYOND} beyond the 90th percentile")
    return metrics, notes + workload.notes(phase.records)


def traced_run(workload, seconds: float, import_s: list[float], ref: dict):
    """Kernel rows, then the same inputs untraced and traced, half the time each."""
    cf = workload.m
    corpora = [kernels.load_corpus(cf, ref["kernel_corpora"][name]) for name in kernels.CORPORA]
    kernel_ns, checksums = kernels.run_kernels(cf, corpora)
    kernel_failures = [f"kernel {name} checksum changed" for name in kernels.KERNELS
                       if checksums[name] != ref["kernel_checksums"][name]]

    untraced = measure(workload, seconds / 2, workload.timeout_s)
    tracer = tracing.Tracer()
    if not workload.subprocesses:
        tracer.import_s.extend(import_s)
    workload.prepare()
    workload.tracer = tracer
    workload.cert_sizes.clear()
    tracer.install(cf)
    try:
        traced = measure(workload, seconds / 2, workload.timeout_s * TRACE_TIMEOUT_FACTOR)
    finally:
        tracer.uninstall()
    for child in workload.child_traces():
        tracer.merge(child)
    layers = tracing.per_layer(tracer, traced.times("op"), untraced.times("op"),
                               workload.cert_sizes, kernel_ns)
    return untraced, traced, layers, kernel_failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = benchmark_spec()
        ref = wl.load_reference()
        setup = SetUp(wl.WORKLOADS[args.workload], args.seed, ref)
        setup.again(SETUP_BEFORE - 1)
        workload = setup()
    except (wl.ProgramMissing, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    try:
        if args.trace:
            untraced, traced, values, failures = traced_run(workload, args.seconds, setup.import_s, ref)
            phases, listed = (untraced, traced), spec["per_layer"]
            notes = [f"untraced ops: {len(untraced.records)}, traced ops: {len(traced.records)}"]
        else:
            phase = measure(workload, args.seconds, workload.timeout_s, setup)
            phases, listed, failures = (phase,), spec["end_to_end"], []
            values, notes = end_to_end(workload, phase, setup.setup_s)
    finally:
        workload.close()

    failed = sum(len(p.failures) for p in phases)
    failures += [f for p in phases for f in p.failures]
    attempted = sum(p.attempted for p in phases)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"python {sys.version.split()[0]}, nproc {os.cpu_count()}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    for line in notes + failures:
        print(f"  {line}")
    correct = not failures and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
