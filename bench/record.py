"""Record the reference outputs the benchmark checks against.

Run from the repository root at a commit whose outputs are known good:

    python3 bench/record.py            # reference.json and digests_n4.bin
    python3 bench/record.py reference  # reference.json only (seconds)
    python3 bench/record.py digests    # digests_n4.bin only (minutes)

``reference.json`` holds the sha256 of the full n = 5 and n = 6
certificates, the CLI stdout digests, the kernel corpora and their
checksums.  ``digests_n4.bin`` holds, for every one of the 32768 n = 4
configurations in value-table order, the leading bytes of the sha256 of
its certificate.  Certificates must stay byte-identical, so these are
re-recorded only when a change of the certificate format is intended.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys

import kernels
import workloads as wl

CORPUS_SIZE = 256


def n6_corpus(cf) -> list:
    """Elements of sampled members of full n = 6 subset intersections."""
    cert = cf.realization.realize(wl.full_config(cf, 6))
    out = []
    for seed, mask in enumerate((63, 1, 21, 42)):
        spec = cf.realization.intersection_spec(cert.specs, mask)
        out.extend(cf.subgroups.sample(spec, seed=seed)[::6])
    return out[:CORPUS_SIZE]


def holonomy_corpus(cf) -> list:
    """Orbit holonomies of fixed-subgroups automorphisms from seed 0."""
    rng = random.Random(0)
    out = []
    while len(out) < CORPUS_SIZE:
        for perm, twists, _ in wl.twist_batch(rng):
            decomposition, _ = cf.realization.fixed_subgroup(wl.make_aut(cf, perm, twists))
            out.extend(orbit.holonomy for orbit in decomposition.orbits)
    return out[:CORPUS_SIZE]


def cli_stdout_digests(cf) -> tuple[dict, str]:
    work = os.path.join(wl.WORK_DIR, "record")
    os.makedirs(work, exist_ok=True)
    try:
        return _run_commands(cf, work)
    finally:
        shutil.rmtree(wl.WORK_DIR, ignore_errors=True)


def _run_commands(cf, work: str) -> tuple[dict, str]:
    with open(os.path.join(work, "config.json"), "w", encoding="utf-8") as handle:
        json.dump(wl.full_config(cf, 5).to_json(), handle)
    env = dict(os.environ, PYTHONPATH=wl.SRC)
    env.pop("CONFIGFORGE_THREADS", None)
    commands = {
        "enumerate": ["enumerate", "--n", "3"],
        "realize": ["realize", "--config", "config.json", "--out", "cert.json"],
        "verify": ["verify", "--cert", "cert.json"],
    }
    digests = {}
    for name, args in commands.items():
        proc = subprocess.run([sys.executable, "-m", "configforge"] + args, cwd=work, env=env,
                              capture_output=True, check=True)
        digests[name] = wl.sha256(proc.stdout)
    with open(os.path.join(work, "cert.json"), "rb") as handle:
        cert_digest = wl.sha256(handle.read())
    return digests, cert_digest


def record_reference(cf) -> None:
    corpora = {"n6_samples": n6_corpus(cf), "holonomies": holonomy_corpus(cf)}
    _, checksums = kernels.run_kernels(cf, [corpora[name] for name in kernels.CORPORA])
    stdout, n5 = cli_stdout_digests(cf)
    n5_direct = wl.sha256(wl.cert_bytes(cf.realization.realize(wl.full_config(cf, 5))))
    if n5 != n5_direct:
        raise SystemExit("CLI and in-process n = 5 certificates differ")
    reference = {
        "full_n6_cert_sha256": wl.sha256(wl.cert_bytes(cf.realization.realize(wl.full_config(cf, 6)))),
        "full_n5_cert_sha256": n5,
        "cli_stdout_sha256": stdout,
        "kernel_checksums": checksums,
        "kernel_corpora": {name: [x.to_json() for x in corpus] for name, corpus in corpora.items()},
    }
    with open(wl.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


def record_digests(cf) -> None:
    table = bytearray()
    for code in range(1 << 15):
        raw = wl.cert_bytes(cf.realization.realize(wl.n4_config(cf, code)))
        table += hashlib.sha256(raw).digest()[:wl.DIGEST_N4_BYTES]
        if code % 1024 == 1023:
            cf.subgroups.analyze.cache_clear()
    with open(wl.DIGESTS_N4, "wb") as handle:
        handle.write(table)


def main() -> None:
    targets = sys.argv[1:] or ["reference", "digests"]
    cf = wl.import_program()
    if "reference" in targets:
        record_reference(cf)
    if "digests" in targets:
        record_digests(cf)


if __name__ == "__main__":
    main()
