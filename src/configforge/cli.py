"""Command-line front end.

Commands: realize, verify, enumerate, analyze, witness.  All files are
UTF-8 JSON; output is deterministic (sorted keys, fixed ordering, no
timestamps).  Exit codes: 0 success / verified, 1 verification failed,
2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .configuration import Configuration, enumerate_configurations, mask_elements, subset_mask
from .realization import (
    RealizationCertificate,
    intersection_spec,
    realize,
    subset_checks,
    verify,
)
from .subgroups import SubgroupSpec, analyze, nonfg_witness
from .wreath import WreathElement

OK = 0
FAILED = 1
MALFORMED = 2

_MALFORMED_ERRORS = (ValueError, KeyError, TypeError, OSError,
                     json.JSONDecodeError, UnicodeDecodeError)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _dump_json(data, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _format_subset(mask: int) -> str:
    return "{" + ",".join(str(e) for e in mask_elements(mask)) + "}"


def _print_verdicts(cert: RealizationCertificate) -> None:
    for mask in sorted(cert.reports):
        verdict = "f.g." if cert.reports[mask].fg else "not f.g."
        print(f"{_format_subset(mask)}: {verdict}")


def cmd_realize(args) -> int:
    try:
        config = Configuration.from_json(_load_json(args.config))
        cert = realize(config)
        print(f"n = {config.n}, atoms = {len(config.ones)}, "
              f"ambient power = {cert.ambient_m}")
        _print_verdicts(cert)
        _dump_json(cert.to_json(), args.out)
    except _MALFORMED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MALFORMED
    print(f"certificate -> {args.out}")
    return OK


def cmd_verify(args) -> int:
    try:
        cert = RealizationCertificate.from_json(_load_json(args.cert))
        results = list(subset_checks(cert, samples=args.samples, seed=args.seed))
    except _MALFORMED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MALFORMED
    bad = [mask for mask, ok in results if not ok]
    if bad:
        for mask in bad:
            print(f"mismatch at {_format_subset(mask)}")
        print(f"verification FAILED: {len(bad)} of {len(results)} subsets")
        return FAILED
    print(f"verified: {len(results)}/{len(results)} subsets consistent")
    return OK


def cmd_enumerate(args) -> int:
    n = args.n
    if n is None or not 1 <= n <= 3:
        print("error: --n must be between 1 and 3", file=sys.stderr)
        return MALFORMED
    configs = list(enumerate_configurations(n))
    good = sum(verify(realize(c)) for c in configs)
    print(f"verified {good}/{len(configs)} configurations for n = {n}")
    return OK if good == len(configs) else FAILED


def cmd_analyze(args) -> int:
    try:
        spec = SubgroupSpec.from_json(_load_json(args.spec))
    except _MALFORMED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MALFORMED
    reports = analyze(spec)
    print(f"m = {spec.m}, edges = {len(spec.edges)}, pins = {len(spec.pins)}")
    for report in reports:
        nodes = "{" + ",".join(str(i) for i in sorted(report.nodes)) + "}"
        verdict = "f.g." if report.fg else "not f.g."
        print(f"component {nodes}: {report.classification}, {verdict}")
    overall = all(r.fg for r in reports)
    print("subgroup: finitely generated" if overall
          else "subgroup: not finitely generated")
    return OK


def _load_candidates(path: str, ambient: int) -> list[tuple[WreathElement, ...]]:
    data = _load_json(path)
    if not isinstance(data, list):
        raise ValueError("generators file must be a JSON array of tuples")
    candidates = []
    for entry in data:
        if not isinstance(entry, list) or len(entry) != ambient:
            raise ValueError(f"each generator must be a tuple of {ambient} elements")
        candidates.append(tuple(WreathElement.from_json(e) for e in entry))
    return candidates


def cmd_witness(args) -> int:
    try:
        cert = RealizationCertificate.from_json(_load_json(args.cert))
        mask = subset_mask([int(s) for s in args.subset.split(",")], cert.config.n)
    except _MALFORMED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MALFORMED
    if cert.config.value(mask) == 0:
        print(f"subset {_format_subset(mask)} is prescribed finitely generated; "
              "no witness exists")
        return FAILED
    try:
        spec = intersection_spec(cert.specs, mask)
        candidates = (_load_candidates(args.gens, cert.ambient_m)
                      if args.gens else [])
        witness = nonfg_witness(spec, candidates)
    except _MALFORMED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MALFORMED
    print(json.dumps(witness.to_json(), indent=2, sort_keys=True))
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="configforge",
        description="Construct and verify subgroup intersection configurations "
                    "in direct powers of the wreath product Z wr Z.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("realize", help="build a certificate for a configuration file")
    p.add_argument("--config", required=True, help="configuration JSON file")
    p.add_argument("--out", required=True, help="certificate output path")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("verify", help="re-check a certificate from its subgroups")
    p.add_argument("--cert", required=True, help="certificate JSON file")
    p.add_argument("--samples", type=int, default=8,
                   help="members sampled per subset (default 8)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed base")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate",
                       help="realize and verify every configuration for small n")
    p.add_argument("--n", type=int, required=True, help="configuration size (1..3)")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("analyze", help="component analysis of a subgroup spec file")
    p.add_argument("--spec", required=True, help="subgroup spec JSON file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("witness",
                       help="emit a non-finite-generation witness for a subset")
    p.add_argument("--cert", required=True, help="certificate JSON file")
    p.add_argument("--subset", required=True,
                   help="comma-separated subset elements, e.g. 1,3")
    p.add_argument("--gens", help="JSON file of candidate generator tuples")
    p.set_defaults(func=cmd_witness)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else MALFORMED
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
