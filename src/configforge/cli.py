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

from .configuration import Configuration, enumerate_configurations, format_subset, subset_mask
from .realization import (
    RealizationCertificate,
    check_subset,
    intersection_spec,
    realize,
    subset_checks,
    verify,
)
from .subgroups import SubgroupSpec, analyze, nonfg_witness
from .wreath import WreathElement, _entries, _excerpt

OK = 0
FAILED = 1
MALFORMED = 2

# the readers refuse malformed input with ValueError, as JSON syntax and
# UTF-8 errors are; the decoder raises RecursionError on input nested too
# deeply, and OSError covers unreadable and unwritable paths
_MALFORMED_ERRORS = (ValueError, OSError, RecursionError)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _dump_json(data, path: str) -> None:
    """Write a certificate's ``to_json()`` as exactly the bytes of
    ``json.dumps(data, indent=2, sort_keys=True) + "\\n"``.

    With an indent, ``json`` falls back to its pure-Python encoder, so the
    reports are written one at a time and each distinct component entry
    is encoded once.  Other values stream through ``json``'s encoder,
    re-indented chunk by chunk: encoded strings hold no raw newline.
    """
    encoder = json.JSONEncoder(indent=2, sort_keys=True)

    def chunks(value, indent: str):
        return (chunk.replace("\n", "\n" + indent) for chunk in encoder.iterencode(value))

    encoded_components: dict = {}

    def component(entry) -> str:
        key = (entry["class"], entry["size"])
        text = encoded_components.get(key)
        if text is None:
            text = encoded_components[key] = "".join(chunks(entry, " " * 8))
        return text

    with open(path, "w", encoding="utf-8") as handle:
        separator = "{\n  "
        for key in sorted(data):
            value = data[key]
            handle.write(f"{separator}{json.dumps(key)}: ")
            separator = ",\n  "
            if key != "reports" or not value:
                handle.writelines(chunks(value, "  "))
                continue
            report_separator = "[\n    "
            for report in value:
                field_separator = report_separator + "{\n      "
                report_separator = ",\n    "
                for field in sorted(report):
                    items = report[field]
                    handle.write(f"{field_separator}{json.dumps(field)}: ")
                    field_separator = ",\n      "
                    if field == "components" and items:
                        handle.write("[\n        " + ",\n        ".join(map(component, items))
                                     + "\n      ]")
                    else:
                        handle.writelines(chunks(items, "      "))
                handle.write("\n    }")
            handle.write("\n  ]")
        handle.write("\n}\n")


def cmd_realize(args) -> int:
    config = Configuration.from_json(_load_json(args.config))
    cert = realize(config)
    # write first: a run that cannot write its certificate prints no verdicts
    _dump_json(cert.to_json(), args.out)
    print(f"n = {config.n}, atoms = {len(config.ones)}, "
          f"ambient power = {cert.ambient_m}")
    for mask in sorted(cert.reports):
        verdict = "f.g." if cert.reports[mask].fg else "not f.g."
        print(f"{format_subset(mask)}: {verdict}")
    print(f"certificate -> {args.out}")
    return OK


def cmd_verify(args) -> int:
    cert = RealizationCertificate.from_json(_load_json(args.cert))
    results = list(subset_checks(cert, samples=args.samples, seed=args.seed))
    bad = [(mask, reason) for mask, reason in results if reason is not None]
    if bad:
        for mask, reason in bad:
            print(f"mismatch at {format_subset(mask)}: {reason}")
        print(f"verification FAILED: {len(bad)} of {len(results)} subsets")
        return FAILED
    print(f"verified: {len(results)}/{len(results)} subsets consistent")
    return OK


def cmd_enumerate(args) -> int:
    configs = list(enumerate_configurations(args.n))
    good = sum(verify(realize(c)) for c in configs)
    print(f"verified {good}/{len(configs)} configurations for n = {args.n}")
    return OK if good == len(configs) else FAILED


def cmd_analyze(args) -> int:
    spec = SubgroupSpec.from_json(_load_json(args.spec))
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
    def candidate(entry: object) -> tuple[WreathElement, ...]:
        if not isinstance(entry, list) or len(entry) != ambient:
            raise ValueError(f"expected a tuple of {ambient} elements, got {_excerpt(entry)}")
        return tuple(_entries("generator", "element", entry, WreathElement.from_json))

    return _entries("generators file", "generator", _load_json(path), candidate)


def cmd_witness(args) -> int:
    cert = RealizationCertificate.from_json(_load_json(args.cert))
    mask = subset_mask([int(s) for s in args.subset.split(",")], cert.config.n)
    # verify's checks on this subset; a witness needs no sampled members
    reason = check_subset(cert, mask, samples=0)
    if reason is not None:
        print(f"subset {format_subset(mask)}: {reason}")
        return FAILED
    if cert.config.value(mask) == 0:
        print(f"subset {format_subset(mask)} is prescribed finitely generated; "
              "no witness exists")
        return FAILED
    candidates = _load_candidates(args.gens, cert.ambient_m) if args.gens else []
    witness = nonfg_witness(intersection_spec(cert.specs, mask), candidates)
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
    p.add_argument("--samples", type=int, default=0,
                   help="members also sampled and tested per subset (default 0)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed base")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate",
                       help="realize and verify every configuration for small n")
    p.add_argument("--n", type=int, choices=range(1, 4), required=True,
                   help="configuration size")
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
    try:
        return args.func(args)
    except _MALFORMED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MALFORMED


if __name__ == "__main__":
    sys.exit(main())
