"""Command-line interface: exit codes, determinism, file handling."""

import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import configforge
from configforge import (Configuration, RealizationCertificate, SubgroupSpec, WreathElement,
                         intersection_spec, realize, sample)
from configforge.cli import _dump_json, _load_candidates, main

HOWSON = {"n": 2, "ones": [[1, 2]]}


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture
def howson_cert(tmp_path):
    config = write_json(tmp_path / "howson.json", HOWSON)
    out = tmp_path / "howson.cert.json"
    assert main(["realize", "--config", config, "--out", str(out)]) == 0
    return out


def test_realize_prints_verdict_table(tmp_path, capsys):
    config = write_json(tmp_path / "c.json", HOWSON)
    out = tmp_path / "cert.json"
    assert main(["realize", "--config", config, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "{1}: f.g." in lines
    assert "{2}: f.g." in lines
    assert "{1,2}: not f.g." in lines
    assert out.exists()


def test_realize_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["realize", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    missing_file = str(tmp_path / "nope.json")
    assert main(["realize", "--config", missing_file, "--out", str(tmp_path / "o")]) == 2
    too_big = write_json(tmp_path / "big.json", {"n": 17, "ones": []})
    assert main(["realize", "--config", too_big, "--out", str(tmp_path / "o")]) == 2


def test_realize_unwritable_out_path(tmp_path, capsys):
    config = write_json(tmp_path / "c.json", HOWSON)
    out = tmp_path / "no" / "such" / "dir" / "cert.json"
    assert main(["realize", "--config", config, "--out", str(out)]) == 2


def test_realize_prints_nothing_when_the_certificate_cannot_be_written(tmp_path):
    # the certificate is written before any verdict is printed, so a failed
    # write leaves no success-looking stdout behind
    config = write_json(tmp_path / "c.json", HOWSON)
    out = tmp_path / "no" / "such" / "dir" / "cert.json"
    result = _run_cli(["realize", "--config", config, "--out", str(out)])
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and len(result.stderr.splitlines()) == 1


def test_realize_output_is_byte_identical(tmp_path, capsys):
    config = write_json(tmp_path / "c.json", {"n": 2, "ones": [[1], [1, 2]]})
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["realize", "--config", config, "--out", str(out1)]) == 0
    first = capsys.readouterr().out.replace(str(out1), "OUT")
    assert main(["realize", "--config", config, "--out", str(out2)]) == 0
    second = capsys.readouterr().out.replace(str(out2), "OUT")
    assert out1.read_bytes() == out2.read_bytes()
    assert first == second


def test_verify_roundtrip(howson_cert, capsys):
    assert main(["verify", "--cert", str(howson_cert)]) == 0
    assert "3/3" in capsys.readouterr().out


def test_verify_tampered_bit_lists_subset(howson_cert, tmp_path, capsys):
    data = json.loads(howson_cert.read_text(encoding="utf-8"))
    for report in data["reports"]:
        if report["subset"] == [1, 2]:
            report["fg"] = True
    tampered = write_json(tmp_path / "tampered.json", data)
    assert main(["verify", "--cert", tampered]) == 1
    out = capsys.readouterr().out
    assert "mismatch at {1,2}" in out


def test_verify_truncated_file(howson_cert, tmp_path, capsys):
    text = howson_cert.read_text(encoding="utf-8")
    truncated = tmp_path / "truncated.json"
    truncated.write_text(text[: len(text) // 2], encoding="utf-8")
    assert main(["verify", "--cert", str(truncated)]) == 2


def test_enumerate_small(capsys):
    assert main(["enumerate", "--n", "1"]) == 0
    assert "verified 2/2 configurations for n = 1" in capsys.readouterr().out
    assert main(["enumerate", "--n", "2"]) == 0
    assert "verified 8/8 configurations for n = 2" in capsys.readouterr().out


def test_enumerate_out_of_range(capsys):
    assert main(["enumerate", "--n", "0"]) == 2
    assert main(["enumerate", "--n", "4"]) == 2


def test_analyze_chain_twist(tmp_path, capsys):
    from configforge import SubgroupSpec, intersection_spec, realize_atom

    spec = intersection_spec(realize_atom(3, [1, 2, 3]), 0b111)
    path = write_json(tmp_path / "spec.json", spec.to_json())
    assert main(["analyze", "--spec", path]) == 0
    out = capsys.readouterr().out
    assert "component {1,2,3}: BaseNotFG, not f.g." in out
    assert "subgroup: not finitely generated" in out

    empty = write_json(tmp_path / "free.json", SubgroupSpec(2).to_json())
    assert main(["analyze", "--spec", empty]) == 0
    out = capsys.readouterr().out
    assert out.count("FullFactor") == 2
    assert "subgroup: finitely generated" in out


def test_analyze_swap_orbit_spec(tmp_path, capsys):
    from configforge import PermutationalAut, fixed_subgroup

    _, spec = fixed_subgroup(PermutationalAut([2, 1]))
    path = write_json(tmp_path / "swap.json", spec.to_json())
    assert main(["analyze", "--spec", path]) == 0
    out = capsys.readouterr().out
    assert "component {1,2}: FullFactor, f.g." in out
    assert "subgroup: finitely generated" in out


def test_analyze_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]", encoding="utf-8")
    assert main(["analyze", "--spec", str(bad)]) == 2


def test_analyze_bool_endpoint_exits_2(tmp_path):
    spec = {"m": 2, "edges": [{"src": True, "dst": 2,
                               "conjugator": {"base": [], "shift": 0}}], "pins": []}
    assert main(["analyze", "--spec", write_json(tmp_path / "s.json", spec)]) == 2


def test_verify_bool_component_size_exits_2(tmp_path, capsys):
    config = write_json(tmp_path / "c.json", {"n": 2, "ones": [[1]]})
    cert = tmp_path / "cert.json"
    assert main(["realize", "--config", config, "--out", str(cert)]) == 0
    data = json.loads(cert.read_text(encoding="utf-8"))
    component = data["reports"][0]["components"][0]
    assert component["size"] == 1
    component["size"] = True
    cert.write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify", "--cert", str(cert)]) == 2


def test_verify_subset_element_beyond_n_exits_2(howson_cert, tmp_path, capsys):
    data = json.loads(howson_cert.read_text(encoding="utf-8"))
    for element in (3, 10**12):
        data["reports"][0]["subset"] = [element]
        cert = write_json(tmp_path / "beyond.json", data)
        assert main(["verify", "--cert", cert]) == 2
        assert f"subset element {element}" in capsys.readouterr().err


def test_verify_bounds_error_text_of_a_huge_bad_report(howson_cert, tmp_path, capsys):
    data = json.loads(howson_cert.read_text(encoding="utf-8"))
    data["reports"][2]["fg"] = None
    data["reports"][2]["components"] = [{"size": 1, "class": "Trivial"}] * 200_000
    cert = write_json(tmp_path / "huge.json", data)
    assert main(["verify", "--cert", cert]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: report 2:")
    assert len(err.encode()) < 1024


_HUGE = "x" * 100_000
_IDENTITY_JSON = {"shift": 0, "base": []}
_REPORT_JSON = {"subset": [1], "fg": True, "components": [{"size": 1, "class": "FullFactor"}]}


def _n2_cert(**fields):
    """A certificate for n = 2 with two free specs of G^2 and the given
    fields replaced; it parses, but its reports need not verify."""
    cert = {"config": {"n": 2, "ones": []}, "ambient_m": 2,
            "specs": [{"m": 2, "pins": [], "edges": []}] * 2, "reports": [_REPORT_JSON]}
    cert.update(fields)
    return cert


@pytest.mark.parametrize("argv, data, where", [
    (["realize", "--out", "o.json", "--config"], {"n": 2, "ones": [[1], [1, _HUGE]]},
     "'ones' entry 1: subset element 'xxx"),
    (["realize", "--out", "o.json", "--config"], {"n": 2, "ones": [[1], {"k": _HUGE}]},
     "'ones' entry 1: expected a list"),
    (["analyze", "--spec"], {"m": 2, "pins": [], "edges": [
        {"src": 1, "dst": 2, "conjugator": {"shift": 0, "base": [[1, 1], [_HUGE, 1]]}}]},
     "base entry 1:"),
    (["analyze", "--spec"], {"m": 2, "pins": [], "edges": [[_HUGE]]}, "edge 0:"),
    (["analyze", "--spec"], {"m": 2, "pins": [[_HUGE]], "edges": []}, "pin 0: ['xxx"),
    (["verify", "--cert"], {"config": {"n": 1, "ones": []}, "ambient_m": 2, "reports": [],
                            "specs": [{"m": 2, "pins": [], "edges": [{"src": 1, "dst": 2,
                                       "conjugator": {"shift": 0, "base": [[_HUGE, 1]]}}]}]},
     "spec 0: edge 0: base entry 0:"),
    (["analyze", "--spec"], {"m": 2, "pins": [1, 7], "edges": []},
     "pin 1: 7 out of range 1..2"),
    (["analyze", "--spec"], {"m": 2, "pins": [], "edges": [
        {"src": 1, "dst": 2, "conjugator": {"shift": 0, "base": []}},
        {"src": 1, "dst": 9, "conjugator": {"shift": 0, "base": []}}]},
     "edge 1: endpoints 1->9 must be integers in 1..2"),
    (["witness", "--cert", "CERT", "--subset", "1,2", "--gens"],
     [[_IDENTITY_JSON, _IDENTITY_JSON], [{"shift": 0, "base": [[_HUGE]]}, _IDENTITY_JSON]],
     "generator 1: element 0: base entry 0:"),
    (["witness", "--cert", "CERT", "--subset", "1,2", "--gens"], [[_IDENTITY_JSON]],
     "generator 0: expected a tuple of 2 elements"),
    (["witness", "--cert", "CERT", "--subset", "1,2", "--gens"], [[_IDENTITY_JSON, _HUGE]],
     "generator 0: element 1: element must be an object"),
    (["realize", "--out", "o.json", "--config"], {"n": 2, "ones": {"k": _HUGE}},
     "'ones' must be a list, got {'k': 'xxx"),
    (["verify", "--cert"], _n2_cert(specs={"k": _HUGE}), "'specs' must be a list, got {'k'"),
    (["verify", "--cert"], _n2_cert(reports=_HUGE), "'reports' must be a list, got 'xxx"),
    (["analyze", "--spec"], {"m": 2, "pins": [], "edges": {"k": _HUGE}},
     "'edges' must be a list, got {'k'"),
    (["analyze", "--spec"], {"m": 2, "pins": [], "edges": [
        {"src": 1, "dst": 2, "conjugator": {"shift": 0, "base": _HUGE}}]},
     "edge 0: 'base' must be a list, got 'xxx"),
    (["witness", "--cert", "CERT", "--subset", "1,2", "--gens"], {"k": _HUGE},
     "generators file must be a list, got {'k'"),
    (["verify", "--cert"], _n2_cert(reports=[_REPORT_JSON, {
        "subset": [2], "fg": True, "components": [{"size": 1, "class": "FullFactor"}] * 2
        + [{"size": _HUGE, "class": "FullFactor"}]}]),
     "report 1: component 2: needs an integer 'size'"),
    (["verify", "--cert"], _n2_cert(reports=[_REPORT_JSON, _REPORT_JSON]),
     "report 1: duplicate report subset"),
    (["analyze", "--spec"], {"m": "x", "pins": [], "edges": []},
     "ambient power m must be a positive integer, got 'x'"),
    (["verify", "--cert"], _n2_cert(reports=[{**_REPORT_JSON, "fg": _HUGE}]),
     "report 0: needs a bool 'fg', got 'xxx"),
    (["verify", "--cert"], _n2_cert(reports=[_REPORT_JSON, {
        "subset": [2], "fg": True, "components": {"k": _HUGE}}]),
     "report 1: 'components' must be a list, got {'k'"),
])
def test_malformed_entry_error_names_it_and_is_bounded(argv, data, where, howson_cert, tmp_path,
                                                      capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = [str(howson_cert) if arg == "CERT" else arg for arg in argv]
    assert main(argv + [write_json(tmp_path / "in.json", data)]) == 2
    err = capsys.readouterr().err
    assert where in err
    assert len(err.encode()) < 1024


def test_verify_negative_samples_exits_2(howson_cert, capsys):
    assert main(["verify", "--cert", str(howson_cert), "--samples", "-3"]) == 2
    assert "verified" not in capsys.readouterr().out


def test_verify_huge_ambient_exits_1_fast(tmp_path, capsys):
    # a free spec claimed to be one component: every coordinate of it is a
    # component of its own, so the report is refuted without walking them
    m = 10**12
    cert = {"config": {"n": 1, "ones": []}, "ambient_m": m,
            "specs": [{"m": m, "edges": [], "pins": []}],
            "reports": [{"subset": [1], "fg": True,
                         "components": [{"size": m, "class": "FullFactor"}]}]}
    path = write_json(tmp_path / "huge.json", cert)
    start = time.perf_counter()
    assert main(["verify", "--cert", path]) == 1
    assert time.perf_counter() - start < 1.0
    assert "mismatch at {1}" in capsys.readouterr().out


HUGE_N_CONFIG = {"n": 10**12, "ones": [[10**12]]}


def test_realize_huge_n_exits_2_fast(tmp_path, capsys):
    # n is range-checked before a subset mask 1 << (n - 1) is built
    config = write_json(tmp_path / "c.json", HUGE_N_CONFIG)
    start = time.perf_counter()
    assert main(["realize", "--config", config, "--out", str(tmp_path / "o.json")]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error:")


def test_verify_huge_n_exits_2_fast(tmp_path, capsys):
    cert = {"config": HUGE_N_CONFIG, "ambient_m": 1,
            "specs": [{"m": 1, "edges": [], "pins": []}], "reports": []}
    path = write_json(tmp_path / "cert.json", cert)
    start = time.perf_counter()
    assert main(["verify", "--cert", path]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error:")


# one edge whose Cyclic centralizer is generated by (1 + x^N) / (1 + x),
# N = 10^12 + 1: an element of 10^12 terms
DENSE_CYCLIC_SPEC = {"m": 1, "edges": [{"src": 1, "dst": 1, "conjugator": {
    "base": [[0, 1], [10**12 + 1, 1]], "shift": 2}}], "pins": []}
DENSE_CYCLIC_CERT = {"config": {"n": 1, "ones": []}, "ambient_m": 1,
                     "specs": [DENSE_CYCLIC_SPEC],
                     "reports": [{"subset": [1], "fg": True,
                                  "components": [{"size": 1, "class": "Cyclic"}]}]}


def _run_cli(args):
    # a hard wall-clock bound: a hang fails the test instead of stalling it
    return subprocess.run([sys.executable, "-m", "configforge", *args], env=_cli_env(),
                          capture_output=True, text=True, timeout=20)


def test_analyze_dense_cyclic_spec_exits_0_without_building_its_generator(tmp_path):
    spec = write_json(tmp_path / "spec.json", DENSE_CYCLIC_SPEC)
    result = _run_cli(["analyze", "--spec", spec])
    assert result.returncode == 0, result.stderr
    assert "component {1}: Cyclic, f.g." in result.stdout.splitlines()


def test_verify_dense_cyclic_certificate_exits_2_when_sampling(tmp_path):
    # sampling needs the generator, which is past the term limit; the
    # analysis and the constraint check alone verify
    cert = write_json(tmp_path / "cert.json", DENSE_CYCLIC_CERT)
    result = _run_cli(["verify", "--cert", cert, "--samples", "8"])
    assert result.returncode == 2
    assert result.stderr.startswith("error:") and len(result.stderr.splitlines()) == 1
    assert len(result.stderr.encode()) < 1024
    result = _run_cli(["verify", "--cert", cert, "--samples", "0"])
    assert result.returncode == 0, result.stderr
    assert "verified: 1/1 subsets consistent" in result.stdout


def _huge_ambient_cert(reports):
    m = 10**12
    return {"config": {"n": 1, "ones": [[1]]}, "ambient_m": m,
            "specs": [{"m": m, "edges": [], "pins": []}], "reports": reports}


def test_witness_huge_ambient_exits_1_fast(tmp_path, capsys):
    # the recorded report is checked against the edges and pins before any
    # analysis, as verify does, so m = 10^12 coordinates are never walked
    reports = [{"subset": [1], "fg": False,
                "components": [{"size": 10**12, "class": "BaseNotFG"}]}]
    path = write_json(tmp_path / "huge.json", _huge_ambient_cert(reports))
    start = time.perf_counter()
    assert main(["witness", "--cert", path, "--subset", "1"]) == 1
    assert time.perf_counter() - start < 1.0
    assert "subset {1}" in capsys.readouterr().out


def test_witness_missing_report_exits_2(tmp_path, capsys):
    path = write_json(tmp_path / "huge.json", _huge_ambient_cert([]))
    assert main(["witness", "--cert", path, "--subset", "1"]) == 2
    assert "no report for {1}" in capsys.readouterr().err


def test_analyze_self_loop_with_huge_shift(tmp_path, capsys):
    for shift in (10**9, -10**9):
        spec = {"m": 1, "edges": [{"src": 1, "dst": 1,
                                   "conjugator": {"base": [[0, 1]], "shift": shift}}],
                "pins": []}
        path = write_json(tmp_path / "loop.json", spec)
        start = time.perf_counter()
        assert main(["analyze", "--spec", path]) == 0
        assert time.perf_counter() - start < 1.0
        assert "component {1}: Cyclic, f.g." in capsys.readouterr().out


def test_witness_default_candidates(howson_cert, capsys):
    assert main(["witness", "--cert", str(howson_cert), "--subset", "1,2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["candidate_generators"] == []
    assert payload["witness"][0] == {"base": [[1, 1]], "shift": 0}


def test_witness_with_gens_file(howson_cert, tmp_path, capsys):
    from configforge import (
        RealizationCertificate, intersection_spec, sample, WreathElement,
        in_free_abelian_span,
    )

    cert = RealizationCertificate.from_json(
        json.loads(howson_cert.read_text(encoding="utf-8")))
    spec = intersection_spec(cert.specs, 0b11)
    gens = [[e.to_json() for e in sample(spec, seed=s, size_bound=2)]
            for s in range(3)]
    gens_path = write_json(tmp_path / "gens.json", gens)
    assert main(["witness", "--cert", str(howson_cert), "--subset", "1,2",
                 "--gens", gens_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    witness = [WreathElement.from_json(e) for e in payload["witness"]]
    assert spec.member(tuple(witness))
    projected = [WreathElement.from_json(entry[0]) for entry in gens]
    assert not in_free_abelian_span(witness[0], projected)


def test_witness_on_fg_subset(howson_cert, capsys):
    assert main(["witness", "--cert", str(howson_cert), "--subset", "1"]) == 1


def test_witness_malformed_inputs(howson_cert, tmp_path):
    assert main(["witness", "--cert", str(howson_cert), "--subset", "9"]) == 2
    assert main(["witness", "--cert", str(howson_cert), "--subset", "zzz"]) == 2
    bad_gens = write_json(tmp_path / "gens.json", [[{"base": [], "shift": 0}]])
    assert main(["witness", "--cert", str(howson_cert), "--subset", "1,2",
                 "--gens", bad_gens]) == 2


@pytest.mark.parametrize("argv", [
    ["realize", "--config", "DEEP", "--out", "OUT"],
    ["verify", "--cert", "DEEP"],
    ["analyze", "--spec", "DEEP"],
    ["witness", "--cert", "DEEP", "--subset", "1"],
    ["witness", "--cert", "CERT", "--subset", "1,2", "--gens", "DEEP"],
], ids=["realize", "verify", "analyze", "witness-cert", "witness-gens"])
def test_deeply_nested_input_exits_2(argv, howson_cert, tmp_path, capsys):
    # the JSON decoder raises RecursionError on nesting this deep
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    paths = {"DEEP": str(deep), "OUT": str(tmp_path / "out.json"),
             "CERT": str(howson_cert)}
    capsys.readouterr()
    assert main([paths.get(arg, arg) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error:")


def _extra_spec(data):
    data["specs"].append(data["specs"][0])


def _specs_m_off_ambient(data):
    for spec in data["specs"]:
        spec["m"] = data["ambient_m"] + 1


@pytest.mark.parametrize("tamper", [_extra_spec, _specs_m_off_ambient])
def test_witness_refuses_what_verify_refuses(tamper, howson_cert, tmp_path, capsys):
    data = json.loads(howson_cert.read_text(encoding="utf-8"))
    tamper(data)
    cert = write_json(tmp_path / "tampered.json", data)
    capsys.readouterr()
    assert main(["verify", "--cert", cert]) == 2
    refused = capsys.readouterr().err
    assert refused.startswith("error:")
    assert main(["witness", "--cert", cert, "--subset", "1,2"]) == 2
    assert capsys.readouterr() == ("", refused)


def _flip_fg_at_1_2(data):
    data["reports"][2]["fg"] = not data["reports"][2]["fg"]


def _forge_class_at_1_2(data):
    # same size, another class: the report still fits its subgroups
    data["reports"][2]["components"][0]["class"] = "Cyclic"


@pytest.mark.parametrize("tamper", [_flip_fg_at_1_2, _forge_class_at_1_2])
def test_witness_refuses_the_subset_verify_refuses(tamper, howson_cert, tmp_path, capsys):
    data = json.loads(howson_cert.read_text(encoding="utf-8"))
    assert data["reports"][2]["subset"] == [1, 2]
    tamper(data)
    cert = write_json(tmp_path / "tampered.json", data)
    capsys.readouterr()
    assert main(["verify", "--cert", cert]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "mismatch at {1,2}: report-mismatch", "verification FAILED: 1 of 3 subsets"]
    assert main(["witness", "--cert", cert, "--subset", "1,2"]) == 1
    assert capsys.readouterr().out == "subset {1,2}: report-mismatch\n"


def test_witness_with_60_dense_candidates_is_fast(tmp_path):
    # every candidate is a dense base element at indices 0..39; the witness
    # sits at index 40, where no candidate is nonzero, so span membership
    # is refused before any elimination, whose entries grow with each row
    config = write_json(tmp_path / "c.json", {"n": 1, "ones": [[1]]})
    cert = tmp_path / "cert.json"
    assert main(["realize", "--config", config, "--out", str(cert)]) == 0
    rng = random.Random(0)
    gens = [[{"base": [[i, rng.choice((-1, 1)) * rng.randint(1, 9)] for i in range(40)],
              "shift": 0}] for _ in range(60)]
    result = _run_cli(["witness", "--cert", str(cert), "--subset", "1",
                       "--gens", write_json(tmp_path / "gens.json", gens)])
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["witness"] == [{"base": [[40, 1]], "shift": 0}]


def test_analyze_spec_with_40000_repeated_edges_is_fast(tmp_path):
    # 20,000 copies of a shifted self-loop and 20,000 of one base edge:
    # every repeat is kept, and each adds a holonomy that is the identity
    # or the self-loop's shift again
    loop = {"src": 1, "dst": 1, "conjugator": {"base": [], "shift": 1}}
    base = {"src": 1, "dst": 2, "conjugator": {"base": [[0, 1]], "shift": 0}}
    spec = write_json(tmp_path / "spec.json",
                      {"m": 2, "edges": [loop, base] * 20_000, "pins": []})
    result = _run_cli(["analyze", "--spec", spec])
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "m = 2, edges = 40000, pins = 0"
    assert [line for line in lines if line.startswith("component")] == [
        "component {1,2}: Cyclic, f.g."]


def _cli_env():
    package_root = os.path.dirname(os.path.dirname(configforge.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def _written(data) -> str:
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "cert.json")
        _dump_json(data, path)
        with open(path, encoding="utf-8", newline="") as handle:
            return handle.read()


def _first_difference(data):
    """None if ``_dump_json`` writes exactly ``json.dumps(indent=2,
    sort_keys=True)`` plus a newline, else the first differing lines
    (a whole-text diff of a failing example is slow to explain)."""
    written = _written(data).split("\n")
    expected = (json.dumps(data, indent=2, sort_keys=True) + "\n").split("\n")
    for number, pair in enumerate(zip(written, expected)):
        if pair[0] != pair[1]:
            return number, *pair
    return None if len(written) == len(expected) else (len(written), len(expected))


@st.composite
def _configurations(draw):
    n = draw(st.integers(1, 4))
    return Configuration(n, draw(st.sets(st.integers(1, (1 << n) - 1))))


@settings(max_examples=40, deadline=None)
@given(_configurations())
@example(Configuration(4))  # all zero: empty 'ones', specs without edges
@example(Configuration(1, [1]))  # a spec without pins
def test_certificate_writer_matches_json_dumps(config):
    data = realize(config).to_json()
    assert _first_difference(data) is None


_CLASS_NAMES = st.one_of(
    st.sampled_from(["Trivial", "FullFactor", "Cyclic", "BaseNotFG", ""]),
    st.text(alphabet=st.sampled_from('a"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600')),
    st.text(max_size=8),
)
_SIZES = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70),
                   st.sampled_from([2**64, 2**64 + 1, -2**64 - 1]))
_COMPONENTS = st.lists(st.fixed_dictionaries({"class": _CLASS_NAMES, "size": _SIZES}),
                       max_size=6)


@settings(max_examples=60, deadline=None)
@given(_configurations(), st.data())
def test_certificate_writer_matches_json_dumps_on_edited_reports(config, data):
    cert = realize(config).to_json()
    for report in cert["reports"]:
        if data.draw(st.booleans()):
            report["components"] = data.draw(_COMPONENTS)
    assert _first_difference(cert) is None


def _read_candidates(doc):
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "gens.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return _load_candidates(path, 2)


_ELEMENT_JSON = {"shift": 2, "base": [[0, 1], [3, -2]]}
_CERT_JSON = realize(Configuration(2, [1, 3])).to_json()  # two blocks; spec 1 has pins
_READERS = {
    "configuration": (Configuration.from_json, _CERT_JSON["config"]),
    "spec": (SubgroupSpec.from_json, _CERT_JSON["specs"][1]),
    "element": (WreathElement.from_json, _ELEMENT_JSON),
    "certificate": (RealizationCertificate.from_json, _CERT_JSON),
    "generators": (_read_candidates, [[_ELEMENT_JSON, _IDENTITY_JSON],
                                      [_IDENTITY_JSON, _ELEMENT_JSON]]),
}
_DELETE = "<delete>"
_REPLACEMENTS = [_DELETE, None, True, 10**100, 1.5, "x", [], {}, [[1]]]


def _node_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


def _mutated(doc, draw):
    """``doc`` with one or two nodes deleted or replaced by one of
    ``_REPLACEMENTS``; the root is replaced, never deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_node_paths(doc))))
        value = copy.deepcopy(draw(st.sampled_from(_REPLACEMENTS)))
        if not path:
            doc = doc if value == _DELETE else value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value == _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("reader, doc", _READERS.values(), ids=_READERS.keys())
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_readers_refuse_mutated_documents_with_bounded_value_errors(reader, doc, data):
    mutated = _mutated(doc, data.draw)
    try:
        reader(mutated)
    except ValueError as exc:
        assert len(str(exc).encode()) < 1024


# subset {1,2} of _CERT_JSON is prescribed not f.g., so witness reads --gens
# there; these candidates are members of its intersection
_WITNESS_GENS = [[e.to_json() for e in sample(intersection_spec(
    RealizationCertificate.from_json(_CERT_JSON).specs, 0b11), seed=seed)] for seed in (1, 2)]
# each command with the document it reads, written to "{doc}"
_COMMANDS = {
    "realize": (["realize", "--config", "{doc}", "--out", "{out}"], _CERT_JSON["config"]),
    "verify": (["verify", "--cert", "{doc}", "--samples", "1"], _CERT_JSON),
    "analyze": (["analyze", "--spec", "{doc}"], _CERT_JSON["specs"][1]),
    "witness": (["witness", "--cert", "{doc}", "--subset", "1,2"], _CERT_JSON),
    "witness-gens": (["witness", "--cert", "{cert}", "--subset", "1,2", "--gens", "{doc}"],
                     _WITNESS_GENS),
}


@pytest.mark.parametrize("argv, doc", _COMMANDS.values(), ids=_COMMANDS.keys())
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_exits_0_1_or_2_on_mutated_files(argv, doc, data):
    mutated = _mutated(doc, data.draw)
    # analyze walks every coordinate, so its cost is linear in m
    assume(argv[0] != "analyze" or not isinstance(mutated, dict)
           or not isinstance(mutated.get("m"), int) or mutated["m"] <= 10**6)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, f"{name}.json") for name in ("doc", "cert", "out")}
        for name, content in (("doc", mutated), ("cert", _CERT_JSON)):
            with open(paths[name], "w", encoding="utf-8") as handle:
                json.dump(content, handle)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([arg.format(**paths) for arg in argv])
    assert code in (0, 1, 2)


def test_cli_realize_writes_the_recorded_full_n5_certificate(tmp_path):
    reference = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    digest = json.loads(reference.read_text(encoding="utf-8"))["full_n5_cert_sha256"]
    config = write_json(tmp_path / "full5.json", Configuration(5, range(1, 32)).to_json())
    out = tmp_path / "cert.json"
    result = subprocess.run(
        [sys.executable, "-m", "configforge", "realize", "--config", config, "--out", str(out)],
        env=_cli_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_certificate_verifies_in_separate_process(howson_cert):
    result = subprocess.run(
        [sys.executable, "-m", "configforge", "verify", "--cert", str(howson_cert)],
        env=_cli_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert "3/3" in result.stdout


def test_benchmark_tracer_targets_resolve():
    # bench/run.py --trace rebinds these names; one that is folded away
    # or renamed would break traced runs, so it fails here first.  The
    # tracer calls a class attribute that is not a staticmethod as a plain
    # function, so a classmethod or property target would break them too
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    loader_spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(loader_spec)
    loader_spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for name, owner, attr in tracer.TARGETS:
        module_name, _, class_name = owner.partition(".")
        module = importlib.import_module(f"configforge.{module_name}")
        if class_name:
            raw = vars(getattr(module, class_name)).get(attr)
            assert isinstance(raw, (types.FunctionType, staticmethod)), name
        else:
            assert callable(getattr(module, attr)), name
    assert callable(configforge.subgroups.analyze.cache_clear)
    assert callable(configforge.subgroups.analyze.cache_info)


_REPO = Path(__file__).resolve().parents[1]
_BENCH_WORKLOADS = [w["name"] for w in
                    json.loads((_REPO / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.mark.parametrize("workload", _BENCH_WORKLOADS)
def test_benchmark_workload_runs_clean(workload):
    # one short run per workload: the benchmark checks every op it runs
    # (verdicts, certificate digests, exit codes), so a wrong output or a
    # crash shows here before a full benchmark run
    result = subprocess.run(
        [sys.executable, str(_REPO / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=_REPO, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    summary = json.loads(result.stdout.splitlines()[-1])
    assert summary["correct"] is True, result.stdout[-2000:]
    assert summary["attempted"] >= 1 and summary["failed"] == 0
