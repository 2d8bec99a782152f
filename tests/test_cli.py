"""Command-line interface: exit codes, determinism, file handling."""

import json
import subprocess
import sys

import pytest

from configforge.cli import main

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


def test_enumerate_respects_thread_cap(monkeypatch, capsys):
    monkeypatch.setenv("CONFIGFORGE_THREADS", "4")
    assert main(["enumerate", "--n", "2"]) == 0
    assert "verified 8/8" in capsys.readouterr().out


def test_analyze_chain_twist(tmp_path, capsys):
    from configforge import SubgroupSpec, intersection_spec, realize_atom

    spec = intersection_spec(realize_atom(3, [1, 2, 3]), 0b111)
    path = write_json(tmp_path / "spec.json", spec.to_json())
    assert main(["analyze", "--spec", path]) == 0
    out = capsys.readouterr().out
    assert "component {1,2,3}: BaseNotFG, not f.g." in out
    assert "subgroup: not finitely generated" in out

    empty = write_json(tmp_path / "free.json", SubgroupSpec.free(2).to_json())
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


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_certificate_verifies_in_separate_process(howson_cert):
    result = subprocess.run(
        [sys.executable, "-m", "configforge", "verify", "--cert", str(howson_cert)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert "3/3" in result.stdout
