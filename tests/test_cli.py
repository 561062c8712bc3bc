import json

import pytest

from nilcomplex import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_list(capsys):
    code, out = run(capsys, "list")
    assert code == 0
    names = out.strip().splitlines()
    assert len(names) == 11
    assert names[0].startswith("G6,3")


def test_verify_representative(capsys):
    code, out = run(capsys, "verify", "--algebra", "G6,7", "--rep", "J_alpha",
                    "--param", "alpha=2")
    assert code == 0 and "integrable = True" in out
    code, out = run(capsys, "verify", "--algebra", "G6,7", "--rep", "J_alpha",
                    "--param", "alpha=1")
    assert code == 1 and "DomainViolation" in out


def test_verify_family_sweep(capsys):
    code, out = run(capsys, "verify", "--algebra", "M14+1", "--samples", "3")
    assert code == 0 and "3/3 integrable" in out


def test_verify_family_sweep_json(capsys):
    code, out = run(capsys, "verify", "--algebra", "M10", "--samples", "1", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["algebra"] == "M10"
    assert doc["results"] and all(r == {"family": r["family"], "samples": 1, "failures": 0}
                                  for r in doc["results"])


def assert_usage_error(code, out):
    assert code == 2
    assert out.startswith("error: ") and out.count("\n") == 1, out


@pytest.mark.parametrize("params", [
    ["--rep", "1", "--param", "alpha=abc"],   # not a rational
    ["--rep", "J_alpha", "--param", "alpha"],  # no value
    ["--rep", "nope"],                         # unknown representative
], ids=["not-rational", "no-value", "unknown-rep"])
def test_verify_param_and_rep_usage_errors(capsys, params):
    assert_usage_error(*run(capsys, "verify", "--algebra", "M10", *params))


def test_sample_json_deterministic(capsys):
    code, out1 = run(capsys, "sample", "--algebra", "G6,5", "--seed", "7", "--json")
    assert code == 0
    doc = json.loads(out1)
    assert doc["integrable"] is True
    assert len(doc["J"]) == 6 and all(len(r) == 6 for r in doc["J"])
    _, out2 = run(capsys, "sample", "--algebra", "G6,5", "--seed", "7", "--json")
    assert out1 == out2


def test_classify_m(capsys):
    code, out = run(capsys, "classify-m", "--algebra", "M10", "--rep", "J_case21",
                    "--param", "j21=1", "--param", "j65=1/2")
    assert code == 0 and "abelian" in out


def test_witness_file(tmp_path, capsys):
    from nilcomplex import catalogue
    e = catalogue.get("G6,3")
    J1 = e.representative("J1").instantiate({})
    J2 = e.representative("J2").instantiate({})
    M = [["0", "1", "0", "0", "0", "0"], ["-1", "0", "0", "0", "0", "0"],
         ["0", "0", "-1", "0", "0", "0"], ["0", "0", "0", "1", "0", "0"],
         ["0", "0", "0", "0", "0", "-1"], ["0", "0", "0", "0", "1", "0"]]
    doc = {"algebra": "G6,3", "J1": J2.to_json(), "J2": J1.to_json(), "phi": M}
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify-witness", str(path))
    assert code == 0 and "accepted" in out
    doc["J2"] = J2.to_json()
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify-witness", str(path))
    assert code == 1 and "REJECTED" in out


def test_witness_search_flag(tmp_path, capsys):
    from nilcomplex import catalogue
    e = catalogue.get("G6,7")
    J2 = e.representative("J_alpha").instantiate({"alpha": 2})
    J3 = e.representative("J_alpha").instantiate({"alpha": 3})
    doc = {"algebra": "G6,7", "J1": J2.to_json(), "J2": J3.to_json()}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify-witness", str(path), "--search", "30")
    assert code == 1 and "inconclusive" in out


def test_mul(tmp_path, capsys):
    a = tmp_path / "a.json"
    x = tmp_path / "x.json"
    a.write_text(json.dumps(["0", "1", "0", "0", "0", "0"]))
    x.write_text(json.dumps(["1", "0", "0", "0", "0", "0"]))
    code, out = run(capsys, "mul", "G6,3", str(a), str(x))
    assert code == 0
    assert json.loads(out) == ["1", "1", "0", "-1", "0", "0"]


@pytest.mark.parametrize("text", [
    '["0", "1", "0"',                             # malformed JSON
    '["0", "1", "0", "x", "0", "0"]',             # non-rational entry
    '["0", "1", "0", "0", "0"]',                  # five coordinates
], ids=["malformed-json", "non-rational", "wrong-length"])
def test_mul_usage_errors(tmp_path, capsys, text):
    a = tmp_path / "a.json"
    x = tmp_path / "x.json"
    a.write_text(text)
    x.write_text(json.dumps(["1", "0", "0", "0", "0", "0"]))
    assert_usage_error(*run(capsys, "mul", "G6,3", str(a), str(x)))


def test_nonexistence_check(capsys):
    code, out = run(capsys, "nonexistence-check", "M14-1", "--samples", "4")
    assert code == 0 and "4/4 samples fail" in out


def test_moduli_dim(capsys):
    code, out = run(capsys, "moduli-dim", "M18+1", "--samples", "2")
    assert code == 0 and "pass" in out


def test_chart_verify_single(capsys):
    code, out = run(capsys, "chart-verify", "G6,6", "--seeds", "1", "--pairs", "5")
    assert code == 0 and "pass" in out


def test_unknown_algebra_fails(capsys):
    code, out = run(capsys, "show", "M2")
    assert code == 1 and "UnknownAlgebra" in out


def test_report_m14_minus(capsys):
    code, out = run(capsys, "report", "M14-1")
    assert code == 0 and "fail integrability" in out
