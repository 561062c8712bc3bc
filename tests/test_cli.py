import json

import pytest

from nilcomplex import acs, charts, cli, orbits


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
    assert_usage_error(code, out)
    assert out.startswith("error: unknown algebra 'M2'; "), out


def test_report_m14_minus(capsys):
    code, out = run(capsys, "report", "M14-1")
    assert code == 0 and "fail integrability" in out


@pytest.mark.parametrize("name", ["M14 -1", "M14NEG1", "m18-1"])
def test_report_resolves_twins_like_the_catalogue(capsys, name):
    code, out = run(capsys, "report", name)
    assert code == 0 and out.startswith(f"{name}: 20/20 samples fail integrability"), out


def test_report_unknown_algebra(capsys):
    code, out = run(capsys, "report", "M14-3")
    assert code == 2 and out.startswith("error: unknown algebra 'M14-3'; catalogued: "), out


def test_report_honors_samples_on_a_twin(capsys):
    code, out = run(capsys, "report", "M14-1", "--samples", "3", "--json")
    assert code == 0 and len(json.loads(out)["samples"]) == 3


def test_report_seed_reaches_the_chart_checks(monkeypatch, capsys):
    seeds = []

    def spy(check):
        def recorded(*args, **kwargs):
            seeds.append((check.__name__, kwargs.get("seed")))
            return check(*args, **kwargs)
        return recorded

    for name in ("verify_chart", "verify_chart_multiplication"):
        monkeypatch.setattr(charts, name, spy(getattr(charts, name)))
    code, out = run(capsys, "report", "G6,3", "--seed", "3")
    assert code == 0, out
    assert {name for name, _ in seeds} == {"verify_chart", "verify_chart_multiplication"}
    assert all(seed == 3 for _, seed in seeds), seeds


SIX = [["1" if i == j else "0" for j in range(6)] for i in range(6)]


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_j_file_must_be_a_rational_matrix(tmp_path, capsys):
    path = _write(tmp_path, "j.json", [["x", "0"]])
    assert_usage_error(*run(capsys, "verify", "--algebra", "G6,3", "--j", path))
    path = _write(tmp_path, "j.json", [row[:] for row in SIX[:-1]] + [["0"] * 5 + ["x"]])
    assert_usage_error(*run(capsys, "classify-m", "--algebra", "G6,3", "--j", path))


@pytest.mark.parametrize("bad", ["j", "phi"])
def test_act_matrix_usage_errors(tmp_path, capsys, bad):
    files = {"j": _write(tmp_path, "j.json", SIX), "phi": _write(tmp_path, "phi.json", SIX)}
    files[bad] = _write(tmp_path, "bad.json", [["1"]])
    assert_usage_error(*run(capsys, "act", "--algebra", "G6,3",
                            "--j", files["j"], "--phi", files["phi"]))


@pytest.mark.parametrize("edit", [
    {"J1": [["0"]], "J2": [["0"]], "phi": [["1"]]},  # 1x1 matrices
    {"J1": [["0", "-1"], ["1", "0"]]},              # J1 of the wrong size
    {"phi": None},                                  # no phi and no --search
    {"algebra": None},                              # no algebra and no --algebra
], ids=["one-by-one", "small-J1", "no-phi", "no-algebra"])
def test_witness_file_usage_errors(tmp_path, capsys, edit):
    doc = {"algebra": "G6,3", "J1": SIX, "J2": SIX, "phi": SIX}
    doc.update(edit)
    doc = {k: v for k, v in doc.items() if v is not None}
    path = _write(tmp_path, "witness.json", doc)
    assert_usage_error(*run(capsys, "verify-witness", path))


@pytest.mark.parametrize("source", [
    ["--rep", "J_case21", "--param", "j21=1", "--param", "j65=1/2"],
    ["--family", "case-1"],  # a family point in no representative form
], ids=["representative", "family-point"])
def test_classify_m_classifies_once(monkeypatch, capsys, source):
    calls = []

    def counted(L, J):
        calls.append(J)
        return acs.classify_m(L, J)

    monkeypatch.setattr(cli, "classify_m", counted)
    monkeypatch.setattr(orbits, "classify_m", counted)
    code, out = run(capsys, "classify-m", "--algebra", "M10", *source, "--json")
    assert code == 0 and len(calls) == 1
    assert (json.loads(out)["representative"] is None) == (source[0] == "--family")


@pytest.mark.parametrize("matrix, error", [
    (SIX, "BadSquare"),  # the identity: J^2 = +1
    ([["0", "1", "0", "0", "0", "0"], ["-1", "0", "0", "0", "0", "0"],
      ["0", "0", "0", "-1", "0", "0"], ["0", "0", "1", "0", "0", "0"],
      ["0", "0", "0", "0", "0", "-1"], ["0", "0", "0", "0", "1", "0"]], "NotClosed"),
], ids=["bad-square", "not-closed"])
def test_classify_m_rejects_non_complex_structures(tmp_path, capsys, matrix, error):
    path = _write(tmp_path, "j.json", matrix)
    code, out = run(capsys, "classify-m", "--algebra", "G6,3", "--j", path)
    assert code == 1 and out.startswith(f"FAIL: {error}: ") and out.count("\n") == 1, out


@pytest.mark.parametrize("argv", [
    ["moduli-dim", "M10", "--samples", "-2"],
    ["verify", "--algebra", "G6,3", "--samples", "-5"],
    ["nonexistence-check", "M14-1", "--samples", "0"],
    ["report", "M10", "--samples", "-1"],
    ["chart-verify", "M10", "--seeds", "-1"],
    ["chart-verify", "M10", "--pairs", "0"],
], ids=["moduli-dim", "verify", "nonexistence-check", "report", "seeds", "pairs"])
def test_counts_must_be_positive(capsys, argv):
    # a zero or negative count would make every check pass vacuously
    with pytest.raises(SystemExit) as ex:
        cli.main(argv)
    assert ex.value.code == 2
    assert "expected an integer >= 1" in capsys.readouterr().err


def test_verify_checks_the_given_param(capsys):
    # case-1 requires j21 != 0: the family sweep must not drop --param
    code, out = run(capsys, "verify", "--algebra", "M10", "--family", "case-1",
                    "--param", "j21=0", "--samples", "1")
    assert code == 1 and "DomainViolation" in out and "j21" in out
    code, out = run(capsys, "verify", "--algebra", "M10", "--family", "case-1",
                    "--param", "j21=1")
    assert code == 0 and out == "M10: integrable = True\n"


@pytest.mark.parametrize("source", [
    ["--rep", "J_alpha", "--param", "alpha=2", "--param", "zzz=3"],
    ["--family", "general", "--param", "zzz=3"],
], ids=["representative", "family"])
def test_unknown_param_is_a_usage_error(capsys, source):
    assert_usage_error(*run(capsys, "verify", "--algebra", "G6,7", *source))


def test_param_with_j_file_is_a_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "j.json", SIX)
    assert_usage_error(*run(capsys, "verify", "--algebra", "G6,3", "--j", path,
                            "--param", "alpha=2"))


def test_chart_verify_checks_annihilation_once(monkeypatch, capsys):
    calls = []
    derivation = charts.apply_derivation

    def counted(coeffs, p):
        calls.append(p)
        return derivation(coeffs, p)

    monkeypatch.setattr(charts, "apply_derivation", counted)
    code, out = run(capsys, "chart-verify", "G6,3", "--seeds", "1", "--pairs", "1")
    assert code == 0 and out.count("pass") == 19
    assert len(calls) == 18


G63_SWAP = [["0", "1", "0", "0", "0", "0"], ["-1", "0", "0", "0", "0", "0"],
            ["0", "0", "-1", "0", "0", "0"], ["0", "0", "0", "1", "0", "0"],
            ["0", "0", "0", "0", "0", "-1"], ["0", "0", "0", "0", "1", "0"]]


@pytest.mark.parametrize("case", ["chart-verify", "witness", "search"])
def test_json_flag_gives_json(tmp_path, capsys, case):
    from nilcomplex import catalogue
    g63, g67 = catalogue.get("G6,3"), catalogue.get("G6,7")
    if case == "chart-verify":
        argv, expected_code = ["chart-verify", "G6,3", "--seeds", "2", "--pairs", "1"], 0
        charted = [r.name for r in g63.representatives if r.chart is not None]
        expected = {"algebra": "G6,3", "results": [
            {"representative": name, "seed": n, "status": "pass", "failing": []}
            for name in charted for n in range(2)]}
    elif case == "witness":
        doc = {"algebra": "G6,3", "J1": g63.representative("J2").instantiate({}).to_json(),
               "J2": g63.representative("J1").instantiate({}).to_json(), "phi": G63_SWAP}
        argv, expected_code = ["verify-witness", _write(tmp_path, "w.json", doc)], 0
        expected = {"algebra": "G6,3", "accepted": True}
    else:
        J_alpha = g67.representative("J_alpha")
        doc = {"algebra": "G6,7", "J1": J_alpha.instantiate({"alpha": 2}).to_json(),
               "J2": J_alpha.instantiate({"alpha": 3}).to_json()}
        argv = ["verify-witness", _write(tmp_path, "pair.json", doc), "--search", "5"]
        expected_code, expected = 1, {"algebra": "G6,7", "status": "inconclusive"}
    code, out = run(capsys, *argv, "--json")
    doc = json.loads(out)
    for r in doc.get("results", ()):  # the drawn chart parameters, as rational strings
        assert all(isinstance(v, str) for v in r.pop("params").values())
    assert code == expected_code and doc == expected


def test_chart_verify_json_lists_the_failing_pairs(monkeypatch, capsys):
    def not_annihilated(*args, **kwargs):
        raise charts.NotAnnihilated([(2, 3), (5, 1)], "residual")

    monkeypatch.setattr(charts, "verify_chart", not_annihilated)
    code, out = run(capsys, "chart-verify", "G6,6", "--seeds", "1", "--json")
    (result,) = json.loads(out)["results"]
    assert code == 1 and result["failing"] == [[2, 3], [5, 1]]
    assert result["status"].startswith("FAIL (X~_j^- phi^k != 0")
