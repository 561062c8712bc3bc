import ast
import dataclasses
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from nilcomplex import acs, catalogue, charts, checks, cli, orbits
from test_orbits import not_a_complex_structure


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
    f'[{"7" * 5000}, "0", "0", "0", "0", "0"]',   # past int()'s digit limit
], ids=["malformed-json", "non-rational", "wrong-length", "huge-int"])
def test_mul_usage_errors(tmp_path, capsys, text):
    a = tmp_path / "a.json"
    x = tmp_path / "x.json"
    a.write_text(text)
    x.write_text(json.dumps(["1", "0", "0", "0", "0", "0"]))
    assert_usage_error(*run(capsys, "mul", "G6,3", str(a), str(x)))


@pytest.mark.parametrize("text", ["1e3", "0.5", "1/0", "abc"])
def test_a_rational_is_p_or_p_over_q(tmp_path, capsys, text):
    assert_usage_error(*run(capsys, "verify", "--algebra", "G6,3", "--param", f"j11={text}"))
    J = tmp_path / "j.json"
    J.write_text(json.dumps([[text] + row[1:] for row in SIX]))
    assert_usage_error(*run(capsys, "verify", "--algebra", "G6,3", "--j", str(J)))
    a = tmp_path / "a.json"
    a.write_text(json.dumps([text] + ["0"] * 5))
    assert_usage_error(*run(capsys, "mul", "G6,3", str(a), str(a)))


@pytest.mark.parametrize("text, value", [("-3/4", "-3/4"), (" 5 ", "5"), ("+2", "2")])
def test_a_rational_may_be_signed_and_padded(tmp_path, capsys, text, value):
    a = tmp_path / "a.json"
    x = tmp_path / "x.json"
    a.write_text(json.dumps([text] + ["0"] * 5))
    x.write_text(json.dumps(["0"] * 6))
    code, out = run(capsys, "mul", "G6,3", str(a), str(x))
    assert code == 0 and json.loads(out) == [value] + ["0"] * 5
    assert run(capsys, "verify", "--algebra", "G6,3", "--param", f"j11={text}")[0] == 0


def test_a_huge_exponent_is_refused_at_once():
    # no decimal point or exponent: Fraction("1e99999999") would build 10^99999999
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "nilcomplex.cli", "verify", "--algebra", "G6,3",
                           "--param", "j11=1e99999999", "--json"], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 2 and json.loads(done.stdout)["error"] == "UsageError"


@pytest.mark.parametrize("flag", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_1_without_a_traceback(flag):
    # buffered, the write fails in main's flush; unbuffered, in the command's print
    read, write = os.pipe()
    os.close(read)  # every write to the pipe now fails with EPIPE
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        done = subprocess.run([sys.executable, *flag, "-m", "nilcomplex.cli", "list", "--json"],
                              stdout=write, stderr=subprocess.PIPE,
                              env={**env, "PYTHONPATH": src}, timeout=300)
    finally:
        os.close(write)
    assert done.returncode == 1 and b"Traceback" not in done.stderr, done.stderr


def test_nonexistence_check(capsys):
    code, out = run(capsys, "nonexistence-check", "M14-1", "--samples", "4")
    assert code == 0 and "4/4 samples fail" in out


def test_moduli_dim(capsys):
    code, out = run(capsys, "moduli-dim", "M18+1", "--samples", "2")
    assert code == 0 and "pass" in out
    assert out.count("tangent dim 8 (certified by minor)") == 2


@pytest.mark.parametrize("step", [-1, 1])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_a_table_entry_off_by_one_fails_moduli_dim(monkeypatch, capsys, step, json_flag):
    # the certified rank is measured, never read from the table: an
    # expected_dim moved by one disagrees at every draw, and the command fails
    e = catalogue.get("G6,8")
    monkeypatch.setitem(catalogue._REGISTRY, e.name,
                        dataclasses.replace(e, expected_dim=e.expected_dim + step))
    code, out = run(capsys, "moduli-dim", "G6,8", "--samples", "2", *json_flag)
    assert code == 1
    if json_flag:
        doc = json.loads(out)
        assert doc["tangent_dims"] == [10, 10] and doc["agree"] == 0
        assert [s["certified_by"] for s in doc["samples"]] == ["bareiss"] * 2
    else:
        assert f"expected {10 + step}, agree 0/2 -> FAIL" in out


def test_chart_verify_single(capsys):
    code, out = run(capsys, "chart-verify", "G6,6", "--seeds", "1", "--pairs", "5")
    assert code == 0 and "pass" in out


@pytest.mark.parametrize("argv", [[], ["--json"]], ids=["text", "json"])
def test_chart_verify_of_a_representative_without_a_chart_is_a_usage_error(capsys, argv):
    # nothing would be checked, so the command must not report success
    code, out = run(capsys, "chart-verify", "G6,3", "--rep", "J1", *argv)
    message = "--rep J1: no chart catalogued for G6,3"
    if argv:
        assert code == 2 and json.loads(out) == {"error": "UsageError", "message": message}
    else:
        assert_usage_error(code, out)
        assert out == f"error: {message}\n"


def test_a_chart_point_is_validated_by_its_draw_and_one_derivation(check_domain_calls):
    e = catalogue.get("M10")
    rep = e.representative("J_case1")
    assert checks.chart_point(e, rep, 0, jacobian_points=1, pairs=2)["status"] == "pass"
    assert check_domain_calls == ["J_case1", "J_case1"]


def test_unknown_algebra_fails(capsys):
    code, out = run(capsys, "show", "M2")
    assert_usage_error(code, out)
    assert out.startswith("error: unknown algebra 'M2'; "), out


@pytest.mark.parametrize("name", ["M14-1", "M14 -1", "M14NEG1", "m18-1"])
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

    monkeypatch.setattr(checks, "classify_m", counted)
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
    ["verify-witness", "pair.json", "--search", "0"],
    ["verify-witness", "pair.json", "--search", "-2"],
], ids=["moduli-dim", "verify", "nonexistence-check", "report", "seeds", "pairs",
        "search-zero", "search-negative"])
def test_counts_must_be_positive(capsys, argv):
    # a zero or negative count would make every check pass vacuously
    with pytest.raises(SystemExit) as ex:
        cli.main(argv)
    assert ex.value.code == 2
    assert "expected an integer >= 1" in capsys.readouterr().err
    code, out = run(capsys, *argv, "--json")
    doc = json.loads(out)
    assert code == 2 and doc["error"] == "UsageError"
    assert "expected an integer >= 1" in doc["message"]


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command", [["moduli-dim", "G6,3"], ["report", "G6,3"]],
                         ids=["moduli-dim", "report"])
@pytest.mark.parametrize("tol", ["-1", "0", "0.1", "1", "inf", "-inf", "nan", "1e-9x", "",
                                 "1e-9"])
def test_the_tolerance_must_be_finite_and_below_a_tenth(capsys, command, tol, json_flag):
    # no rank decision takes a tolerance (every rank is decided in ints),
    # so --tol exits 2 whatever its value, a once-valid 1e-9 included
    expected = f"unrecognized arguments: --tol {tol}"
    if json_flag:
        code, out = run(capsys, *command, "--tol", tol, *json_flag)
        assert code == 2 and json.loads(out) == {"error": "UsageError", "message": expected}
        return
    with pytest.raises(SystemExit) as ex:
        cli.main(command + ["--tol", tol])
    assert ex.value.code == 2
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--algebra", "G6,3", "--bogus"],
    ["report", "M10", "--samples"],
    ["moduli-dim"],
    ["frobnicate"],
], ids=["unknown-option", "missing-value", "missing-algebra", "unknown-command"])
def test_argparse_rejections_honour_json(capsys, argv):
    # the text form stays argparse's usage message on stderr
    with pytest.raises(SystemExit) as ex:
        cli.main(argv)
    assert ex.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: nilcomplex")
    code = cli.main(argv + ["--json"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 2 and doc["error"] == "UsageError" and doc["message"], doc
    assert captured.err == ""


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


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command", ["verify", "classify-m"])
@pytest.mark.parametrize("first, second", [("--family", "--rep"), ("--family", "--j"),
                                           ("--rep", "--j")], ids=lambda o: o[2:])
def test_two_sources_of_j_are_a_usage_error(tmp_path, capsys, command, first, second,
                                            json_flag):
    # each source alone gives an integrable J, so one silently dropped would pass
    J = catalogue.get("G6,7").representative("J_alpha").instantiate({"alpha": 2})
    value = {"--family": "general", "--rep": "J_alpha",
             "--j": _write(tmp_path, "j.json", J.to_json())}
    argv = [command, "--algebra", "G6,7", first, value[first], second, value[second]]
    message = f"argument {second}: not allowed with argument {first}"
    if json_flag:
        code, out = run(capsys, *argv, *json_flag)
        assert code == 2 and json.loads(out) == {"error": "UsageError", "message": message}
        return
    with pytest.raises(SystemExit) as ex:
        cli.main(argv)
    assert ex.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: nilcomplex")
    assert captured.err.endswith(f"error: {message}\n")


def test_chart_verify_checks_annihilation_once(monkeypatch, capsys):
    calls = []
    residuals = charts.annihilation_residuals

    def counted(entry, J, grads):
        calls.append(residuals(entry, J, grads))
        return calls[-1]

    monkeypatch.setattr(charts, "annihilation_residuals", counted)
    code, out = run(capsys, "chart-verify", "G6,3", "--seeds", "1", "--pairs", "1")
    assert code == 0 and out.count("pass") == 19
    assert [len(r) for r in calls] == [18]


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


def readme_commands():
    """The README's "Command line" lines that need no input file."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in lines if argv and not any(".json" in a for a in argv)]


def test_readme_lists_eleven_commands():
    assert len(readme_commands()) == 11


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_exits_zero(capsys, argv):
    assert run(capsys, *argv)[0] == 0


def test_a_failing_family_fails_verify_and_only_the_report_family_section(monkeypatch, capsys):
    fam = catalogue.get("G6,3").family("case-xi25")
    drawn = [fam.instantiate(fam.random_admissible(n)) for n in range(10)]

    def wrong_on_one_family(L, J):
        return J not in drawn and acs.is_integrable(L, J)

    monkeypatch.setattr(checks, "is_integrable", wrong_on_one_family)
    code, out = run(capsys, "verify", "--algebra", "G6,3", "--json")
    failures = {r["family"]: r["failures"] for r in json.loads(out)["results"]}
    assert code == 1 and failures == {"case-xi16": 0, "case-xi25": 10, "case-rest": 0}
    code, out = run(capsys, "report", "G6,3", "--json")
    sections = json.loads(out)["sections"]
    assert code == 1
    assert [label for label, v in sections.items() if v != "pass"] == \
        ["family integrability sweep"], sections


def test_a_bug_in_a_report_check_is_not_a_verdict(monkeypatch):
    def buggy(*args, **kwargs):
        raise TypeError("a bug in a check")

    monkeypatch.setattr(charts, "verify_chart", buggy)
    with pytest.raises(TypeError, match="a bug in a check"):
        cli.main(["report", "G6,3", "--json"])


def test_a_failing_check_fails_report_under_python_O():
    # python -O compiles asserts out; the verdicts must not go with them
    code = ("import sys; from nilcomplex import checks, cli; "
            "checks.is_integrable = lambda L, J: False; "
            "sys.exit(cli.main(['report', 'G6,3', '--json']))")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert done.returncode == 1, done.stdout + done.stderr
    sections = json.loads(done.stdout)["sections"]
    assert [label for label, v in sections.items() if v != "pass"] == \
        ["family integrability sweep", "representative tables"], sections


@pytest.mark.parametrize("argv", [["report", "G6,7", "--json"], ["moduli-dim", "G6,1", "--json"]],
                         ids=["report", "moduli-dim"])
def test_no_command_needs_numpy(argv):
    # every rank is decided in ints: with numpy unimportable, the commands
    # that decide ranks still pass
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys\nsys.modules['numpy'] = None\nfrom nilcomplex.cli import main\n"
            "sys.exit(main(%r))\n" % argv)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert done.returncode == 0 and json.loads(done.stdout), done.stderr


def test_report_reads_the_same_under_python_O():
    # no check of the derivation or of a verdict may vanish with -O
    src = str(Path(cli.__file__).resolve().parents[1])
    outs = [subprocess.run([sys.executable, *flag, "-m", "nilcomplex.cli", "report", "M18+1",
                            "--json"], capture_output=True, env={**os.environ, "PYTHONPATH": src},
                           timeout=300)
            for flag in ([], ["-O"])]
    assert [done.returncode for done in outs] == [0, 0], outs[1].stderr
    assert outs[0].stdout == outs[1].stdout and b'"sections"' in outs[0].stdout


def test_act_with_a_non_automorphism_fails(tmp_path, capsys):
    J = catalogue.get("G6,3").representative("J0").instantiate({}).to_json()
    twice = [["2" if i == j else "0" for j in range(6)] for i in range(6)]
    code, out = run(capsys, "act", "--algebra", "G6,3", "--j", _write(tmp_path, "j.json", J),
                    "--phi", _write(tmp_path, "phi.json", twice))
    assert code == 1 and out == "FAIL: NotAutomorphism: matrix does not preserve the brackets\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_act_with_a_singular_matrix_fails(tmp_path, capsys, json_flag):
    # the zero matrix preserves every bracket: its rank is what fails
    J = catalogue.get("G6,3").representative("J0").instantiate({}).to_json()
    zero = [["0"] * 6 for _ in range(6)]
    code, out = run(capsys, "act", "--algebra", "G6,3", "--j", _write(tmp_path, "j.json", J),
                    "--phi", _write(tmp_path, "phi.json", zero), *json_flag)
    assert code == 1
    if json_flag:
        assert json.loads(out) == {"error": "NotAutomorphism", "message": "matrix is singular"}
    else:
        assert out == "FAIL: NotAutomorphism: matrix is singular\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command", ["act", "witness", "search"])
@pytest.mark.parametrize("name, error, message", [
    ("zero", "BadSquare", "J^2 != -1"), ("identity", "BadSquare", "J^2 != -1"),
    ("G6,1 J_alpha1", "NotClosed", "m is not a subalgebra; J is not integrable"),
])
def test_a_j_that_is_no_complex_structure_fails(tmp_path, capsys, name, error, message,
                                                command, json_flag):
    J = not_a_complex_structure(name).to_json()
    I6 = [["1" if i == j else "0" for j in range(6)] for i in range(6)]
    if command == "act":
        argv = ["act", "--algebra", "G6,3", "--j", _write(tmp_path, "j.json", J),
                "--phi", _write(tmp_path, "phi.json", I6)]
    elif command == "witness":
        doc = {"algebra": "G6,3", "J1": J, "J2": J, "phi": I6}
        argv = ["verify-witness", _write(tmp_path, "w.json", doc)]
    else:
        doc = {"algebra": "G6,3", "J1": J, "J2": J}
        argv = ["verify-witness", _write(tmp_path, "pair.json", doc), "--search", "2"]
    code, out = run(capsys, *argv, *json_flag)
    assert code == 1
    if json_flag:
        assert json.loads(out) == {"error": error, "message": message}
    else:
        assert out == f"FAIL: {error}: {message}\n"


@pytest.mark.parametrize("command", ["verify", "mul"])
@pytest.mark.parametrize("bad", ["missing", "directory", "not-utf8"])
def test_unreadable_input_is_a_usage_error(tmp_path, capsys, command, bad):
    path = {"missing": tmp_path / "none.json", "directory": tmp_path,
            "not-utf8": tmp_path / "latin1.json"}[bad]
    if bad == "not-utf8":
        path.write_bytes('["\u00e9"]'.encode("latin-1"))
    argv = {"verify": ["verify", "--algebra", "G6,3", "--j", str(path)],
            "mul": ["mul", "G6,3", str(path), str(path)]}[command]
    assert_usage_error(*run(capsys, *argv))


@pytest.mark.parametrize("argv, expected_code, error, message", [
    (["verify", "--algebra", "M10", "--family", "case-1", "--param", "j21=0"],
     1, "DomainViolation", "case-1: "),
    (["report", "M14-3"], 2, "UnknownAlgebra", "unknown algebra 'M14-3'; catalogued: "),
], ids=["failure", "usage-error"])
def test_an_error_under_json_is_a_json_object(capsys, argv, expected_code, error, message):
    code, out = run(capsys, *argv, "--json")
    doc = json.loads(out)
    assert code == expected_code and set(doc) == {"error", "message"}
    assert doc["error"] == error and doc["message"].startswith(message), doc


@pytest.mark.parametrize("argv", [
    ["verify", "--algebra", "M5"], ["sample", "--algebra", "M5"],
    ["classify-m", "--algebra", "M5"], ["moduli-dim", "M5"],
], ids=["verify", "sample", "classify-m", "moduli-dim"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_a_metadata_only_family_cannot_be_sampled(capsys, argv, json_flag):
    code = cli.main(argv + ["--family", "case-xi21-xi24"] + json_flag)
    out, err = capsys.readouterr()
    message = "case-xi21-xi24: family is catalogued metadata-only"
    assert code == 1 and "Traceback" not in err
    if json_flag:
        assert json.loads(out) == {"error": "SamplingExhausted", "message": message}
    else:
        assert out == f"FAIL: SamplingExhausted: {message}\n"


def _catches_everything(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(ast.unparse(t) in ("Exception", "BaseException") for t in types)


def test_no_except_catches_every_error():
    # a catch-all would turn a bug (a TypeError, a KeyError) into a verdict
    package = Path(cli.__file__).resolve().parent
    offenders = [f"{path.relative_to(package)}:{node.lineno}"
                 for path in sorted(package.rglob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.ExceptHandler) and _catches_everything(node)]
    assert offenders == []
