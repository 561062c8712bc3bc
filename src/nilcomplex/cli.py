"""Command-line front end.

Exit codes: 0 = success / all checks pass, 1 = verification failure,
2 = usage error.  All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import catalogue, charts, group, moduli, orbits
from .acs import (AlmostComplexStructure, BadSquare, NotClosed, Unclassifiable,
                  check_m_table, classify_m, is_integrable)
from .catalogue import DomainViolation, SamplingExhausted, UnknownAlgebra, UnknownMember
from .exactnum import rational_str


class UsageError(Exception):
    """Bad input from the command line or an input file (exit code 2)."""


# "p" or "p/q", as rational_str writes them: no decimal point or exponent,
# so a string like 1e99999999 cannot make Fraction build a huge power of 10
_RATIONAL = re.compile(r"\s*[-+]?[0-9]+(/[0-9]+)?\s*")


def _rational(value, what: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise UsageError(f"{what}: expected a rational string, got {value!r}")
    try:
        if isinstance(value, int) or _RATIONAL.fullmatch(value):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise UsageError(f'{what}: {value!r} is not a rational "p" or "p/q"')


def _params_from_args(pairs):
    out = {}
    for p in pairs or ():
        k, eq, v = p.partition("=")
        if not eq:
            raise UsageError(f"--param expects K=V, got {p!r}")
        out[k.strip()] = _rational(v, f"--param {k.strip()}")
    return out


def _count(text: str) -> int:
    """argparse type of a sample, seed or pair count: an integer >= 1."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, UnicodeDecodeError) as ex:
        raise UsageError(f"{path}: unreadable ({ex})") from None
    except ValueError as ex:  # a JSONDecodeError, or an int of more digits than int() takes
        raise UsageError(f"{path}: malformed JSON ({ex})") from None


def _matrix(doc, n: int, what: str):
    """An n x n array of rational strings, else a UsageError."""
    if not (isinstance(doc, list) and len(doc) == n
            and all(isinstance(row, list) and len(row) == n for row in doc)):
        raise UsageError(f"{what}: expected a {n}x{n} array of rational strings")
    return [[_rational(x, what) for x in row] for row in doc]


def _load_coords(path, n: int):
    doc = _load_json(path)
    if not (isinstance(doc, list) and len(doc) == n):
        raise UsageError(f"{path}: expected an array of {n} rational strings")
    return [_rational(c, path) for c in doc]


def _emit(args, payload, text):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(text)


def cmd_list(args):
    es = catalogue.entries()
    _emit(args, {"algebras": [e.name for e in es],
                 "aliases": {e.name: list(e.aliases) for e in es}},
          "\n".join(e.name + (f" ({', '.join(e.aliases)})" if e.aliases else "") for e in es))
    return 0


def cmd_show(args):
    e = catalogue.get(args.algebra)
    if args.json:
        _emit(args, next(a for a in catalogue.dump_json()["algebras"] if a["name"] == e.name), "")
        return 0
    lines = [f"{e.name}  aliases: {', '.join(e.aliases) or '-'}",
             f"expected moduli dimension: {e.expected_dim}",
             "brackets:"]
    for (i, j), row in sorted(e.algebra.table.items()):
        out = " + ".join(f"{rational_str(c)}*x{k}" if c != 1 else f"x{k}"
                         for k, c in sorted(row.items()))
        lines.append(f"  [x{i}, x{j}] = {out}")
    lines.append("families:")
    for f in e.families:
        tag = "" if f.samplable else "  (metadata only)"
        lines.append(f"  {f.name}: params {', '.join(f.param_names())};"
                     f" conditions {list(f.conditions)}{tag}")
    lines.append("representatives:")
    for r in e.representatives:
        extra = f" [{r.expected_m}]" if r.expected_m else ""
        chart = " +chart" if r.chart else ""
        lines.append(f"  {r.name}: params {', '.join(r.param_names()) or '-'}{extra}{chart}")
    print("\n".join(lines))
    return 0


def _resolve_J(args, e):
    """J from --rep/--param, --family/--param, or --j FILE."""
    params = _params_from_args(args.param)
    if args.j:
        if params:
            raise UsageError("--param does not apply to --j")
        return AlmostComplexStructure(_matrix(_load_json(args.j), e.algebra.dim, args.j)), None
    if args.rep:
        member = e.representative(args.rep)
    else:
        member = e.family(args.family) if args.family else e.families[0]
    unknown = sorted(set(params) - set(member.param_names()))
    if unknown:
        raise UsageError(f"--param {', '.join(unknown)}: not a parameter of {member.name}")
    if not args.rep and set(member.param_names()) - set(params):
        params = {**member.random_admissible(args.seed), **params}
    return member.instantiate(params), member


def cmd_sample(args):
    e = catalogue.get(args.algebra)
    fam = e.family(args.family) if args.family else e.families[0]
    values = fam.random_admissible(args.seed)
    J = fam.instantiate(values)
    payload = {"algebra": e.name, "family": fam.name,
               "params": {k: rational_str(v) for k, v in sorted(values.items())},
               "J": J.to_json(), "integrable": is_integrable(e.algebra, J)}
    _emit(args, payload,
          f"{e.name}/{fam.name} sample at "
          + ", ".join(f"{k}={rational_str(v)}" for k, v in sorted(values.items()))
          + f"\nintegrable: {payload['integrable']}\n"
          + "\n".join(" ".join(rational_str(x) for x in row) for row in J.rows()))
    return 0


def family_sweep(e, fams, samples: int, seed: int):
    """verify's family check: per family, how many of the draws at seed + n
    (n < samples) are not integrable; passes when none is."""
    results = []
    for fam in fams:
        bad = sum(not is_integrable(e.algebra, fam.instantiate(fam.random_admissible(seed + n)))
                  for n in range(samples))
        results.append({"family": fam.name, "samples": samples, "failures": bad})
    return results, all(r["failures"] == 0 for r in results)


def cmd_verify(args):
    e = catalogue.get(args.algebra)
    if args.rep or args.j or args.param:
        J, _ = _resolve_J(args, e)
        ok = is_integrable(e.algebra, J)
        _emit(args, {"integrable": ok}, f"{e.name}: integrable = {ok}")
        return 0 if ok else 1
    fams = [e.family(args.family)] if args.family else \
        [f for f in e.families if f.samplable]
    results, ok = family_sweep(e, fams, args.samples, args.seed)
    _emit(args, {"algebra": e.name, "results": results},
          "\n".join(f"{e.name}/{r['family']}: {r['samples'] - r['failures']}/"
                    f"{r['samples']} integrable" for r in results))
    return 0 if ok else 1


def cmd_classify_m(args):
    e = catalogue.get(args.algebra)
    J, _ = _resolve_J(args, e)
    inv = orbits.orbit_invariants(e, J)
    payload = {"m": inv["m"], "representative": inv["representative"]}
    text = f"m is {inv['m']}"
    if "params" in inv:
        payload["params"] = {k: rational_str(v) for k, v in inv["params"].items()}
        text += f"; matches {inv['representative']} at {payload['params']}"
    _emit(args, payload, text)
    return 0


def cmd_act(args):
    e = catalogue.get(args.algebra)
    n = e.algebra.dim
    J = AlmostComplexStructure(_matrix(_load_json(args.j), n, args.j))
    phi = _matrix(_load_json(args.phi), n, args.phi)
    print(json.dumps(orbits.act(e.algebra, phi, J).to_json()))
    return 0


def cmd_verify_witness(args):
    doc = _load_json(args.file)
    if not isinstance(doc, dict):
        raise UsageError(f"{args.file}: expected a JSON object")
    name = args.algebra or doc.get("algebra")
    if not isinstance(name, str):
        raise UsageError(f"{args.file}: no algebra name (give --algebra)")
    e = catalogue.get(name)
    n = e.algebra.dim
    J1 = AlmostComplexStructure(_matrix(doc.get("J1"), n, f"{args.file} J1"))
    J2 = AlmostComplexStructure(_matrix(doc.get("J2"), n, f"{args.file} J2"))
    if "phi" not in doc and args.search:
        found = orbits.randomized_equivalence_search(e, J1, J2, seed=args.seed,
                                                     attempts=args.search)
        _emit(args, {"algebra": e.name, "status": found["status"]},
              f"randomized search: {found['status']}")
        return 0 if found["status"] == "equivalent" else 1
    phi = _matrix(doc.get("phi"), n, f"{args.file} phi")
    ok = orbits.verify_witness(e.algebra, J1, J2, phi)
    _emit(args, {"algebra": e.name, "accepted": ok},
          f"witness {'accepted' if ok else 'REJECTED'} for {e.name}")
    return 0 if ok else 1


def cmd_mul(args):
    L = catalogue.get(args.algebra).algebra
    prod = group.multiply(L, _load_coords(args.a, L.dim), _load_coords(args.x, L.dim))
    print(json.dumps([rational_str(c) for c in prod]))
    return 0


def chart_point(e, r, seed: int, jacobian_points: int, pairs: int):
    """chart-verify's check of the chart point drawn at seed: holomorphy, relations
    and the Jacobian, then the multiplication; status "pass" or "FAIL (...)"."""
    values = r.random_admissible(seed, extra_conditions=r.chart.conditions)
    failing = ()
    try:
        charts.verify_chart(e, r, values, jacobian_points=jacobian_points, seed=seed)
        charts.verify_chart_multiplication(e, r, values, pairs=pairs, seed=seed)
        status = "pass"
    except charts.NotAnnihilated as ex:
        failing, status = ex.failing, f"FAIL ({ex})"
    except AssertionError as ex:  # DegenerateJacobian, Mismatch, relations
        status = f"FAIL ({ex})"
    return {"representative": r.name, "seed": seed, "status": status,
            "params": {k: rational_str(v) for k, v in sorted(values.items())},
            "failing": [list(p) for p in failing]}


def cmd_chart_verify(args):
    e = catalogue.get(args.algebra)
    reps = [e.representative(args.rep)] if args.rep else \
        [r for r in e.representatives if r.chart is not None]
    if reps[0].chart is None:
        raise UsageError(f"--rep {args.rep}: no chart catalogued for {e.name}")
    lines, results = [], []
    for r in reps:
        for n in range(args.seeds):
            res = chart_point(e, r, args.seed + n, jacobian_points=10, pairs=args.pairs)
            lines.append(f"{e.name}/{r.name} @ {res['params']}")
            lines.extend(f"  X~_{j}^- phi^1..3: " + "  ".join(
                "FAIL" if [j, k] in res["failing"] else "pass" for k in range(1, 4))
                for j in range(1, 7))
            lines.append(f"  jacobian + relations + multiplication: {res['status']}")
            results.append(res)
    _emit(args, {"algebra": e.name, "results": results}, "\n".join(lines))
    return 1 if any(x["status"].startswith("FAIL") for x in results) else 0


def moduli_check(e, fam, samples: int, seed: int):
    """moduli-dim's check: the dimension report; passes when every tangent dim agrees."""
    rep = moduli.dimension_report(e, family=fam, samples=samples, seed=seed)
    return rep, rep["agree"] == len(rep["tangent_dims"])


def cmd_moduli_dim(args):
    e = catalogue.get(args.algebra)
    fam = e.family(args.family) if args.family else None
    rep, ok = moduli_check(e, fam, args.samples, args.seed)
    _emit(args, rep, "\n".join(
        [f"  sample {s['params']}: tangent dim {s['tangent_dim']}, "
         f"family rank {s['family_rank']}" for s in rep["samples"]]
        + [f"{e.name}: expected {rep['expected_dim']}, "
           f"agree {rep['agree']}/{len(rep['tangent_dims'])} -> {'pass' if ok else 'FAIL'}"]))
    return 0 if ok else 1


def cmd_nonexistence_check(args):
    rep = catalogue.nonexistence_spotcheck(args.name, samples=args.samples,
                                           seed=args.seed)
    n = len(rep["samples"])
    bad = sum(1 for s in rep["samples"] if s["integrable"])
    _emit(args, rep, f"{args.name}: {n - bad}/{n} samples fail integrability "
                     f"(as they must); borrowed family {rep['borrowed_family']}")
    return 0 if rep["all_fail"] else 1


def cmd_report(args):
    try:
        e = catalogue.get(args.algebra)
    except UnknownAlgebra:
        if not catalogue.is_spotcheck_target(args.algebra):
            raise
        args.name, args.samples = args.algebra, args.samples or 20
        return cmd_nonexistence_check(args)
    sections = {}

    def section(label, fn):
        try:
            fn()
            sections[label] = "pass"
        except (AssertionError, ArithmeticError, RuntimeError, ValueError) as ex:
            sections[label] = f"FAIL: {type(ex).__name__}: {str(ex)[:100]}"

    def families():
        results, ok = family_sweep(e, [f for f in e.families if f.samplable],
                                   args.samples or 5, args.seed)
        if not ok:
            raise AssertionError([r["family"] for r in results if r["failures"]])

    def rep_tables():
        for r in e.representatives:
            values = r.random_admissible(args.seed)
            J = r.instantiate(values)
            if not (is_integrable(e.algebra, J)
                    and (not r.expected_m or classify_m(e.algebra, J) == r.expected_m)
                    and (not r.m_table or check_m_table(e.algebra, J, r.claimed_m_table(values)))):
                raise AssertionError(r.name)

    def automorphisms():
        for fam in e.automorphisms:
            for n in range(5):
                phi = fam.instantiate_matrix(fam.random_admissible(args.seed + n))
                if not orbits.is_automorphism(e.algebra, phi):
                    raise AssertionError(fam.name)

    def chart_section():
        for r in e.representatives:
            if r.chart is not None:
                res = chart_point(e, r, args.seed, jacobian_points=5, pairs=20)
                if res["status"] != "pass":
                    raise AssertionError(f"{r.name}: {res['status']}")

    def moduli_section():
        rep, ok = moduli_check(e, None, 5, args.seed)
        if not ok:
            raise AssertionError(rep["tangent_dims"])

    section("family integrability sweep", families)
    section("representative tables", rep_tables)
    section("automorphism families", automorphisms)
    section("holomorphic charts & multiplication", chart_section)
    section("moduli dimension", moduli_section)
    _emit(args, {"algebra": e.name, "sections": sections},
          "\n".join([f"report for {e.name}"]
                    + [f"  {label}: {status}" for label, status in sections.items()]))
    return 0 if all(v == "pass" for v in sections.values()) else 1


class _Rejected(Exception):
    """argparse's rejection of the command line: (parser, message)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Rejected(self, message)


def build_parser():
    ap = _Parser(
        prog="nilcomplex",
        description="Exact verification of the catalogue of complex "
                    "structures on 6-dimensional nilpotent Lie algebras")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, *algebra, **how):
        """The algebra argument, added as given, then --seed and --json."""
        p.add_argument(*algebra, **how)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true")

    def member(p):
        """Where the J comes from: a family, a representative or a file (one at most)."""
        source = p.add_mutually_exclusive_group()
        source.add_argument("--family")
        source.add_argument("--rep")
        source.add_argument("--j", help="JSON file with a 6x6 matrix")
        p.add_argument("--param", action="append", metavar="K=V")

    p = sub.add_parser("list", help="catalogued algebras")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser("show", help="brackets, families, representatives")
    common(p, "algebra")
    p.set_defaults(fn=cmd_show)

    p = sub.add_parser("sample", help="random admissible family member")
    common(p, "--algebra", required=True)
    p.add_argument("--family")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("verify", help="integrability of families/representatives")
    common(p, "--algebra", required=True)
    member(p)
    p.add_argument("--samples", type=_count, default=10)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("classify-m", help="abelian/Heisenberg classification")
    common(p, "--algebra", required=True)
    member(p)
    p.set_defaults(fn=cmd_classify_m)

    p = sub.add_parser("act", help="apply an automorphism to J")
    common(p, "--algebra", required=True)
    p.add_argument("--j", required=True)
    p.add_argument("--phi", required=True)
    p.set_defaults(fn=cmd_act)

    p = sub.add_parser("verify-witness", help="check an equivalence witness file")
    p.add_argument("file")
    common(p, "--algebra")
    p.add_argument("--search", type=_count, metavar="ATTEMPTS",
                   help="if the file has no phi, try sampled automorphisms; "
                        "the outcome is 'equivalent' or 'inconclusive'")
    p.set_defaults(fn=cmd_verify_witness)

    p = sub.add_parser("mul", help="group multiplication in coordinates")
    p.add_argument("algebra")
    p.add_argument("a")
    p.add_argument("x")
    p.set_defaults(fn=cmd_mul)

    p = sub.add_parser("chart-verify", help="holomorphy + multiplication identities")
    common(p, "algebra")
    p.add_argument("--rep")
    p.add_argument("--seeds", type=_count, default=5)
    p.add_argument("--pairs", type=_count, default=20)
    p.set_defaults(fn=cmd_chart_verify)

    p = sub.add_parser("moduli-dim", help="sampled tangent dimensions")
    common(p, "algebra")
    p.add_argument("--family")
    p.add_argument("--samples", type=_count, default=10)
    p.set_defaults(fn=cmd_moduli_dim)

    p = sub.add_parser("nonexistence-check",
                       help="gamma=+1 families fail on the gamma=-1 twins")
    common(p, "name", choices=catalogue.spotcheck_names())
    p.add_argument("--samples", type=_count, default=20)
    p.set_defaults(fn=cmd_nonexistence_check)

    p = sub.add_parser("report", help="full verification dossier")
    common(p, "algebra")
    p.add_argument("--samples", type=_count,
                   help="family samples per algebra (default 5), or twin samples (default 20)")
    p.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    """Run one command; a verification failure exits 1 and a usage error 2,
    printed as a line of text or, under --json, as a JSON object; argparse's
    own rejections keep its usage message on stderr unless --json is given.
    A stdout closed by its reader exits 1, without a traceback."""
    try:
        code = _run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's last flush
    except BrokenPipeError:
        # the note on SIGPIPE in the signal docs: the rest goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    return code


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except _Rejected as ex:
        if "--json" not in argv:
            argparse.ArgumentParser.error(*ex.args)  # usage on stderr, exit 2
        args, code, error, message = argparse.Namespace(json=True), 2, "UsageError", ex.args[1]
    except (DomainViolation, SamplingExhausted, BadSquare, NotClosed, Unclassifiable,
            orbits.NotAutomorphism) as ex:
        code, error, message = 1, type(ex).__name__, str(ex)
    except (UsageError, UnknownAlgebra, UnknownMember) as ex:
        code, error, message = 2, type(ex).__name__, ex.args[0]
    _emit(args, {"error": error, "message": message},
          f"FAIL: {error}: {message}" if code == 1 else f"error: {message}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
