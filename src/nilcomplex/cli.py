"""Command-line front end.

Exit codes: 0 = success / all checks pass, 1 = verification failure,
2 = usage error.  All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
from fractions import Fraction

from . import catalogue, charts, group, moduli, orbits
from .acs import (AlmostComplexStructure, BadSquare, NotClosed, Unclassifiable,
                  check_m_table, classify_m, is_integrable)
from .catalogue import DomainViolation, SamplingExhausted, UnknownAlgebra, UnknownMember
from .exactnum import rational_str


class UsageError(Exception):
    """Bad input from the command line or an input file (exit code 2)."""


def _fail(msg: str, code: int = 1):
    print(f"FAIL: {msg}")
    raise SystemExit(code)


def _rational(value, what: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise UsageError(f"{what}: expected a rational string, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{what}: {value!r} is not a rational") from None


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
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as ex:
            raise UsageError(f"{path}: malformed JSON ({ex})") from None


def _matrix(doc, n: int, what: str):
    """An n x n array of rational strings, else a UsageError."""
    if not (isinstance(doc, list) and len(doc) == n
            and all(isinstance(row, list) and len(row) == n for row in doc)):
        raise UsageError(f"{what}: expected a {n}x{n} array of rational strings")
    return [[_rational(x, what) for x in row] for row in doc]


def _load_coords(path):
    doc = _load_json(path)
    if not isinstance(doc, list):
        raise UsageError(f"{path}: expected an array of rational strings")
    return [_rational(c, path) for c in doc]


def _emit(args, payload, text):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(text)


def cmd_list(args):
    rows = []
    for e in catalogue.entries():
        alias = f" ({', '.join(e.aliases)})" if e.aliases else ""
        rows.append(f"{e.name}{alias}")
    _emit(args, {"algebras": [e.name for e in catalogue.entries()],
                 "aliases": {e.name: list(e.aliases) for e in catalogue.entries()}},
          "\n".join(rows))
    return 0


def cmd_show(args):
    e = catalogue.get(args.algebra)
    if args.json:
        doc = [a for a in catalogue.dump_json()["algebras"] if a["name"] == e.name][0]
        print(json.dumps(doc, indent=1, sort_keys=True))
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
          + "\n".join(" ".join(rational_str(x) for x in row) for row in J.m))
    return 0


def cmd_verify(args):
    e = catalogue.get(args.algebra)
    try:
        if args.rep or args.j or args.param:
            J, _ = _resolve_J(args, e)
            ok = is_integrable(e.algebra, J)
            _emit(args, {"integrable": ok},
                  f"{e.name}: integrable = {ok}")
            return 0 if ok else 1
        fams = [e.family(args.family)] if args.family else \
            [f for f in e.families if f.samplable]
        results = []
        for fam in fams:
            bad = 0
            for n in range(args.samples):
                values = fam.random_admissible(args.seed + n)
                J = fam.instantiate(values)
                if not is_integrable(e.algebra, J):
                    bad += 1
            results.append({"family": fam.name, "samples": args.samples, "failures": bad})
        _emit(args, {"algebra": e.name, "results": results},
              "\n".join(f"{e.name}/{r['family']}: {r['samples'] - r['failures']}/"
                        f"{r['samples']} integrable" for r in results))
        total_bad = sum(r["failures"] for r in results)
        return 0 if total_bad == 0 else 1
    except DomainViolation as ex:
        _fail(f"DomainViolation: {ex}")


def cmd_classify_m(args):
    e = catalogue.get(args.algebra)
    J, _ = _resolve_J(args, e)
    try:
        inv = orbits.orbit_invariants_soft(e, J)
    except (BadSquare, NotClosed, Unclassifiable) as ex:
        _fail(f"{type(ex).__name__}: {ex}")
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
    try:
        out = orbits.act(e.algebra, phi, J)
    except orbits.NotAutomorphism as ex:
        _fail(str(ex))
    print(json.dumps(out.to_json()))
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
    e = catalogue.get(args.algebra)
    a, x = _load_coords(args.a), _load_coords(args.x)
    try:
        prod = group.multiply(e.algebra, a, x)
    except ValueError as ex:  # coordinate vectors of the wrong length
        raise UsageError(str(ex)) from None
    print(json.dumps([rational_str(c) for c in prod]))
    return 0


def cmd_chart_verify(args):
    e = catalogue.get(args.algebra)
    reps = [e.representative(args.rep)] if args.rep else \
        [r for r in e.representatives if r.chart is not None]
    lines, results = [], []
    for r in reps:
        if r.chart is None:
            lines.append(f"{e.name}/{r.name}: no chart catalogued")
            results.append({"representative": r.name, "status": "no chart catalogued"})
            continue
        for n in range(args.seeds):
            values = r.random_admissible(args.seed + n,
                                         extra_conditions=r.chart.conditions)
            phis = charts.chart_polys(r, values)
            shown = {k: rational_str(v) for k, v in sorted(values.items())}
            lines.append(f"{e.name}/{r.name} @ {shown}")
            failing = ()
            try:
                charts.verify_chart(e, r, values, jacobian_points=10,
                                    seed=args.seed + n, phis=phis)
                charts.verify_chart_multiplication(e, r, values, pairs=args.pairs,
                                                   seed=args.seed + n, phis=phis)
                status = "pass"
            except charts.NotAnnihilated as ex:
                failing, status = ex.failing, f"FAIL ({ex})"
            except AssertionError as ex:  # DegenerateJacobian, Mismatch, relations
                status = f"FAIL ({ex})"
            lines.extend(f"  X~_{j}^- phi^1..3: " + "  ".join(
                "FAIL" if (j, k) in failing else "pass" for k in range(1, 4))
                for j in range(1, 7))
            lines.append(f"  jacobian + relations + multiplication: {status}")
            results.append({"representative": r.name, "seed": args.seed + n, "params": shown,
                            "status": status, "failing": [list(p) for p in failing]})
    _emit(args, {"algebra": e.name, "results": results}, "\n".join(lines))
    return 1 if any(x["status"].startswith("FAIL") for x in results) else 0


def cmd_moduli_dim(args):
    e = catalogue.get(args.algebra)
    fam = e.family(args.family) if args.family else None
    rep = moduli.dimension_report(e, family=fam, samples=args.samples,
                                  tol=args.tol, seed=args.seed)
    verdict = "pass" if rep["agree"] == len(rep["tangent_dims"]) else "FAIL"
    _emit(args, rep, "\n".join(
        [f"  sample {s['params']}: tangent dim {s['tangent_dim']}, "
         f"family rank {s['family_rank']}" for s in rep["samples"]]
        + [f"{e.name}: expected {rep['expected_dim']}, "
           f"agree {rep['agree']}/{len(rep['tangent_dims'])} -> {verdict}"]))
    return 0 if verdict == "pass" else 1


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
    samples = args.samples or 5
    sections = {}

    def section(label, fn):
        try:
            fn()
            sections[label] = "pass"
        except Exception as ex:  # noqa: BLE001 - report collects all failures
            sections[label] = f"FAIL: {type(ex).__name__}: {str(ex)[:100]}"

    def family_sweep():
        for fam in e.families:
            if not fam.samplable:
                continue
            for n in range(samples):
                J = fam.instantiate(fam.random_admissible(args.seed + n))
                assert is_integrable(e.algebra, J), fam.name

    def rep_tables():
        for r in e.representatives:
            values = r.random_admissible(args.seed)
            J = r.instantiate(values)
            assert is_integrable(e.algebra, J), r.name
            if r.expected_m:
                assert classify_m(e.algebra, J) == r.expected_m, r.name
            if r.m_table:
                assert check_m_table(e.algebra, J, r.claimed_m_table(values)), r.name

    def automorphisms():
        for fam in e.automorphisms:
            for n in range(5):
                phi = fam.instantiate_matrix(fam.random_admissible(args.seed + n))
                assert orbits.is_automorphism(e.algebra, phi), fam.name

    def chart_section():
        for r in e.representatives:
            if r.chart is None:
                continue
            values = r.random_admissible(args.seed,
                                         extra_conditions=r.chart.conditions)
            phis = charts.chart_polys(r, values)
            charts.verify_chart(e, r, values, jacobian_points=5, seed=args.seed,
                                phis=phis)
            charts.verify_chart_multiplication(e, r, values, pairs=20, seed=args.seed,
                                               phis=phis)

    def moduli_section():
        rep = moduli.dimension_report(e, samples=5, tol=args.tol, seed=args.seed)
        assert rep["agree"] == 5, rep["tangent_dims"]

    section("family integrability sweep", family_sweep)
    section("representative tables", rep_tables)
    section("automorphism families", automorphisms)
    section("holomorphic charts & multiplication", chart_section)
    section("moduli dimension", moduli_section)
    _emit(args, {"algebra": e.name, "sections": sections},
          "\n".join([f"report for {e.name}"]
                    + [f"  {label}: {status}" for label, status in sections.items()]))
    return 0 if all(v == "pass" for v in sections.values()) else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="nilcomplex",
        description="Exact verification of the catalogue of complex "
                    "structures on 6-dimensional nilpotent Lie algebras")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, algebra_positional=False):
        if algebra_positional:
            p.add_argument("algebra")
        else:
            p.add_argument("--algebra", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("list", help="catalogued algebras")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser("show", help="brackets, families, representatives")
    common(p, True)
    p.set_defaults(fn=cmd_show)

    p = sub.add_parser("sample", help="random admissible family member")
    common(p)
    p.add_argument("--family")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("verify", help="integrability of families/representatives")
    common(p)
    p.add_argument("--family")
    p.add_argument("--rep")
    p.add_argument("--j", help="JSON file with a 6x6 matrix")
    p.add_argument("--param", action="append", metavar="K=V")
    p.add_argument("--samples", type=_count, default=10)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("classify-m", help="abelian/Heisenberg classification")
    common(p)
    p.add_argument("--family")
    p.add_argument("--rep")
    p.add_argument("--j")
    p.add_argument("--param", action="append", metavar="K=V")
    p.set_defaults(fn=cmd_classify_m)

    p = sub.add_parser("act", help="apply an automorphism to J")
    common(p)
    p.add_argument("--j", required=True)
    p.add_argument("--phi", required=True)
    p.set_defaults(fn=cmd_act)

    p = sub.add_parser("verify-witness", help="check an equivalence witness file")
    p.add_argument("file")
    p.add_argument("--algebra")
    p.add_argument("--search", type=int, metavar="ATTEMPTS",
                   help="if the file has no phi, try sampled automorphisms; "
                        "the outcome is 'equivalent' or 'inconclusive'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify_witness)

    p = sub.add_parser("mul", help="group multiplication in coordinates")
    p.add_argument("algebra")
    p.add_argument("a")
    p.add_argument("x")
    p.set_defaults(fn=cmd_mul)

    p = sub.add_parser("chart-verify", help="holomorphy + multiplication identities")
    common(p, True)
    p.add_argument("--rep")
    p.add_argument("--seeds", type=_count, default=5)
    p.add_argument("--pairs", type=_count, default=20)
    p.set_defaults(fn=cmd_chart_verify)

    p = sub.add_parser("moduli-dim", help="sampled tangent dimensions")
    common(p, True)
    p.add_argument("--family")
    p.add_argument("--samples", type=_count, default=10)
    p.add_argument("--tol", type=float, default=moduli.DEFAULT_TOL)
    p.set_defaults(fn=cmd_moduli_dim)

    p = sub.add_parser("nonexistence-check",
                       help="gamma=+1 families fail on the gamma=-1 twins")
    p.add_argument("name", choices=catalogue.spotcheck_names())
    p.add_argument("--samples", type=_count, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_nonexistence_check)

    p = sub.add_parser("report", help="full verification dossier")
    common(p, True)
    p.add_argument("--samples", type=_count,
                   help="family samples per algebra (default 5), or twin samples (default 20)")
    p.add_argument("--tol", type=float, default=moduli.DEFAULT_TOL)
    p.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as ex:
        return int(ex.code or 0)
    except (DomainViolation, SamplingExhausted) as ex:
        print(f"FAIL: {type(ex).__name__}: {ex}")
        return 1
    except (UnknownAlgebra, UnknownMember) as ex:
        print(f"error: {ex.args[0]}")
        return 2
    except (UsageError, FileNotFoundError) as ex:
        print(f"error: {ex}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
