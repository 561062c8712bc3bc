"""The catalogue's checks, one implementation each, called by the command
line and the tests: `verify`, `chart-verify` and `moduli-dim` print what
`family_sweep`, `chart_points` and `moduli_dimension` return, and `report`
runs one section per claim of the paper.  A section that fails raises
AssertionError naming what failed, which python -O keeps.
"""

from __future__ import annotations

from . import charts, moduli, orbits
from .acs import check_m_table, classify_m, is_integrable
from .exactnum import rational_str


def _expect(ok: bool, failure) -> None:
    if not ok:
        raise AssertionError(failure)


def family_sweep(e, fam, samples: int, seed: int):
    """Per family (fam, else every samplable one), how many of the draws at
    seed + n (n < samples) are not integrable; passes when none is."""
    results = []
    for f in [fam] if fam else [f for f in e.families if f.samplable]:
        bad = sum(not is_integrable(e.algebra, f.instantiate(f.random_admissible(seed + n)))
                  for n in range(samples))
        results.append({"family": f.name, "samples": samples, "failures": bad})
    return results, all(r["failures"] == 0 for r in results)


def representative_tables(e, rng) -> None:
    """Each representative drawn from rng (an int seed draws each afresh) is
    integrable, with its catalogued type of m and bracket table on m."""
    for r in e.representatives:
        values = r.random_admissible(rng)
        J = r.instantiate(values)
        _expect(is_integrable(e.algebra, J)
                and (not r.expected_m or classify_m(e.algebra, J) == r.expected_m)
                and (not r.m_table or check_m_table(e.algebra, J, r.claimed_m_table(values))),
                r.name)


def automorphism_families(e, seed: int) -> None:
    """Each family's members drawn at seed + n (n < 5), as built, are automorphisms."""
    for fam in e.automorphisms:
        for n in range(5):
            phi = fam.instantiate(fam.random_admissible(seed + n))
            _expect(orbits.is_automorphism(e.algebra, phi), fam.name)


def chart_point(e, r, seed: int, jacobian_points: int, pairs: int):
    """The chart point of r drawn at seed: holomorphy, relations and the
    Jacobian, then the multiplication; status "pass" or "FAIL (...)"."""
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


def chart_points(e, rep, seeds: int, seed: int, pairs: int, jacobian_points: int = 10):
    """chart_point at seed + n (n < seeds) for rep, else for every charted
    representative, one at a time."""
    for r in [rep] if rep else [r for r in e.representatives if r.chart is not None]:
        for n in range(seeds):
            yield chart_point(e, r, seed + n, jacobian_points, pairs)


def moduli_dimension(e, fam, samples: int, seed: int):
    """The dimension report; passes when every tangent dim agrees."""
    rep = moduli.dimension_report(e, family=fam, samples=samples, seed=seed)
    return rep, rep["agree"] == len(rep["tangent_dims"])


def report(e, samples: int, seed: int) -> dict[str, str]:
    """Per section, "pass", or "FAIL: <type>: <message>" for a failed check
    or the ArithmeticError, RuntimeError or ValueError of a domain, a draw
    or an elimination; any other exception is a bug and propagates."""
    def families():
        results, ok = family_sweep(e, None, samples, seed)
        _expect(ok, [r["family"] for r in results if r["failures"]])

    def chart_section():
        for res in chart_points(e, None, 1, seed, pairs=20, jacobian_points=5):
            _expect(res["status"] == "pass", f"{res['representative']}: {res['status']}")

    def moduli_section():
        rep, ok = moduli_dimension(e, None, 5, seed)
        _expect(ok, rep["tangent_dims"])

    sections = {}
    for label, check in (("family integrability sweep", families),
                         ("representative tables", lambda: representative_tables(e, seed)),
                         ("automorphism families", lambda: automorphism_families(e, seed)),
                         ("holomorphic charts & multiplication", chart_section),
                         ("moduli dimension", moduli_section)):
        try:
            check()
            sections[label] = "pass"
        except (AssertionError, ArithmeticError, RuntimeError, ValueError) as ex:
            sections[label] = f"FAIL: {type(ex).__name__}: {str(ex)[:100]}"
    return sections
