"""Catalogue contents: brackets, families, representatives, automorphisms,
field displays and holomorphic charts for the eleven algebras.

Matrix templates for the parametric families live in _families.py and the
long chart formulas in _chartsrc.py (both machine-generated); everything
here is hand-assembled.  Entry/row order is always the basis x_1..x_6, and
second-kind coordinates are named (x1, y1, x2, y2, x3, y3).
"""

from __future__ import annotations

from ..acs import ABELIAN, HEISENBERG
from ..liecore import LieAlgebra
from . import (AlgebraEntry, AutomorphismFamily, Chart, JFamily, ParamSpec,
               Representative)
from ._chartsrc import CHART_SRC as CS
from ._families import FAMILY_SRC as FS


def _params(*specs):
    out = []
    for s in specs:
        if isinstance(s, str):
            out.append(ParamSpec(s))
        else:
            out.append(ParamSpec(*s))
    return tuple(out)


def _rows(*rows):
    out = []
    for r in rows:
        cells = [c.strip() for c in r.split(";")]
        if len(cells) != 6:
            raise ValueError(f"expected 6 cells: {r}")
        out.append(tuple(cells))
    if len(out) != 6:
        raise ValueError(f"expected 6 rows, got {len(out)}")
    return tuple(out)


def _mt(spec):
    """m-table shorthand: {(i,j): ((k, coeff), ...)}."""
    return tuple(sorted((pair, tuple(co.items())) for pair, co in spec.items()))


def _fam(name, params, key, conds, expected_m=None, samplable=True, entries=None, defs=None):
    src = FS.get(key, {}) if key else {}
    return JFamily(
        name=name,
        params=_params(*params),
        entries=entries if entries is not None else tuple(tuple(r) for r in src["entries"]),
        defs=defs if defs is not None else tuple(tuple(d) for d in src.get("defs", ())),
        conditions=tuple(conds),
        expected_m=expected_m,
        samplable=samplable,
    )


ENTRIES = []
SPOTCHECKS = []

# ===================================================================
# G6,3  (M3)
# ===================================================================

_g63 = LieAlgebra(6, {(1, 2): {4: 1}, (1, 3): {5: 1}, (2, 3): {6: 1}}, "G6,3")

_g63_families = (
    _fam("case-xi16", ["j11", "j12", "j13", "j16", "j26", "j36", "j45", "j46",
                       "j52", "j53", "j55", "j56"],
         "g63_case1", ["j16*(j46*j26 + j45*j16)"]),
    _fam("case-xi25", ["j21", "j23", "j24", "j25", "j31", "j43", "j45", "j55",
                       "j63", "j65", "j66"],
         "g63_case2", ["j25*(j31*j25 + j24*j21)"]),
    _fam("case-rest", ["j11", "j12", "j31", "j33", "j34", "j41", "j61", "j62",
                       "j63", "j64"],
         "g63_case3", ["j12*j34"]),
)

_g63_J0_chart = Chart(
    defs=(("w1", "x1 + i*y1"), ("w2", "x2 + i*y2"), ("w3", "x3 + i*y3")),
    phis=("w1", "w2 + w1*conj(w1)/4 - conj(w1)^2/8", "w3"),
    generators=(1, 3, 5),
    # exact-fit verified correction terms
    chi=((2, "(1/4)*(2*conj(f1a) - f1a)*f1x"),
         (3, "-(1/2)*(f2a + conj(f2a) + (f1a^2 + conj(f1a)^2)/8"
             " - f1a*conj(f1a)/2)*f1x")),
)

_g63_reps = (
    Representative(
        name="J1", params=(), defs=(), conditions=(),
        entries=_rows("0;0;0;0;0;1", "0;0;1;0;0;0", "0;-1;0;0;0;0",
                      "0;0;0;0;1;0", "0;0;0;-1;0;0", "-1;0;0;0;0;0"),
        expected_m=HEISENBERG),
    Representative(
        name="J1minus", params=(), defs=(), conditions=(),
        entries=_rows("0;0;0;0;0;-1", "0;0;1;0;0;0", "0;-1;0;0;0;0",
                      "0;0;0;0;1;0", "0;0;0;-1;0;0", "1;0;0;0;0;0"),
        expected_m=HEISENBERG),
    Representative(
        name="J2", params=(), defs=(), conditions=(),
        entries=_rows("0;0;-1;0;0;0", "0;0;0;0;1;0", "1;0;0;0;0;0",
                      "0;0;0;0;0;1", "0;-1;0;0;0;0", "0;0;0;-1;0;0"),
        expected_m=HEISENBERG),
    Representative(
        name="J0", params=(), defs=(), conditions=(),
        entries=_rows("0;-1;0;0;0;0", "1;0;0;0;0;0", "0;0;0;-1;0;0",
                      "0;0;1;0;0;0", "0;0;0;0;0;-1", "0;0;0;0;1;0"),
        m_table=_mt({(1, 3): {5: "1"}, (1, 4): {6: "1"},
                     (2, 3): {6: "1"}, (2, 4): {5: "-1"}}),
        expected_m=HEISENBERG,
        chart=_g63_J0_chart),
)

_g63_aut = AutomorphismFamily(
    name="aut",
    params=_params("b11", "b12", "b13", "b21", "b22", "b23", "b31", "b32", "b33",
                   "b41", "b42", "b43", "b51", "b52", "b53", "b61", "b62", "b63"),
    entries=_rows(
        "b11;b12;b13;0;0;0",
        "b21;b22;b23;0;0;0",
        "b31;b32;b33;0;0;0",
        "b41;b42;b43;b22*b11 - b21*b12;b23*b11 - b21*b13;b23*b12 - b22*b13",
        "b51;b52;b53;b32*b11 - b31*b12;b33*b11 - b31*b13;b33*b12 - b32*b13",
        "b61;b62;b63;b32*b21 - b31*b22;b33*b21 - b31*b23;b33*b22 - b32*b23"),
    conditions=("b11*(b22*b33 - b23*b32) - b12*(b21*b33 - b23*b31)"
                " + b13*(b21*b32 - b22*b31)",),
)

ENTRIES.append(AlgebraEntry(
    name="G6,3", aliases=("M3",), algebra=_g63,
    families=_g63_families, representatives=_g63_reps,
    automorphisms=(_g63_aut,),
    fields_display=((1, ("1", "0", "0", "-y1", "-x2", "0")),
                    (2, ("0", "1", "0", "0", "0", "-x2"))),
    expected_dim=12,
))

# ===================================================================
# G6,7  (M6)
# ===================================================================

_g67 = LieAlgebra(6, {(1, 2): {4: 1}, (1, 3): {5: 1}, (1, 4): {6: 1},
                      (2, 3): {6: -1}}, "G6,7")

_g67_chart = Chart(
    defs=(("w1", "x1 - i*y1"),
          ("w2", "x2 - i*alpha*y2"),
          ("w3", "x3 + i*(alpha/(alpha - 1))*y3")),
    phis=("w1", CS["g67_phi2"], CS["g67_phi3"]),
    chi=((2, "(alpha/4)*(2*conj(f1a) - f1a)*f1x"), (3, CS["g67_chi3"])),
)

_g67_reps = (
    Representative(
        name="J_alpha", params=_params("alpha"),
        conditions=("alpha", "alpha - 1"),
        entries=_rows("0;1;0;0;0;0", "-1;0;0;0;0;0",
                      "0;0;0;alpha;0;0", "0;0;-1/alpha;0;0;0",
                      "0;0;0;0;0;-alpha/(alpha - 1)",
                      "0;0;0;0;(alpha - 1)/alpha;0"),
        m_table=_mt({(1, 3): {5: "1"}, (1, 4): {6: "1 - alpha"},
                     (2, 3): {6: "(1 - alpha)/alpha"}, (2, 4): {5: "-alpha"}}),
        expected_m=HEISENBERG,
        chart=_g67_chart,
        recognize=(("alpha", (3, 4, None)),),
        notes="distinct alpha values give inequivalent structures"),
)

_g67_aut = AutomorphismFamily(
    name="aut",
    params=_params("b11", "b21", "b22", "b31", "b32", "b41", "b42", "b43",
                   "b51", "b52", "b53", "b61", "b62", "b63"),
    entries=_rows(
        "b11;0;0;0;0;0",
        "b21;b22;0;0;0;0",
        "b31;b32;b11^2;0;0;0",
        "b41;b42;b43;b22*b11;0;0",
        "b51;b52;b53;b32*b11;b11^3;0",
        "b61;b62;b63;b42*b11 - b32*b21 + b31*b22;b11*(b43 - b21*b11);b22*b11^2"),
    conditions=("b22*b11",),
)

ENTRIES.append(AlgebraEntry(
    name="G6,7", aliases=("M6",), algebra=_g67,
    families=(_fam("general", ["j11", "j12", "j32", "j34", "j42", "j54", "j55",
                               "j61", "j62", "j64"],
                   "g67", ["j12*j34*(j12 - j34)"]),),
    representatives=_g67_reps,
    automorphisms=(_g67_aut,),
    fields_display=((1, ("1", "0", "0", "-y1", "-x2", "-y2")),
                    (2, ("0", "1", "0", "0", "0", "x2"))),
    expected_dim=10,
))

# ===================================================================
# G6,4  (M7)
# ===================================================================

_g64 = LieAlgebra(6, {(1, 2): {4: 1}, (1, 3): {6: 1}, (2, 4): {5: 1}}, "G6,4")

_g64_chart = Chart(
    defs=(("A", "(alpha + beta)*(1 - alpha*beta - i*(alpha + beta))"
               "/((1 + alpha^2)*(1 + beta^2))"),
          ("w1", "x1 - i*(alpha*x1 + y1)"),
          ("w2", "x2 + ((1 - alpha*beta)*(alpha + beta)/((1 + alpha^2)*(1 + beta^2)))*y2"
                 " - i*((alpha + beta)^2/((1 + alpha^2)*(1 + beta^2)))*y2"),
          ("w3", "x3 + (beta*(alpha^2 + 1)/(alpha + beta))*y3"
                 " - i*((alpha^2 + 1)/(alpha + beta))*y3")),
    phis=("w1", CS["g64_phi2"], CS["g64_phi3"]),
    chi=((2, CS["g64_chi2"]), (3, CS["g64_chi3"])),
)

_g64_reps = (
    Representative(
        name="J_alpha_beta", params=_params("alpha", "beta"),
        conditions=("alpha + beta",),
        entries=_rows(
            "alpha;1;0;0;0;0",
            "-(alpha^2 + 1);-alpha;0;0;0;0",
            "0;0;(-alpha*beta + 1)/(alpha + beta);1;0;0",
            "0;0;-((alpha^2 + 1)*(beta^2 + 1))/(alpha + beta)^2;(alpha*beta - 1)/(alpha + beta);0;0",
            "0;0;0;0;beta;((alpha^2 + 1)*(beta^2 + 1))/(alpha + beta)",
            "0;0;0;0;-(alpha + beta)/(alpha^2 + 1);-beta"),
        m_table=_mt({
            # the x~6 coefficient carries a plus sign (verified exactly)
            (1, 3): {5: "-((beta^2 + 1)*(alpha^2 + 1)^2)/(alpha + beta)^2",
                     6: "beta*(1 + alpha^2)/(alpha + beta)"},
            (1, 4): {5: "((alpha*beta - 1)/(alpha + beta))*(1 + alpha^2)",
                     6: "-alpha"},
            (2, 3): {5: "-(alpha/(alpha + beta)^2)*(1 + alpha^2)*(1 + beta^2)",
                     6: "(alpha*beta - 1)/(alpha + beta)"},
            (2, 4): {5: "beta*(alpha^2 + 1)/(alpha + beta)", 6: "-1"}}),
        expected_m=HEISENBERG,
        chart=_g64_chart,
        recognize=(("alpha", (1, 1, None)), ("beta", (5, 5, None))),
        notes="distinct (alpha, beta) pairs give inequivalent structures"),
)

_g64_aut = AutomorphismFamily(
    name="aut",
    params=_params("b11", "b22", "b31", "b32", "b33", "b41", "b42",
                   "b51", "b52", "b53", "b61", "b62", "b63"),
    entries=_rows(
        "b11;0;0;0;0;0",
        "0;b22;0;0;0;0",
        "b31;b32;b33;0;0;0",
        "b41;b42;0;b22*b11;0;0",
        "b51;b52;b53;-b41*b22;b22^2*b11;0",
        "b61;b62;b63;b32*b11;0;b33*b11"),
    conditions=("b33*b22*b11",),
)

ENTRIES.append(AlgebraEntry(
    name="G6,4", aliases=("M7",), algebra=_g64,
    families=(_fam("general", ["j11", "j12", "j32", "j34", "j42", "j55",
                               "j61", "j62", "j63", "j64"],
                   "g64", ["j12*j34*(j11 + j55)"]),),
    representatives=_g64_reps,
    automorphisms=(_g64_aut,),
    # the x3-coefficient of the second field is -y2, pinned by the exact
    # chart identities
    fields_display=((1, ("1", "0", "0", "-y1", "y1^2/2", "-x2")),
                    (2, ("0", "1", "0", "0", "-y2", "0"))),
    expected_dim=10,
    notes="family entry (6,5) is the solved dependent value",
))

# ===================================================================
# G6,1  (M4)
# ===================================================================

_g61 = LieAlgebra(6, {(1, 2): {5: 1}, (1, 4): {6: 1}, (2, 3): {6: 1}}, "G6,1")

_g61_families = (
    _fam("case-1", ["j11", "j13", "j21", "j22", "j23", "j24", "j55",
                    "j61", "j62", "j63", "j64", "j65"],
         "g61_case1", ["j21*j23*j65*(j13 - j24)"]),
    _fam("case-2", ["j13", "j21", "j22", "j24", "j41", "j42", "j55",
                    "j61", "j62", "j63", "j64"],
         "g61_case2", ["j21*j24*j13*(j13 - j24)"]),
    _fam("case-3", ["j11", "j12", "j41", "j42", "j55", "j61", "j62",
                    "j63", "j64", "j65"],
         "g61_case3", ["j12*j65"]),
    _fam("case-4", ["j11", "j22", "j23", "j24", "j41", "j55", "j61", "j62",
                    "j63", "j64", "j65"],
         "g61_case4", ["j23*j41*j65"]),
    _fam("case-5", ["j12", "j13", "j22", "j24", "j32", "j55", "j61", "j62",
                    "j63", "j64"],
         "g61_case5", ["j13*j24*(j24 - j13)"]),
)

_g61_Ja_chart = Chart(
    defs=(("w1", "x1 + i*y1"),
          ("w2", "x2 + alpha*y2 - i*y2"),
          ("w3", "x3 + i*y3")),
    phis=("2*w1 + conj(w2) + w2",
          "2*w2 + ((alpha - 1)/alpha)*(conj(w1) + w1)",
          CS["g61a_phi3"]),
    relations=((2, ((1, "-i*alpha"), (3, "-i*(1 - alpha)"))),
               (4, ((1, "-i*alpha"), (3, "(1 + i)*alpha"))),
               (6, ((5, "-i"),))),
    chi=((3, CS["g61a_chi3"]),),
    conditions=("alpha - 1",),
)

_g61_Ja1_chart = Chart(
    defs=(("alpha", "1"),
          ("w1", "x1 + i*y1"),
          ("w2", "x2 + alpha*y2 - i*y2"),
          ("w3", "x3 + i*y3")),
    phis=("2*w1 + conj(w2) + w2",
          "2*w2 + ((alpha - 1)/alpha)*(conj(w1) + w1)",
          CS["g61a_phi3_eq1"]),
    relations=((2, ((1, "-i*alpha"), (3, "-i*(1 - alpha)"))),
               (4, ((1, "-i*alpha"), (3, "(1 + i)*alpha"))),
               (6, ((5, "-i"),))),
    chi=((3, CS["g61a_chi3_eq1"]),),
)

_g61_Jb_chart = Chart(
    defs=(("w1", "x1 - i*y1"), ("w2", "x2 + i*y2"), ("w3", "x3 + i*y3")),
    phis=("w1", "w2", CS["g61b_phi3"]),
    relations=((2, ((1, "i"),)), (4, ((3, "-i"),)), (6, ((5, "-i"),))),
    chi=((3, CS["g61b_chi3"]),),
)

_g61_Jc_chart = Chart(
    defs=(("w1", "x1 - i*x2"), ("w2", "y1 + i*y2"), ("w3", "x3 + (i/2)*y3")),
    # kernel-solved normalization: the gamma term carries a factor 2
    phis=("2*gamma*conj(w2) - 4*w1", "w2", CS["g61c_phi3"]),
    generators=(1, 2, 5),
    relations=((3, ((1, "i"),)),
               (4, ((1, "-i*gamma"), (2, "-i"))),
               (6, ((5, "-i/2"),))),
    chi=((3, CS["g61c_chi3"]),),
)

_g61_reps = (
    Representative(
        name="J_alpha", params=_params("alpha"), conditions=("alpha",),
        entries=_rows(
            "0;-alpha;0;-alpha;0;0",
            "1;0;1;alpha;0;0",
            "alpha - 1;alpha - 1;alpha;(alpha + 1)*alpha;0;0",
            "-(alpha - 1)/alpha;0;-1;-alpha;0;0",
            "0;0;0;0;0;-1",
            "0;0;0;0;1;0"),
        m_table=_mt({(1, 2): {5: "1 - alpha"}, (1, 3): {6: "-1"},
                     (1, 4): {5: "-alpha", 6: "-alpha"},
                     (2, 3): {5: "alpha"},
                     (2, 4): {5: "alpha^2", 6: "-alpha"},
                     (3, 4): {5: "-alpha"}}),
        expected_m=HEISENBERG,
        chart=_g61_Ja_chart,
        recognize=(("alpha", (3, 3, None)),),
        notes="distinct alpha values give inequivalent structures"),
    Representative(
        name="J_alpha1", params=(), conditions=(),
        entries=_rows(
            "0;-1;0;-1;0;0", "1;0;1;1;0;0", "0;0;1;2;0;0",
            "0;0;-1;-1;0;0", "0;0;0;0;0;-1", "0;0;0;0;1;0"),
        expected_m=HEISENBERG,
        chart=_g61_Ja1_chart,
        notes="J_alpha at alpha = 1, which has its own chart"),
    Representative(
        name="J_abelian", params=(), conditions=(),
        entries=_rows("0;1;0;0;0;0", "-1;0;0;0;0;0", "0;0;0;-1;0;0",
                      "0;0;1;0;0;0", "0;0;0;0;0;-1", "0;0;0;0;1;0"),
        m_table=_mt({}),
        expected_m=ABELIAN,
        chart=_g61_Jb_chart,
        notes="not equivalent to any J_alpha"),
    Representative(
        name="Jp_beta", params=_params("beta"),
        conditions=("beta", "beta - 1", "beta + 1"),
        entries=_rows(
            "0;0;1;0;0;0", "0;0;0;beta;0;0", "-1;0;0;0;0;0",
            "0;-1/beta;0;0;0;0",
            "0;0;0;0;0;-beta/(beta - 1)",
            "0;0;0;0;(beta - 1)/beta;0"),
        notes="equivalent to J_alpha at alpha = (beta - 1)^2/beta; "
              "beta and 1/beta give the same orbit"),
    Representative(
        name="Jpp_gamma", params=_params("gamma"), conditions=(),
        entries=_rows(
            "0;0;1;-gamma;0;0", "0;0;0;-1;0;0", "-1;gamma;0;0;0;0",
            "0;1;0;0;0;0", "0;0;0;0;0;-1/2", "0;0;0;0;2;0"),
        m_table=_mt({(1, 2): {5: "1"}, (1, 4): {6: "2"}, (2, 3): {6: "2"},
                     (2, 4): {6: "-2*gamma"}, (3, 4): {5: "1"}}),
        expected_m=HEISENBERG,
        chart=_g61_Jc_chart,
        recognize=(("gamma", (3, 2, None)),),
        notes="gamma != 0 all equivalent to gamma = 1; gamma = 0 is a "
              "separate orbit; never equivalent to J_alpha or J_abelian"),
)

_g61_aut = AutomorphismFamily(
    name="aut",
    params=_params("b11", "b12", "b21", "b22", "b31", "b32", "b41", "b42",
                   "b51", "b52", "b53", "b54", "b61", "b62", "b63", "b64", "u"),
    entries=_rows(
        "b11;b12;0;0;0;0",
        "b21;b22;0;0;0;0",
        "b31;b32;b11*u;-b12*u;0;0",
        "b41;b42;-b21*u;b22*u;0;0",
        "b51;b52;b53;b54;b22*b11 - b21*b12;0",
        "b61;b62;b63;b64;b32*b21 - b31*b22 - b41*b12 + b42*b11;(b22*b11 - b21*b12)*u"),
    conditions=("u", "b22*b11 - b21*b12"),
)

ENTRIES.append(AlgebraEntry(
    name="G6,1", aliases=("M4",), algebra=_g61,
    families=_g61_families, representatives=_g61_reps,
    automorphisms=(_g61_aut,),
    fields_display=((1, ("1", "0", "0", "0", "-y1", "-y2")),
                    (2, ("0", "1", "0", "0", "0", "-x2"))),
    expected_dim=12,
))

# ===================================================================
# G6,6  (M1)
# ===================================================================

_g66 = LieAlgebra(6, {(1, 2): {4: 1}, (2, 3): {6: 1}, (2, 4): {5: 1}}, "G6,6")

_g66_chart = Chart(
    defs=(("w1", "x1 + i*y1"), ("w2", "x2 + i*y2"), ("w3", "x3 - i*y3")),
    phis=("w1", CS["g66_phi2"], CS["g66_phi3"]),
    chi=((2, "(1/4)*f1x*(2*conj(f1a) - f1a)"), (3, CS["g66_chi3"])),
)

_g66_reps = (
    Representative(
        name="J", params=(), conditions=(),
        entries=_rows("0;-1;0;0;0;0", "1;0;0;0;0;0", "0;0;0;-1;0;0",
                      "0;0;1;0;0;0", "0;0;0;0;0;1", "0;0;0;0;-1;0"),
        m_table=_mt({(1, 3): {5: "-1"}, (1, 4): {6: "1"},
                     (2, 3): {6: "1"}, (2, 4): {5: "1"}}),
        expected_m=HEISENBERG,
        chart=_g66_chart,
        notes="single orbit"),
)

# bracket preservation forces the (2,3) entry to vanish; with it zeroed
# every sampled instance is an automorphism
_g66_aut = AutomorphismFamily(
    name="aut",
    params=_params("b11", "b12", "b22", "b31", "b32", "b33",
                   "b41", "b42", "b43", "b51", "b52", "b53",
                   "b61", "b62", "b63"),
    entries=_rows(
        "b11;b12;0;0;0;0",
        "0;b22;0;0;0;0",
        "b31;b32;b33;0;0;0",
        "b41;b42;b43;b22*b11;0;0",
        "b51;b52;b53;-b41*b22;b22^2*b11;b43*b22",
        "b61;b62;b63;-b31*b22;0;b33*b22"),
    conditions=("b11*b22*b33",),
)

ENTRIES.append(AlgebraEntry(
    name="G6,6", aliases=("M1",), algebra=_g66,
    families=(_fam("general", ["j11", "j21", "j33", "j41", "j42", "j43",
                               "j51", "j53", "j54", "j61"],
                   "g66", ["j21*j43"]),),
    representatives=_g66_reps,
    automorphisms=(_g66_aut,),
    fields_display=((1, ("1", "0", "0", "-y1", "y1^2/2", "0")),
                    (2, ("0", "1", "0", "0", "-y2", "-x2"))),
    expected_dim=10,
))

# ===================================================================
# G6,5  (M8)
# ===================================================================

_g65 = LieAlgebra(6, {(1, 2): {4: 1}, (1, 4): {5: 1}, (2, 3): {6: 1},
                      (2, 4): {6: 1}}, "G6,5")

_g65_chart = Chart(
    defs=(("A", "-(j55^2 + 1 - j65*j55*j43)/(j65*j43)"),
          ("w1", "x1 - A*y1 + i*y1"),
          ("w2", "x2 + ((j55 + j43 - j65*j43)/j43)*y2 + (i/j43)*y2"),
          ("w3", "x3 - (j55/j65)*y3 + (i/j65)*y3")),
    phis=("w1", CS["g65_phi2"], CS["g65_phi3"]),
    chi=((2, "C*f1x"), (3, "D1*f1x^2 + D2*f1x + D3*f2x")),
    chi_defs=(("C", CS["g65_C"]), ("D1", CS["g65_D1"]),
              ("D2", CS["g65_D2"]), ("D3", CS["g65_D3"])),
)

_g65_reps = (
    Representative(
        name="J_params", params=_params("j43", "j55", "j65"),
        conditions=("j43*j65",),
        defs=(("d1", "(j55^2 + 1 - j65*j55*j43)/(j65*j43)"),
              ("d3", "j55 + j43 - j65*j43")),
        entries=_rows(
            "-d1;-(d1^2 + 1);0;0;0;0",
            "1;d1;0;0;0;0",
            "0;0;-d3;-((d3^2 + 1)/j43);0;0",
            "0;0;j43;d3;0;0",
            "0;0;0;0;j55;-((j55^2 + 1)/j65)",
            "0;0;0;0;j65;-j55"),
        m_table=_mt({
            # verified reading (a j65 factor belongs in both terms):
            (1, 3): {5: "(-j65*j55*j43 + j55^2 + 1)/j65", 6: "-j65*j43 + j55"},
            (1, 4): {5: "((j55^2 + 1)*(j55 + j43) + j65*j55*j43*(j65*j43 - 2*j55 - j43))/(j65*j43)",
                     6: "((j65*j43 - j55)^2 + j43*(j55 - j65*j43) + 1)/j43"},
            (2, 3): {5: "(((j65*j43 - j55)^2 + 1)/(j65^2*j43))*(1 + j55^2)",
                     6: "(((j65*j43 - j55)^2 + 1)/(j65^2*j43))*j65*j55"},
            (2, 4): {5: "(((j65*j43 - j55)^2 + 1)/(j65^2*j43^2))*(-(j55^2 + 1)*(j43*j65 - j55 - j43))",
                     6: "(((j65*j43 - j55)^2 + 1)/(j65^2*j43^2))*j65*(-j65*j55*j43 + j55^2 + 1 + j55*j43)"}}),
        expected_m=HEISENBERG,
        chart=_g65_chart,
        recognize=(("j43", (4, 3, None)), ("j55", (5, 5, None)), ("j65", (6, 5, None))),
        notes="first-kind automorphisms preserve the parameters; one "
              "second-kind involution identifies a paired triple"),
)

_g65_aut_1 = AutomorphismFamily(
    name="first-kind",
    params=_params("b11", "b22", "b31", "b32", "b41", "b42",
                   "b51", "b52", "b53", "b61", "b62", "b63"),
    entries=_rows(
        "b11;0;0;0;0;0",
        "0;b22;0;0;0;0",
        "b31;b32;b22*b11;0;0;0",
        "b41;b42;0;b22*b11;0;0",
        "b51;b52;b53;b42*b11;b22*b11^2;0",
        "b61;b62;b63;-(b41 + b31)*b22;0;b22^2*b11"),
    conditions=("b11*b22",),
)

_g65_aut_2 = AutomorphismFamily(
    name="second-kind",
    params=_params("b12", "b21", "b31", "b32", "b41", "b42",
                   "b51", "b52", "b53", "b61", "b62", "b63"),
    entries=_rows(
        "0;b12;0;0;0;0",
        "b21;0;0;0;0;0",
        "b31;b32;b21*b12;0;0;0",
        "b41;b42;-b21*b12;-b21*b12;0;0",
        "b51;b52;b53;-b41*b12;0;-b21*b12^2",
        "b61;b62;b63;b21*(b42 + b32);-b21^2*b12;0"),
    conditions=("b12*b21",),
)

ENTRIES.append(AlgebraEntry(
    name="G6,5", aliases=("M8",), algebra=_g65,
    families=(_fam("general", ["j21", "j31", "j41", "j43", "j51", "j55",
                               "j61", "j63", "j64", "j65"],
                   "g65", ["j21*j43*j65"]),),
    representatives=_g65_reps,
    automorphisms=(_g65_aut_1, _g65_aut_2),
    fields_display=((1, ("1", "0", "0", "-y1", "-y2", "y1^2/2")),
                    (2, ("0", "1", "0", "0", "0", "-(x2 + y2)"))),
    expected_dim=10,
))

# ===================================================================
# G6,8  (M9)
# ===================================================================

_g68 = LieAlgebra(6, {(1, 2): {4: 1}, (1, 4): {5: 1}, (2, 3): {5: 1},
                      (2, 4): {6: 1}}, "G6,8")

_g68_chart = Chart(
    defs=(("A", "(1/j43)*(j33*(1 - 1/j43) - i*(1 + j33^2/j43))"),
          ("B", "((j43 + 1)/j43^2)*(j33 + i*j43)"),
          ("w1", "x1 + (j33/j43)*y1 + i*y1"),
          ("w2", "x2 - (j33/j43)*y2 + (i/j43)*y2"),
          ("w3", "x3 + i*((j43 + 1)/j43)*y3")),
    phis=("w1", CS["g68_phi2"], CS["g68_phi3"]),
    chi=((2, CS["g68_chi2"]), (3, CS["g68_chi3"])),
)

_g68_reps = (
    Representative(
        name="J_params", params=_params("j33", "j43"),
        conditions=("j43", "j43 + 1"),
        entries=_rows(
            "-j33/j43;-(j43^2 + j33^2)/j43^2;0;0;0;0",
            "1;j33/j43;0;0;0;0",
            "0;0;j33;-(j33^2 + 1)/j43;0;0",
            "0;0;j43;-j33;0;0",
            "0;0;0;0;0;-(j43 + 1)/j43",
            "0;0;0;0;j43/(j43 + 1);0"),
        m_table=_mt({
            (1, 3): {6: "-j43"},
            # x~4 is a complex multiple of x~3, so this bracket is
            # determined; computed value:
            (1, 4): {5: "(j43 + 1)/j43", 6: "j33"},
            (2, 3): {5: "j43 + 1", 6: "-j33"},
            (2, 4): {5: "j33*(-j43^2 + 1)/j43^2", 6: "(j43 + j33^2)/j43"}}),
        expected_m=HEISENBERG,
        chart=_g68_chart,
        recognize=(("j33", (3, 3, None)), ("j43", (4, 3, None))),
        notes="parameters are a complete orbit invariant"),
)

_g68_aut = AutomorphismFamily(
    name="aut",
    params=_params("b11", "b12", "b22", "b31", "b32", "b41", "b42",
                   "b51", "b52", "b53", "b61", "b62", "b63"),
    entries=_rows(
        "b11;b12;0;0;0;0",
        "0;b22;0;0;0;0",
        "b31;b32;b11^2;0;0;0",
        "b41;b42;0;b22*b11;0;0",
        "b51;b52;b53;-(b41*b12 + b31*b22 - b42*b11);b22*b11^2;b22*b12*b11",
        "b61;b62;b63;-b41*b22;0;b22^2*b11"),
    conditions=("b22*b11",),
)

ENTRIES.append(AlgebraEntry(
    name="G6,8", aliases=("M9",), algebra=_g68,
    families=(_fam("general", ["j21", "j31", "j32", "j33", "j43", "j55",
                               "j61", "j62", "j63", "j64"],
                   "g68", ["j21*j43*(j43 + j21)"]),),
    representatives=_g68_reps,
    automorphisms=(_g68_aut,),
    # the x3-coefficient of the first field is -y2, pinned by the exact
    # chart identities
    fields_display=((1, ("1", "0", "0", "-y1", "-y2", "y1^2/2")),
                    (2, ("0", "1", "0", "0", "-x2", "-y2"))),
    expected_dim=10,
))

# ===================================================================
# M10
# ===================================================================

_m10 = LieAlgebra(6, {(1, 2): {3: 1}, (1, 3): {5: 1}, (1, 4): {6: 1},
                      (2, 3): {6: -1}, (2, 4): {5: 1}}, "M10")

_m10_rb_defs = (
    ("r", "((j21 + 1)*(j21 - 1)*j43*j33)/((j43*j21 - j21^2 - 1)*j43 + (j33^2 + 1)*j21)"),
    ("b", "-((j43 - 2*j21)*j43 + (j33^2 + 1)*j21^2)"
          "/((j43*j21 - j21^2 - 1)*j43 + (j33^2 + 1)*j21)"),
)

_m10_chart_defs = (
    ("c", "i*j43*j21*b - j43*r + i*j43 + i*j33*j21*r + j33*j21 + b*j33"),
    ("w1", "x1 + (i/j21)*y1"),
    ("w2", "x2 - (j33/j43)*y2 + (i/j43)*y2"),
    ("w3", "x3 - (r/b)*y3 + (i/b)*y3"),
)

_m10a_chart = Chart(
    defs=_m10_rb_defs + _m10_chart_defs,
    phis=("w1", CS["m10a_phi2"], CS["m10a_phi3"]),
    chi=((2, CS["m10a_chi2"]), (3, CS["m10a_chi3"])),
    chi_defs=(("D1", CS["m10a_D1"]), ("D2", CS["m10a_D2"])),
)

_m10b_chart = Chart(
    defs=(("j33", "0"), ("j43", "j21"), ("r", "0"), ("b", "j65")) + _m10_chart_defs[:1]
         + _m10_chart_defs[1:],
    phis=("w1", CS["m10a_phi2"], CS["m10a_phi3"]),
    chi=((2, CS["m10a_chi2"]), (3, CS["m10b_chi3"])),
    chi_defs=(("D1", CS["m10b_D1"]), ("D2", CS["m10b_D2"])),
)

_m10c_chart = Chart(
    defs=(("j21", "-1"), ("j43", "-1"), ("r", "0"), ("b", "1")) + _m10_chart_defs[:1]
         + _m10_chart_defs[1:],
    phis=("w1", CS["m10a_phi2"], CS["m10a_phi3"]),
    chi=((2, CS["m10a_chi2"]), (3, CS["m10c_chi3"])),
    chi_defs=(("D1", CS["m10c_D1"]), ("D2", CS["m10c_D2"])),
)

_m10_reps = (
    Representative(
        name="J_case1", params=_params("j33", "j43", ("j21", "unit")),
        conditions=("j43*(j21 - j43)",
                    "(j43*j21 - j21^2 - 1)*j43 + (j33^2 + 1)*j21"),
        defs=_m10_rb_defs,
        entries=_rows(
            "0;-1/j21;0;0;0;0",
            "j21;0;0;0;0;0",
            "0;0;j33;-(j33^2 + 1)/j43;0;0",
            "0;0;j43;-j33;0;0",
            "0;0;0;0;r;-(1 + r^2)/b",
            "0;0;0;0;b;-r"),
        m_table=_mt({
            (1, 3): {5: "-j43*j21 + 1", 6: "j33*j21"},
            (1, 4): {5: "j33*j21", 6: "(j43 - j33^2*j21 - j21)/j43"},
            (2, 3): {5: "j33/j21", 6: "(j43 - j21)/j21"},
            (2, 4): {5: "(j43*j21 - j33^2 - 1)/(j43*j21)", 6: "-j33/j21"}}),
        expected_m=HEISENBERG,
        chart=_m10a_chart,
        recognize=(("j21", (2, 1, None)), ("j33", (3, 3, None)), ("j43", (4, 3, None))),
        notes="(j21, j33, j43) is a complete orbit invariant on this stratum"),
    Representative(
        name="J_case21", params=_params(("j21", "pm_one"), ("j65", "unit")),
        conditions=(),
        entries=_rows(
            "0;-1/j21;0;0;0;0",
            "j21;0;0;0;0;0",
            "0;0;0;-1/j21;0;0",
            "0;0;j21;0;0;0",
            "0;0;0;0;0;-1/j65",
            "0;0;0;0;j65;0"),
        m_table=_mt({}),
        expected_m=ABELIAN,
        chart=_m10b_chart,
        recognize=(("j21", (2, 1, None)), ("j65", (6, 5, None))),
        notes="abelian stratum; never equivalent to a case-1 structure"),
    Representative(
        name="J_case22", params=_params("j33"), conditions=("j33",),
        entries=_rows(
            "0;1;0;0;0;0",
            "-1;0;0;0;0;0",
            "0;0;j33;j33^2 + 1;0;0",
            "0;0;-1;-j33;0;0",
            "0;0;0;0;0;-1",
            "0;0;0;0;1;0"),
        m_table=_mt({
            (1, 3): {6: "-j33"}, (1, 4): {5: "-j33", 6: "-j33^2"},
            (2, 3): {5: "-j33"}, (2, 4): {5: "-j33^2", 6: "j33"}}),
        expected_m=HEISENBERG,
        chart=_m10c_chart,
        recognize=(("j33", (3, 3, None)),),
        notes="third stratum; j33 is a complete orbit invariant"),
)

_m10_aut = AutomorphismFamily(
    name="aut",
    params=_params("b11", "b21", "b31", "b32", "b41", "b42",
                   "b51", "b52", "b54", "b61", "b62", "b64", ("u", "pm_one")),
    entries=_rows(
        "b11;b21*u;0;0;0;0",
        "b21;-b11*u;0;0;0;0",
        "b31;b32;-(b21^2 + b11^2)*u;0;0;0",
        "b41;b42;0;b21^2 + b11^2;0;0",
        "b51;b52;b32*b11 - b31*b21*u + b41*b11*u + b42*b21;b54;"
        "-(b21^2 + b11^2)*b11*u;(b21^2 + b11^2)*b21",
        "b61;b62;-(b32*b21 + b31*b11*u + b41*b21*u - b42*b11);b64;"
        "(b21^2 + b11^2)*b21*u;(b21^2 + b11^2)*b11"),
    conditions=("b21^2 + b11^2",),
)

ENTRIES.append(AlgebraEntry(
    name="M10", aliases=(), algebra=_m10,
    families=(
        _fam("case-1", ["j11", "j21", "j31", "j33", "j41", "j43", "j53",
                        "j61", "j62", "j63"],
             "m10_case1", ["j21*j43*(j21 - j43)",
                           "((j43 - j21)*j21 - (j11^2 + 1))*j43 + (j33^2 + 1)*j21"]),
        _fam("case-21", ["j31", "j41", "j53", "j55", "j61", "j62", "j63",
                         "j65", ("j21", "pm_one")],
             "m10_case21", ["j65"]),
        _fam("case-22", ["j11", "j31", "j33", "j41", "j53", "j61", "j62",
                         "j63", "j65"],
             "m10_case22", ["(j33 - j11)*(j33 + j11)", "j65"]),
    ),
    representatives=_m10_reps,
    automorphisms=(_m10_aut,),
    fields_display=((1, ("1", "0", "-y1", "0", "-x2", "-(y2 + y1^2/2)")),
                    (2, ("0", "1", "0", "0", "-y2", "x2"))),
    expected_dim=10,
))

# ===================================================================
# M14 (gamma = +1)
# ===================================================================

_m14 = LieAlgebra(6, {(1, 3): {4: 1}, (1, 4): {6: 1}, (2, 3): {5: 1},
                      (2, 5): {6: 1}}, "M14+1")

_m14_chart = Chart(
    defs=(("w1", "x1 + i*y1"), ("w2", "x2 - i*j36*y3"), ("w3", "x3 - i*y2")),
    phis=("w1", "w2 + (j36/2)*w3*conj(w1)", "w3"),
    chi=((2, CS["m14_chi2"]), (3, CS["m14_chi3"])),
)

_m14_rep = Representative(
    name="J_pm", params=_params(("j36", "pm_one")), conditions=(),
    entries=_rows(
        "0;-1;0;0;0;0",
        "1;0;0;0;0;0",
        "0;0;0;0;0;j36",
        "0;0;0;0;-1;0",
        "0;0;0;1;0;0",
        "0;0;-1/j36;0;0;0"),
    m_table=_mt({(1, 3): {4: "1"}, (1, 6): {5: "-j36"},
                 (2, 3): {5: "1"}, (2, 6): {4: "j36"}}),
    expected_m=HEISENBERG,
    chart=_m14_chart,
    recognize=(("j36", (3, 6, None)),),
    notes="the two sign choices are inequivalent; derived algebra of m is "
          "the complex line spanned by x~4 (= -i x~5)",
)

_m14_aut = AutomorphismFamily(
    name="aut",
    params=_params("b11", "b21", "b33", "b41", "b42", "b43", "b53",
                   "b61", "b62", "b63", "k", ("u", "pm_one")),
    entries=_rows(
        "b11;b21*u;0;0;0;0",
        "b21;-b11*u;0;0;0;0",
        "0;0;b33;0;0;0",
        "b41;b42;b43;b33*b11;b33*b21*u;0",
        "-(b42 - b21*k)*u;b41*u - b11*k;b53;b33*b21;-b33*b11*u;0",
        "b61;b62;b63;b53*b21 + b43*b11;-(b53*b11 - b43*b21)*u;(b21^2 + b11^2)*b33"),
    conditions=("(b21^2 + b11^2)*b33",),
)

_m14_families = (
    _fam("general", ["j31", "j32", "j35", "j36", "j41", "j51", "j65", "j66",
                     ("j21", "pm_one")],
         "m14", ["j36"]),
)

ENTRIES.append(AlgebraEntry(
    name="M14+1", aliases=("M14_1", "M14"), algebra=_m14,
    families=_m14_families,
    representatives=(_m14_rep,),
    automorphisms=(_m14_aut,),
    fields_display=((1, ("1", "0", "0", "-x2", "0", "-y2")),
                    (2, ("0", "1", "0", "0", "-x2", "-x3"))),
    expected_dim=8,
))

# ===================================================================
# M18 (gamma = +1); shares the J-family shape with M14
# ===================================================================

_m18 = LieAlgebra(6, {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {6: 1},
                      (2, 3): {5: 1}, (2, 5): {6: 1}}, "M18+1")

_m18_chart = Chart(
    defs=(("w1", "x1 + i*y1"), ("w2", "x2 - i*j36*y3"), ("w3", "x3 - i*y2")),
    phis=("w1", CS["m18_phi2"], CS["m18_phi3"]),
    chi=((2, CS["m18_chi2"]), (3, CS["m18_chi3"])),
    chi_defs=(("D2", CS["m18_D2"]), ("D3", CS["m18_D3"])),
)

_m18_rep = Representative(
    name="J_pm", params=_params(("j36", "pm_one")), conditions=(),
    entries=_m14_rep.entries,
    m_table=_m14_rep.m_table,
    expected_m=HEISENBERG,
    chart=_m18_chart,
    recognize=(("j36", (3, 6, None)),),
    notes="same matrices as on M14+1 but a different group, hence a "
          "different chart",
)

_m18_aut = AutomorphismFamily(
    name="aut",
    params=_params("b11", "b21", "b31", "b32", "b41", "b42", "b51", "b52",
                   "b61", "b62", ("u", "pm_one")),
    entries=_rows(
        "b11;b21*u;0;0;0;0",
        "b21;-b11*u;0;0;0;0",
        "b31;b32;-(b21^2 + b11^2)*u;0;0;0",
        "b41;b42;b32*b11 - b31*b21*u;-(b21^2 + b11^2)*b11*u;-(b21^2 + b11^2)*b21;0",
        "b51;b52;b32*b21 + b31*b11*u;-(b21^2 + b11^2)*b21*u;(b21^2 + b11^2)*b11;0",
        "b61;b62;b42*b11 - b41*b21*u + b51*b11*u + b52*b21;"
        "(b21^2 + b11^2)*b32;-(b21^2 + b11^2)*b31;-(b21^2 + b11^2)^2*u"),
    conditions=("b21^2 + b11^2",),
)

ENTRIES.append(AlgebraEntry(
    name="M18+1", aliases=("M18_1", "M18"), algebra=_m18,
    families=(
        _fam("general", ["j31", "j32", "j35", "j36", "j41", "j51", "j65", "j66",
                         ("j21", "pm_one")],
             "m14", ["j36"]),
    ),
    representatives=(_m18_rep,),
    automorphisms=(_m18_aut,),
    fields_display=((1, ("1", "0", "-y1", "-x2", "y1^2/2", "-(y2 + y1^3/6)")),
                    (2, ("0", "1", "0", "0", "-x2", "-x3"))),
    expected_dim=8,
))

# gamma = -1 twins exist only as nonexistence spot-check targets
SPOTCHECKS.append(("M14-1",
                   LieAlgebra(6, {(1, 3): {4: 1}, (1, 4): {6: 1}, (2, 3): {5: 1},
                                  (2, 5): {6: -1}}, "M14-1"),
                   "M14+1"))
SPOTCHECKS.append(("M18-1",
                   LieAlgebra(6, {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {6: 1},
                                  (2, 3): {5: 1}, (2, 5): {6: -1}}, "M18-1"),
                   "M18+1"))

# ===================================================================
# M5 (realification of the complex Heisenberg algebra)
# ===================================================================

_m5 = LieAlgebra(6, {(1, 3): {5: 1}, (1, 4): {6: 1}, (2, 3): {6: -1},
                     (2, 4): {5: 1}}, "M5")

_m5_case1_defs = (
    ("a", "((j55^2 + 1)*j13 + (j14 - 1)*j65*j55)/j65"),
    ("b", "-(1 + a^2)/j14"),
    ("c", "((j65*j55*(j14 - 1)^2 + 2*j55^2*j13*(j14 - 1) + j14*j13)*j65"
          " + (j55^2 + 1)*j55*j13^2)/(j65*j14)"),
    ("d", "((j65*(j14 - 1) + j55*j13*(2 - j14))*j65 - (j55^2 + 1)*j13^2)/(j65*j14)"),
)

_m5_case1_chart = Chart(
    defs=_m5_case1_defs + (
        ("M", CS["m5_M"]),
        ("LAM", CS["m5_LAM"]),
        ("w1", "x1 - (a/b)*y2 + (i/b)*y2"),
        ("w2", "x2 - i*y1"),
        ("w3", "x3 - (j55/j65)*y3 + (i/j65)*y3")),
    phis=(CS["m5_phi1"], "w2", CS["m5_phi3_core"] + " " + CS["m5_psi_nonab"]),
    relations=((6, ((5, "-i*(1 - i*j55)/j65"),)),
               (1, ((4, "-i*(1 + i*a)/j14"),)),
               # exactly solved x~4 coefficient
               (2, ((3, "-i"), (4, "i*(i*d + (1 + i*a)*j13/j14)")))),
    chi=((3, "(1/(8*j65))*(C1*f1x + C2*j65*f2x)"),),
    chi_defs=(("C1", CS["m5_C1"]), ("C2", CS["m5_C2"])),
    conditions=("j13^2 + (j14 - 1)^2",),
)

_m5_ab_chart = Chart(
    defs=(("w1", "x1 - i*y2"), ("w2", "x2 - i*y1"), ("w3", "x3 + (i/beta)*y3")),
    phis=("2*w1", "w2",
          CS["m5ab_phi3_core"] +
          " - (1/4)*w1*conj(w2) + (1/(4*beta))*(w2*conj(w2) - conj(w2)^2/2)"),
    relations=((6, ((5, "-i/beta"),)), (1, ((4, "-i"),)), (2, ((3, "-i"),))),
    chi=((3, CS["m5ab_delta"]),),
)

_m5_reps = (
    Representative(
        name="J_case1", params=_params("j13", "j14", "j55", "j65"),
        conditions=("j14*j65",),
        defs=_m5_case1_defs,
        entries=_rows(
            "a;-j65*j14 + j65 - j55*j13;j13;j14;0;0",
            "0;0;1;0;0;0",
            "0;-1;0;0;0;0",
            "b;c;d;-a;0;0",
            "0;0;0;0;j55;-(j55^2 + 1)/j65",
            "0;0;0;0;j65;-j55"),
        m_table=_mt({
            (1, 2): {5: "a", 6: "d"},
            (1, 3): {5: "b + 1", 6: "-c"},
            (2, 3): {5: "((j65*(j14 - 1) + j55*j13)^2 + j13^2)*j55/(j65*j14)",
                     6: "((j65*(j14 - 1) + j55*j13)^2 + j13^2)/j14"},
            (2, 4): {5: "1 - j14", 6: "j13"},
            (3, 4): {5: "a", 6: "j65*(j14 - 1) + j55*j13"}}),
        chart=_m5_case1_chart,
        recognize=(("j13", (1, 3, None)), ("j14", (1, 4, None)),
                   ("j55", (5, 5, None)), ("j65", (6, 5, None))),
        notes="m is abelian exactly when j13 = 0 and j14 = 1, and Heisenberg "
              "otherwise; the nonabelian equivalence problem is open"),
    Representative(
        name="J_abelian", params=_params(("beta", "unit")), conditions=(),
        entries=_rows(
            "0;0;0;1;0;0", "0;0;1;0;0;0", "0;-1;0;0;0;0",
            "-1;0;0;0;0;0", "0;0;0;0;0;-1/beta", "0;0;0;0;beta;0"),
        m_table=_mt({}),
        expected_m=ABELIAN,
        chart=_m5_ab_chart,
        recognize=(("beta", (6, 5, None)),),
        notes="each abelian structure is equivalent to exactly one J(0, beta), "
              "0 < beta <= 1"),
    Representative(
        name="J_case21", params=_params("j21", "j43"),
        conditions=("j21*j43", "j43 - j21", "j43*j21 - 1"),
        entries=_rows(
            "0;-1/j21;0;0;0;0",
            "j21;0;0;0;0;0",
            "0;0;0;-1/j43;0;0",
            "0;0;j43;0;0;0",
            "0;0;0;0;0;(j43*j21 - 1)/(j43 - j21)",
            "0;0;0;0;(-j43 + j21)/(j43*j21 - 1);0"),
        expected_m=HEISENBERG,
        recognize=(("j21", (2, 1, None)), ("j43", (4, 3, None))),
        notes="equivalence on (j21, j43) is the explicit +-1/reciprocal/swap "
              "predicate; J0 = J(-1, 1) is the canonical complex structure"),
    Representative(
        name="J0", params=(), conditions=(),
        entries=_rows(
            "0;1;0;0;0;0", "-1;0;0;0;0;0", "0;0;0;-1;0;0",
            "0;0;1;0;0;0", "0;0;0;0;0;-1", "0;0;0;0;1;0"),
        expected_m=HEISENBERG,
        notes="the canonical structure; the only one (with -J0) making M5 a "
              "complex Lie algebra"),
    Representative(
        name="J_case21_limit", params=_params(("j21", "pm_one"), "j65"),
        conditions=("j65",),
        entries=_rows(
            "0;-1/j21;0;0;0;0",
            "j21;0;0;0;0;0",
            "0;0;0;-j21;0;0",
            "0;0;1/j21;0;0;0",
            "0;0;0;0;0;-1/j65",
            "0;0;0;0;j65;0"),
        expected_m=ABELIAN,
        notes="limiting case of the case-2.2 family; equivalent to some "
              "J(0, beta)"),
    Representative(
        name="J_case22", params=_params(("j21", "pm_one"), "j55", "j65"),
        conditions=("j55*j65",),
        entries=_rows(
            "0;-1/j21;0;0;0;0",
            "j21;0;0;0;0;0",
            "0;0;0;-1/j21;0;0",
            "0;0;j21;0;0;0",
            "0;0;0;0;j55;-(j55^2 + 1)/j65",
            "0;0;0;0;j65;-j55"),
        expected_m=ABELIAN,
        notes="equivalent to some J(0, beta)"),
)

_m5_aut = AutomorphismFamily(
    name="aut",
    params=_params("b11", "b13", "b21", "b23", "b31", "b33", "b41", "b43",
                   "b51", "b52", "b53", "b54", "b61", "b62", "b63", "b64",
                   ("u", "pm_one")),
    defs=(("H", "b11*b33 + b21*b43 - b13*b31 - b23*b41"),
          ("K", "b11*b43 - b21*b33 - b13*b41 + b23*b31")),
    entries=_rows(
        "b11;b21*u;b13;-b23*u;0;0",
        "b21;-b11*u;b23;b13*u;0;0",
        "b31;-b41*u;b33;b43*u;0;0",
        "b41;b31*u;b43;-b33*u;0;0",
        "b51;b52;b53;b54;H;K*u",
        "b61;b62;b63;b64;K;-H*u"),
    conditions=("H^2 + K^2",),
)

_m5_meta_family = JFamily(
    name="case-xi21-xi24",
    params=_params("j21", "j22", "j23", "j24", "j33", "j34", "j55",
                   "j61", "j62", "j63", "j64", "j65"),
    entries=tuple(tuple("0" for _ in range(6)) for _ in range(6)),
    conditions=("j21*j65*j24",
                "((j65*j34*j24 + j65*j24*j21 + j55*j34*j23)*j65"
                " + (j55^2 + 1)*(j33 + j22)*j23"
                " + (j24*j22 + j23*j21 + j33*j24)*j65*j55)*j24"
                " - ((j33*j24*j22 - j33*j23*j21 - j24)*j24"
                " - (j24*j22 - j23*j21)*j34*j23)*j65"),
    samplable=False,
)

ENTRIES.append(AlgebraEntry(
    name="M5", aliases=(), algebra=_m5,
    families=(
        _fam("case-a", ["j11", "j13", "j14", "j21", "j23", "j24", "j55",
                        "j61", "j62", "j63", "j64", "j65"],
             "m5_a", ["j65", "j24*j13 - j23*j14"]),
        _fam("case-b", ["j21", "j22", "j23", "j33", "j34", "j55",
                        "j61", "j62", "j63", "j64", "j65"],
             "m5_b", ["j21*j65*j23*j34"]),
        _fam("case-c", ["j21", "j22", "j31", "j33", "j34", "j41",
                        "j61", "j62", "j63", "j64"],
             "m5_c", ["j21*j34*(j33 + j22)",
                      "j34^2*j21 + j34*(j22^2 + j21^2 + 1) + (j33^2 + 1)*j21"]),
        _fam("case-d", ["j31", "j41", "j55", "j61", "j62", "j63", "j64", "j65",
                        ("j21", "pm_one")],
             "m5_d", ["j65"]),
        _fam("case-e", ["j21", "j22", "j31", "j34", "j41",
                        "j61", "j62", "j63", "j64"],
             "m5_e", ["j21*j34*(j34 + j21)*(j22^2 + j34*j21 + 1)"]),
        _m5_meta_family,
    ),
    representatives=_m5_reps,
    automorphisms=(_m5_aut,),
    fields_display=((1, ("1", "0", "0", "0", "0", "0")),
                    (2, ("0", "-1", "0", "0", "0", "0")),
                    (3, ("0", "0", "1", "0", "x1", "y1")),
                    (4, ("0", "0", "0", "1", "-y1", "x1")),
                    (5, ("0", "0", "0", "0", "1", "0")),
                    (6, ("0", "0", "0", "0", "0", "1"))),
    expected_dim=12,
    natural_chart=True,
    notes="the case j21*j24 != 0 family is metadata-only (dependent "
          "entries not catalogued); M5 uses the natural chart of the "
          "complex Heisenberg group",
))


def populate(register, register_spotcheck):
    for e in ENTRIES:
        register(e)
    for name, algebra, fam_of in SPOTCHECKS:
        register_spotcheck(name, algebra, fam_of)
