import dataclasses
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from nilcomplex import acs, catalogue, linalg, moduli
from nilcomplex.acs import AlmostComplexStructure
from nilcomplex.catalogue import JFamily, ParamSpec
from nilcomplex.liecore import DimensionMismatch, LieAlgebra
from test_acs import _oracle, _svd_input

J0 = AlmostComplexStructure([
    [0, -1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 0], [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, -1], [0, 0, 0, 0, 1, 0]])


def test_constraint_eval_zero_iff_integrable():
    g63 = catalogue.get("G6,3").algebra
    vals = moduli.constraint_eval(g63, J0)
    assert len(vals) == 126
    assert all(v == 0 for v in vals)
    identity = AlmostComplexStructure([[1 if i == j else 0 for j in range(6)]
                                       for i in range(6)])
    vals = moduli.constraint_eval(g63, identity)
    # J^2 + 1 block contributes 2 on the diagonal rows
    assert vals[0] == 2 and any(v != 0 for v in vals)
    rng = random.Random(0)
    fam = catalogue.get("G6,3").families[0]
    J = fam.instantiate(fam.random_admissible(rng))
    assert all(v == 0 for v in moduli.constraint_eval(g63, J))


def test_rank_and_tangent_examples():
    rng = random.Random(1)
    g63 = catalogue.get("G6,3")
    J = g63.families[0].instantiate(g63.families[0].random_admissible(rng))
    assert moduli.jacobian_rank(g63.algebra, J) == 24
    assert moduli.tangent_dim(g63.algebra, J) == 12
    m14 = catalogue.get("M14+1")
    J = m14.families[0].instantiate(m14.families[0].random_admissible(rng))
    assert moduli.jacobian_rank(m14.algebra, J) == 28
    assert moduli.tangent_dim(m14.algebra, J) == 8


def test_abelian_square_manifold_dimension():
    # with no brackets only J^2 = -1 constrains J: an 18-dimensional manifold
    abelian = LieAlgebra(6, {})
    assert moduli.tangent_dim(abelian, J0) == 18


def test_tangent_requires_zero_set_membership():
    g63 = catalogue.get("G6,3").algebra
    identity = AlmostComplexStructure([[1 if i == j else 0 for j in range(6)]
                                       for i in range(6)])
    with pytest.raises(ValueError):
        moduli.tangent_dim(g63, identity)


def test_dimension_report_all_algebras():
    for e in catalogue.entries():
        rep = moduli.dimension_report(e, samples=3, seed=2)
        assert rep["agree"] == 3, (e.name, rep["tangent_dims"])
        # family rank equals the number of free parameters and is bounded
        # by the tangent dimension
        for s in rep["samples"]:
            assert s["family_rank"] == rep["n_free_params"]
            assert s["family_rank"] <= s["tangent_dim"] <= 36


def test_strata_of_m10_have_expected_dims():
    e = catalogue.get("M10")
    for fam, expected_rank in (("case-21", 8), ("case-22", 9)):
        rep = moduli.dimension_report(e, family=e.family(fam), samples=2, seed=3)
        # every smooth point of the moduli set has tangent dimension 10
        assert rep["tangent_dims"] == [10, 10]
        assert all(s["family_rank"] == expected_rank for s in rep["samples"])


def _random_direction(rng, n=6):
    """A rational matrix with no zero entry."""
    return [[Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
             for _ in range(n)] for _ in range(n)]


def _central_difference(L, J, H):
    """(c(J + H) - c(J - H)) / 2, which is exactly dc_J(H) for a quadratic c."""
    plus = moduli.constraint_eval(L, AlmostComplexStructure(
        [[a + b for a, b in zip(r, h)] for r, h in zip(J.m, H)]))
    minus = moduli.constraint_eval(L, AlmostComplexStructure(
        [[a - b for a, b in zip(r, h)] for r, h in zip(J.m, H)]))
    return [(p - q) / 2 for p, q in zip(plus, minus)]


def _apply(rows, H):
    vecH = [x for row in H for x in row]  # column r*n + c is entry (r, c)
    return [sum(a * h for a, h in zip(row, vecH) if a) for row in rows]


def test_jacobian_is_the_exact_derivative_on_every_algebra():
    rng = random.Random(5)
    for e in catalogue.entries():
        fam = e.families[0]
        J = fam.instantiate(fam.random_admissible(rng))
        rows = moduli.jacobian_matrix(e.algebra, J)
        assert len(rows) == 126 and all(len(r) == 36 for r in rows)
        for _ in range(2):
            H = _random_direction(rng)
            assert _apply(rows, H) == _central_difference(e.algebra, J, H), e.name


def test_perturbed_jacobian_fails_its_oracle():
    rng = random.Random(6)
    e = catalogue.get("M10")
    fam = e.families[0]
    J = fam.instantiate(fam.random_admissible(rng))
    H = _random_direction(rng)
    rows = moduli.jacobian_matrix(e.algebra, J)
    expected = _central_difference(e.algebra, J, H)
    assert _apply(rows, H) == expected
    for r, c in ((3, 17), (40, 7), (125, 35)):
        bad = [row[:] for row in rows]
        bad[r][c] += Fraction(1, 3)
        assert _apply(bad, H) != expected, (r, c)


DEFECT_SEEDS = [("M18+1", 421811493), ("G6,4", 1267734702), ("G6,7", 2939367331)]


@pytest.mark.parametrize("name, seed", DEFECT_SEEDS)
def test_m18_defect_seed_gives_the_paper_dimension(name, seed):
    # The SVD misses rank here: it gives tangent 9 on M18+1, 12 on G6,4 and
    # 11 on G6,7.  Exact elimination decides: fraction-free on the int
    # gradient, as Gaussian elimination in Fractions would.
    e = catalogue.get(name)
    rep = moduli.dimension_report(e, samples=1, seed=seed)
    assert rep["tangent_dims"] == [e.expected_dim]
    assert rep["samples"][0]["family_rank"] == rep["n_free_params"]
    fam = e.families[0]
    J = fam.instantiate(fam.random_admissible(random.Random(seed)))
    assert linalg.integer_rank(moduli._gradient(e.algebra, J)[0]) \
        == linalg.rank(moduli.jacobian_matrix(e.algebra, J)) == 36 - e.expected_dim


def _reference_ranks(rows, tol=moduli.DEFAULT_TOL):
    """SVD ranks at tol and 10*tol of the entrywise floats of Fraction rows."""
    s = np.linalg.svd(np.array([[float(x) for x in r] for r in rows]), compute_uv=False)
    return tuple(int(np.sum(s > t * s[0])) for t in (tol, tol * 10))


# (algebra, over): a J at or past the int64 bound of the SVD's scatter, or
# just under it; M18+1's cells sum at most 2|c|, G6,5's 3|c|
BOUND_POINTS = [("M18+1", True), ("M18+1", False), ("G6,5", True), ("G6,5", False)]


def _bound_point(name, over):
    """A dense rational J = M/3 on the algebra whose max|M| times the
    pattern's largest sum of |c| is the least at or past 2^63 (over) or the
    greatest below it.  The sources of one heaviest cell are +-max|M| with
    the signs of their c, so that cell is max|M| times the sum; every other
    entry is past 2^53, so the cast to float rounds."""
    L = catalogue.get(name).algebra
    layers, csum, _ = moduli._gradient_pattern(L)
    top = -(-2 ** 63 // csum) if over else (2 ** 63 - 1) // csum
    rng = random.Random(f"{name} {over}")
    M = [rng.choice((-1, 1)) * rng.randint(2 ** 53, top) for _ in range(36)]
    cells = {}
    for pos, src, c in layers:
        for p, q, cq in zip(pos.tolist(), src.tolist(), c.tolist()):
            cells.setdefault(p, []).append((q, cq))
    heaviest = next(t for t in cells.values() if sum(abs(c) for _, c in t) == csum)
    for q, c in heaviest:
        M[q] = top if c > 0 else -top
    J = AlmostComplexStructure([[Fraction(M[6 * r + col], 3) for col in range(6)]
                                for r in range(6)])
    assert acs.integer_point(J, 6) == (M, 3)
    return L, J


@pytest.mark.parametrize("name, over", BOUND_POINTS)
def test_the_int64_scatter_stops_at_its_bound(name, over):
    # under the bound the int64 scatter is exact and the cast rounds as the
    # Python int rounds; at or past it, the matrix comes from the Python ints
    L, J = _bound_point(name, over)
    with mock.patch.object(moduli, "_gradient", wraps=moduli._gradient) as spy:
        A = _svd_input(L, J)
    assert spy.called == over
    grad = moduli._gradient(L, J)[0]
    B = np.array(grad, dtype=float)
    assert A.dtype == B.dtype and A.shape == B.shape and A.tobytes() == B.tobytes()
    assert any(int(float(v)) != v for row in grad for v in row)  # the cast rounds


def test_the_two_jacobian_views_read_one_gradient():
    rng = random.Random(17)
    draws = [(e.algebra, e.families[0], rng) for e in catalogue.entries() for _ in range(10)]
    draws += [(catalogue.get(name).algebra, catalogue.get(name).families[0],
               random.Random(seed)) for name, seed in DEFECT_SEEDS]
    points = [(L, fam.instantiate(fam.random_admissible(r))) for L, fam, r in draws]
    points += [_bound_point(name, over) for name, over in BOUND_POINTS]
    for L, J in points:
        rows = moduli.jacobian_matrix(L, J)
        E = math.lcm(*(c.denominator for out in L.table.values() for c in out.values()))
        ED = E * math.lcm(*(x.denominator for row in J.m for x in row))
        assert np.array_equal(_svd_input(L, J), [[float(ED * x) for x in r] for r in rows])
        r1, r2 = _reference_ranks(rows)
        if r1 == r2:
            assert moduli.jacobian_rank(L, J) == r1
        else:
            with pytest.raises(moduli.RankUnstable):
                moduli.jacobian_rank(L, J)


@pytest.mark.parametrize("check", [moduli.jacobian_matrix, moduli.jacobian_rank,
                                   moduli.tangent_dim, acs.is_integrable],
                         ids=lambda f: f.__name__)
def test_a_j_of_the_wrong_size_is_a_dimension_mismatch(check):
    J5 = AlmostComplexStructure([[int(i == j) for j in range(5)] for i in range(5)])
    with pytest.raises(DimensionMismatch):
        check(catalogue.get("G6,3").algebra, J5)


def test_rational_structure_constants_stay_exact():
    # G6,3 in the basis y_1 = x_1/2, y_k = x_k: [y_1, y_2] = y_4/2, so E = 2
    # and J becomes S^-1 J S with S = diag(1/2, 1, ..., 1)
    e = catalogue.get("G6,3")
    s = [Fraction(1, 2)] + [Fraction(1)] * 5
    L = LieAlgebra(6, {(i, j): {k: c * s[i - 1] * s[j - 1] / s[k - 1] for k, c in out.items()}
                       for (i, j), out in e.algebra.table.items()})
    assert acs.map_denominator(L) == 2
    rng = random.Random(23)
    fam = e.families[0]
    for _ in range(5):
        J = fam.instantiate(fam.random_admissible(rng))
        Js = AlmostComplexStructure([[x * s[c] / s[r] for c, x in enumerate(row)]
                                     for r, row in enumerate(J.m)])
        assert acs.is_integrable(L, Js) and moduli.constraint_eval(L, Js) == _oracle(L, Js)
        rows = moduli.jacobian_matrix(L, Js)
        H = _random_direction(rng)
        assert _apply(rows, H) == _central_difference(L, Js, H)
        mutant = [row[:] for row in Js.m]
        mutant[0][3] += Fraction(1, 3)
        mutant = AlmostComplexStructure(mutant)
        assert not acs.is_integrable(L, mutant)
        assert moduli.constraint_eval(L, mutant) == _oracle(L, mutant)


def test_dimension_report_reads_the_family_rank_once():
    e = catalogue.get("M10")
    with mock.patch.object(moduli, "family_rank", wraps=moduli.family_rank) as spy:
        rep = moduli.dimension_report(e, samples=3, seed=1)
    assert spy.call_count == 1
    assert [s["family_rank"] for s in rep["samples"]] == [rep["n_free_params"]] * 3


def test_the_map_and_its_denominator_are_built_once():
    e = catalogue.get("G6,3")
    L = LieAlgebra(6, e.algebra.table)  # a fresh algebra: nothing built yet
    fam, rng = e.families[0], random.Random(4)
    # the map's build reads the denominator; the SVD path reads the map only
    # through the gradient pattern, and asks the map and the pattern per point
    facts = (acs.constraint_map, acs.map_denominator, moduli._gradient_pattern)
    before = [f.cache_info() for f in facts]
    for _ in range(3):
        J = fam.instantiate(fam.random_admissible(rng))
        assert acs.is_integrable(L, J)
        moduli.jacobian_rank(L, J)
    after = [f.cache_info() for f in facts]
    assert [a.misses - b.misses for a, b in zip(after, before)] == [1, 1, 1]
    asked = [a.hits + a.misses - b.hits - b.misses for a, b in zip(after, before)]
    assert asked[0] >= 3 and asked[2] >= 3  # asked at every point


def test_a_rank_still_unstable_after_the_last_redraw_is_decided_exactly():
    e, seed = catalogue.get("G6,4"), 1530467268
    fam, rng = e.families[0], random.Random(seed)
    for _ in range(2):  # the first draw and its one redraw both flip
        with pytest.raises(moduli.RankUnstable):
            moduli.jacobian_rank(e.algebra, fam.instantiate(fam.random_admissible(rng)))
    rep = moduli.dimension_report(e, samples=1, seed=seed, max_resamples=1)
    assert rep["resamples"] == 1 and rep["tangent_dims"] == [e.expected_dim]


def test_family_rank_counts_directions_not_parameters():
    # the entries see a and b only through a + b: one direction, two
    # parameters, and no cell certifies either, so the rank is refused
    fam = JFamily(name="sum", params=(ParamSpec("a"), ParamSpec("b")),
                  defs=(("t", "a + b"),), entries=(("t", "t^2", "1/t", "t*t - t"),))
    assert fam.continuous_params() == ["a", "b"]
    with pytest.raises(ValueError, match="parameter a "):
        moduli.family_rank(fam)


@pytest.mark.parametrize("mutation", ["scaled cell", "shadowing def"])
def test_family_rank_refuses_a_family_without_its_certificate(mutation):
    fam = catalogue.get("G6,3").family("case-rest")
    assert moduli.family_rank(fam) == len(fam.continuous_params())
    if mutation == "scaled cell":
        rows = [["2*j12" if c == "j12" else c for c in r] for r in fam.entries]
        mutant = dataclasses.replace(fam, entries=tuple(tuple(r) for r in rows))
    else:
        mutant = dataclasses.replace(fam, defs=fam.defs + (("j12", "2*j11"),))
    with pytest.raises(ValueError, match="parameter j12 "):
        moduli.family_rank(mutant)
