import collections
import dataclasses
import math
import random
from fractions import Fraction
from unittest import mock

import pytest

from nilcomplex import acs, catalogue, linalg, moduli
from nilcomplex.acs import AlmostComplexStructure
from nilcomplex.catalogue import JFamily, ParamSpec
from nilcomplex.liecore import DimensionMismatch, LieAlgebra
from test_acs import ALGEBRAS, _dense, _oracle
from test_linalg import oracle_rank

J0 = AlmostComplexStructure([
    [0, -1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 0], [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, -1], [0, 0, 0, 0, 1, 0]])


def test_constraint_values_zero_iff_integrable():
    g63 = catalogue.get("G6,3").algebra
    vals = list(acs.constraint_values(g63, J0))
    assert len(vals) == 126
    assert all(v == 0 for v in vals)
    identity = AlmostComplexStructure([[1 if i == j else 0 for j in range(6)]
                                       for i in range(6)])
    vals = list(acs.constraint_values(g63, identity))
    # J^2 + 1 block contributes 2 on the diagonal rows
    assert vals[0] == 2 and any(v != 0 for v in vals)
    rng = random.Random(0)
    fam = catalogue.get("G6,3").families[0]
    J = fam.instantiate(fam.random_admissible(rng))
    assert all(v == 0 for v in acs.constraint_values(g63, J))


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
    plus = list(acs.constraint_values(L, AlmostComplexStructure(
        [[a + b for a, b in zip(r, h)] for r, h in zip(J.m, H)])))
    minus = list(acs.constraint_values(L, AlmostComplexStructure(
        [[a - b for a, b in zip(r, h)] for r, h in zip(J.m, H)])))
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
    # A float SVD missed rank here: it gave tangent 9 on M18+1, 12 on G6,4
    # and 11 on G6,7.  The ranks are decided in ints, and agree with
    # fraction-free elimination and with Gaussian elimination in Fractions.
    e = catalogue.get(name)
    rep = moduli.dimension_report(e, samples=1, seed=seed)
    assert rep["tangent_dims"] == [e.expected_dim]
    assert rep["samples"][0]["family_rank"] == rep["n_free_params"]
    fam = e.families[0]
    J = fam.instantiate(fam.random_admissible(random.Random(seed)))
    assert rep["samples"][0]["jacobian_rank"] == moduli.jacobian_rank(e.algebra, J) \
        == linalg.rank(moduli._gradient(e.algebra, J)[0]) \
        == oracle_rank(moduli.jacobian_matrix(e.algebra, J)) == 36 - e.expected_dim


def _merged_gradient(L):
    """{(row, column, source): c}: the gradient's linear map in M, read off
    the terms of constraint_map with like (row, column, source) merged."""
    merged = collections.Counter()
    for r, (_, terms) in enumerate(acs.constraint_map(L)):
        for p, q, c in terms:
            merged[r, p, q] += c
            merged[r, q, p] += c
    return {k: c for k, c in merged.items() if c}


def _heaviest_cell(L):
    """The largest per-cell sum of |c| of the merged gradient, and the
    (source, c) pairs of one cell that reaches it."""
    cells = collections.defaultdict(list)
    for (r, p, q), c in _merged_gradient(L).items():
        cells[r, p].append((q, c))
    return max((sum(abs(c) for _, c in t), t) for t in cells.values())


# (algebra, over): a dense J whose heaviest gradient cell is at or past
# 2^63 (over) or just below it; M18+1's cells sum at most 2|c|, G6,5's 3|c|
BOUND_POINTS = [("M18+1", True), ("M18+1", False), ("G6,5", True), ("G6,5", False)]


def _bound_point(name, over):
    """A dense rational J = M/3, off J^2 = -1, on the algebra: max|M| times
    the merged largest per-cell sum of |c| is the least at or past 2^63
    (over) or the greatest below it.  The sources of one heaviest cell are
    +-max|M| with the signs of their c, so that cell is max|M| times the
    sum; every other entry is past 2^53."""
    L = catalogue.get(name).algebra
    csum, heaviest = _heaviest_cell(L)
    top = -(-2 ** 63 // csum) if over else (2 ** 63 - 1) // csum
    rng = random.Random(f"{name} {over}")
    M = [rng.choice((-1, 1)) * rng.randint(2 ** 53, top) for _ in range(36)]
    for q, c in heaviest:
        M[q] = top if c > 0 else -top
    J = AlmostComplexStructure([[Fraction(M[6 * r + col], 3) for col in range(6)]
                                for r in range(6)])
    assert acs.integer_point(J, 6) == (M, 3)
    return L, J


@pytest.mark.parametrize("name, over", BOUND_POINTS)
def test_a_point_off_the_square_takes_the_full_gradient(name, over):
    # off J^2 = -1 the 18 + rank(T K) identity does not hold: the rank is
    # linalg.rank of the full int gradient, entries past 2^53 and all.  It
    # is full, 36, and the oracle finds 36 on the 36 rows of a minor
    L, J = _bound_point(name, over)
    assert not J.square_check()
    with mock.patch.object(moduli, "_torsion_on_antilinear") as shortcut:
        r = moduli.jacobian_rank(L, J)
    assert not shortcut.called
    jac = moduli.jacobian_matrix(L, J)
    rows, _ = linalg.modular_pivots(moduli._gradient(L, J)[0])
    assert r == 36 == oracle_rank([jac[i] for i in rows])


def test_the_two_jacobian_views_read_one_gradient():
    rng = random.Random(17)
    draws = [(e.algebra, e.families[0], rng) for e in catalogue.entries() for _ in range(10)]
    draws += [(catalogue.get(name).algebra, catalogue.get(name).families[0],
               random.Random(seed)) for name, seed in DEFECT_SEEDS]
    points = [(L, fam.instantiate(fam.random_admissible(r))) for L, fam, r in draws]
    for L, J in points + [_bound_point(name, over) for name, over in BOUND_POINTS]:
        rows = moduli.jacobian_matrix(L, J)
        E = math.lcm(*(c.denominator for out in L.table.values() for c in out.values()))
        ED = E * math.lcm(*(x.denominator for row in J.m for x in row))
        grad, scale = moduli._gradient(L, J)
        assert scale == ED and grad == [[ED * x for x in r] for r in rows]
    # the modular rank against elimination over the integers, at each
    # algebra's first draw and the defect seeds (the bound points':
    # test_a_point_off_the_square_takes_the_full_gradient)
    for L, J in points[:-len(DEFECT_SEEDS):10] + points[-len(DEFECT_SEEDS):]:
        assert moduli.jacobian_rank(L, J) == linalg.rank(moduli._gradient(L, J)[0])


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_the_pattern_repeats_cells_so_one_unbuffered_add_sums_them(name):
    # the terms of constraint_map reach a gradient cell more than once;
    # _gradient's += per term sums every addend, where a buffered write
    # (one addend per cell, the last) does not
    L = ALGEBRAS[name][0]
    J = _dense(random.Random(name))  # no zero entry: every addend counts
    M, _ = acs.integer_point(J, 6)
    addends = collections.defaultdict(list)
    for r, (_, terms) in enumerate(acs.constraint_map(L)):
        for p, q, c in terms:
            addends[r, p].append(c * M[q])
            addends[r, q].append(c * M[p])
    assert any(len(v) > 1 for v in addends.values())
    summed, buffered = ([[0] * 36 for _ in range(126)] for _ in range(2))
    for (r, col), v in addends.items():
        summed[r][col], buffered[r][col] = sum(v), v[-1]
    grad = moduli._gradient(L, J)[0]
    assert grad == summed and grad != buffered


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_the_pattern_bound_is_the_merged_one(name):
    # the gradient is the merged linear map of constraint_map's terms, so
    # max|M| times the merged largest per-cell sum of |c| bounds its
    # entries, and the cell whose sources carry the signs of c reaches it
    L = ALGEBRAS[name][0]
    J = _dense(random.Random(name))
    M, _ = acs.integer_point(J, 6)
    grad = moduli._gradient(L, J)[0]
    merged = collections.defaultdict(int)
    for (r, p, q), c in _merged_gradient(L).items():
        merged[r, p] += c * M[q]
    assert grad == [[merged[r, p] for p in range(36)] for r in range(126)]
    csum, heaviest = _heaviest_cell(L)
    top = max(map(abs, M))
    for q, c in heaviest:
        M[q] = top if c > 0 else -top
    J = AlmostComplexStructure([[Fraction(M[6 * r + col], 1) for col in range(6)]
                                for r in range(6)])
    assert max(abs(v) for row in moduli._gradient(L, J)[0] for v in row) == top * csum


def _antilinear_oracle(L, J):
    """T K at J = M/D from its definition, in ints: the torsion rows of the
    int gradient times vec(A_pq), A_pq = D^2 E_pq + M E_pq M."""
    M, D = acs.integer_point(J, 6)
    Mm = [M[r:r + 6] for r in range(0, 36, 6)]
    K = []
    for p in range(6):
        for q in range(6):
            E = [[int((r, c) == (p, q)) for c in range(6)] for r in range(6)]
            A = linalg.mat_mul(linalg.mat_mul(Mm, E), Mm)
            K.append([A[r][c] + D * D * E[r][c] for r in range(6) for c in range(6)])
    grad = moduli._gradient(L, J)[0]
    return grad[:36], K, [[sum(g * k for g, k in zip(row, col)) for col in K]
                          for row in grad[36:]]


@pytest.mark.parametrize("name", [e.name for e in catalogue.entries()])
def test_the_antilinear_maps_span_the_kernel_of_the_square_rows(name):
    # at J^2 = -1 the 36 rows of J^2 + 1 have rank 18, the A_pq span their
    # kernel, and T K is the torsion on that kernel: rank Jac = 18 + rank T K
    e = catalogue.get(name)
    fam = e.families[0]
    J = fam.instantiate(fam.random_admissible(random.Random(name)))
    square, K, TK = _antilinear_oracle(e.algebra, J)
    assert linalg.rank(square) == linalg.rank(K) == 18
    assert all(sum(s * k for s, k in zip(row, col)) == 0 for row in square for col in K)
    assert [[x % linalg.PRIME for x in row] for row in TK] == \
        [[x % linalg.PRIME for x in row] for row in moduli._torsion_on_antilinear(e.algebra, J)]
    assert 18 + linalg.rank(TK) == linalg.rank(moduli._gradient(e.algebra, J)[0]) \
        == moduli.jacobian_rank(e.algebra, J)


def test_a_moved_torsion_coefficient_moves_t_k(monkeypatch):
    # the shortcut reads constraint_map's torsion rows: one coefficient
    # moved there moves T K against its unmoved oracle
    e = catalogue.get("G6,7")
    fam = e.families[0]
    J = fam.instantiate(fam.random_admissible(random.Random(8)))
    want = [[x % linalg.PRIME for x in row] for row in _antilinear_oracle(e.algebra, J)[2]]
    cmap = list(acs.constraint_map(e.algebra))
    const, ((p, q, c), *rest) = cmap[40]
    cmap[40] = (const, ((p, q, c + 1), *rest))
    monkeypatch.setattr(moduli, "constraint_map", lambda _: cmap)
    got = [[x % linalg.PRIME for x in row]
           for row in moduli._torsion_on_antilinear(e.algebra, J)]
    assert [i for i, (a, b) in enumerate(zip(got, want)) if a != b] == [4]


@pytest.mark.parametrize("name", [e.name for e in catalogue.entries()])
def test_the_compiled_minor_is_t_k_at_its_pivots(name):
    # the minor is chosen at the family's draw from random.Random(0); its
    # compiled entries at any other draw are T K's entries at those pivots
    e = catalogue.get(name)
    fam, L = e.families[0], e.algebra
    rows, cols = linalg.modular_pivots(moduli._torsion_on_antilinear(
        L, fam.instantiate(fam.random_admissible(random.Random(0)))))
    k, code = moduli._family_minor(L, fam)
    assert k == len(cols) == 18 - e.expected_dim
    rng = random.Random(name)
    for _ in range(3):
        J = fam.instantiate(fam.random_admissible(rng))
        M, D = acs.integer_point(J, 6)
        TK = moduli._torsion_on_antilinear(L, J)
        assert [v % linalg.PRIME for v in code(M, D)] == \
            [TK[t][c] % linalg.PRIME for t in rows for c in cols]


@pytest.mark.parametrize("name", [e.name for e in catalogue.entries()])
def test_every_certified_rank_is_the_exact_rank(name):
    e = catalogue.get(name)
    rep = moduli.dimension_report(e, samples=4, seed=31)
    fam = e.families[0]
    for s in rep["samples"]:
        J = fam.instantiate({k: Fraction(v) for k, v in s["params"].items()})
        assert s["jacobian_rank"] == linalg.rank(moduli._gradient(e.algebra, J)[0]) \
            == 36 - s["tangent_dim"]
        assert s["certified_by"] == "minor" and s["upper_bound"] == moduli.UNPROVEN


def test_a_zero_minor_is_decided_by_the_modular_rank(monkeypatch):
    e = catalogue.get("G6,5")
    k, _ = moduli._family_minor(e.algebra, e.families[0])
    monkeypatch.setattr(moduli, "_family_minor", lambda L, fam: (k, lambda M, D: (0,) * k * k))
    rep = moduli.dimension_report(e, samples=2, seed=5)
    assert rep["tangent_dims"] == [10, 10]
    assert [s["certified_by"] for s in rep["samples"]] == ["modular"] * 2
    assert {s["upper_bound"] for s in rep["samples"]} == {moduli.UNPROVEN}


def test_a_lower_rank_point_is_decided_by_bareiss():
    # the ninth draw at seed 9 is a special point of M10's first family
    # (j11 = 0, j21 = -1): its minor vanishes, the modular rank gives
    # tangent 12, and fraction-free elimination confirms it exactly
    e = catalogue.get("M10")
    s = moduli.dimension_report(e, samples=10, seed=9)["samples"][8]
    assert (s["tangent_dim"], s["certified_by"], s["upper_bound"]) == (12, "bareiss", "exact")
    J = e.families[0].instantiate({k: Fraction(v) for k, v in s["params"].items()})
    k, code = moduli._family_minor(e.algebra, e.families[0])
    assert len(linalg.modular_pivots([list(code(*acs.integer_point(J, 6)))[i:i + k]
                                      for i in range(0, k * k, k)])[1]) < k
    assert moduli.jacobian_rank(e.algebra, J) == 24 == oracle_rank(
        moduli.jacobian_matrix(e.algebra, J))


@pytest.mark.parametrize("step", [-1, 1])
def test_a_wrong_table_entry_shows(step):
    # the minor's size is the rank measured at its draw, not read from the
    # table: a table entry off by one meets Bareiss at every draw and fails
    e = catalogue.get("G6,7")
    wrong = dataclasses.replace(e, expected_dim=e.expected_dim + step)
    rep = moduli.dimension_report(wrong, samples=2, seed=3)
    assert rep["tangent_dims"] == [10, 10] and rep["agree"] == 0
    assert [s["certified_by"] for s in rep["samples"]] == ["bareiss"] * 2


def test_a_family_whose_minor_draw_is_not_a_complex_structure_is_refused():
    e = catalogue.get("G6,7")
    fam = e.families[0]
    rows = [list(r) for r in fam.entries]
    rows[0][0] = f"2*({rows[0][0]})" if rows[0][0] != "0" else "1"
    mutant = dataclasses.replace(fam, name="mutant", entries=tuple(map(tuple, rows)))
    with pytest.raises(ValueError, match="mutant: its draw at seed 0"):
        moduli._family_minor(e.algebra, mutant)
    with pytest.raises(ValueError, match="not in the zero set"):
        moduli.dimension_report(e, family=mutant, samples=1)


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
        assert acs.is_integrable(L, Js) and list(acs.constraint_values(L, Js)) == _oracle(L, Js)
        rows = moduli.jacobian_matrix(L, Js)
        H = _random_direction(rng)
        assert _apply(rows, H) == _central_difference(L, Js, H)
        mutant = [row[:] for row in Js.m]
        mutant[0][3] += Fraction(1, 3)
        mutant = AlmostComplexStructure(mutant)
        assert not acs.is_integrable(L, mutant)
        assert list(acs.constraint_values(L, mutant)) == _oracle(L, mutant)


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
    # the map's build reads the denominator; integrability reads the map
    # through its compiled code, and the rank through the int gradient,
    # each asked per point, the map built once
    facts = (acs.constraint_map, acs.map_denominator, acs._constraint_code)
    before = [f.cache_info() for f in facts]
    for _ in range(3):
        J = fam.instantiate(fam.random_admissible(rng))
        assert acs.is_integrable(L, J)
        moduli.jacobian_rank(L, J)
    after = [f.cache_info() for f in facts]
    assert [a.misses - b.misses for a, b in zip(after, before)] == [1, 1, 1]
    asked = [a.hits + a.misses - b.hits - b.misses for a, b in zip(after, before)]
    assert asked[0] == 1 + 3  # once by the compiled code, once per gradient
    assert asked[2] >= 3  # asked at every point


def test_the_minor_is_derived_once_per_family():
    e = catalogue.get("M10")
    fam = dataclasses.replace(e.families[0], name="renamed minor")  # not seen yet
    with mock.patch.object(linalg, "modular_pivots", wraps=linalg.modular_pivots) as spy:
        reports = [moduli.dimension_report(e, fam, samples=2, seed=seed) for seed in range(3)]
    # one elimination of T K chooses the minor; each draw tests it once more
    assert spy.call_count == 1 + 6
    assert len(spy.call_args_list[0].args[0]) == 90
    assert all(len(c.args[0]) == 8 for c in spy.call_args_list[1:])
    assert [r["tangent_dims"] for r in reports] == [[10, 10]] * 3


def test_the_family_rank_is_derived_once_per_family():
    e = catalogue.get("M10")
    fam = dataclasses.replace(e.families[0], name="renamed")  # a family not seen yet
    with mock.patch.object(JFamily, "continuous_params",
                           autospec=True, side_effect=JFamily.continuous_params) as spy:
        reports = [moduli.dimension_report(e, fam, samples=1, seed=seed) for seed in range(5)]
    # one derivation reads the parameters; each report reads them once more
    # for its n_free_params
    assert spy.call_count == 1 + 5
    assert [r["samples"][0]["family_rank"] for r in reports] == [r["n_free_params"] for r in reports]


def test_the_g64_draw_that_flipped_the_svd_is_decided_without_a_redraw():
    # a float SVD's rank flipped between two thresholds at this draw and at
    # its redraw; in ints the first draw is decided, and nothing is redrawn
    e, seed = catalogue.get("G6,4"), 1530467268
    fam = e.families[0]
    values = fam.random_admissible(random.Random(seed))
    rep = moduli.dimension_report(e, samples=1, seed=seed, max_resamples=1)
    assert rep["tangent_dims"] == [e.expected_dim] and "resamples" not in rep
    s = rep["samples"][0]
    assert s["params"] == {k: str(v) for k, v in sorted(values.items())}
    assert s["certified_by"] == "minor"
    J = fam.instantiate(values)
    assert s["jacobian_rank"] == linalg.rank(moduli._gradient(e.algebra, J)[0])


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
    for _ in range(2):  # a raise is not cached
        with pytest.raises(ValueError, match="parameter j12 "):
            moduli.family_rank(mutant)
