from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from loopchain.chains import (
    ZZ, F2, F3, F5, Ring, Element, GradedBasis, ChainComplex, DegreeOverflowError,
    generator, map_from_table, zero_map,
)
from loopchain.snf import (
    _reduce, boundary_reader, smith_normal_form, homology, HomologyBasis, HomologySummary,
    modp_rank,
)


def mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def determinant(m):
    m = [[Fraction(v) for v in row] for row in m]
    det = Fraction(1)
    for k in range(len(m)):
        lead = next((i for i in range(k, len(m)) if m[i][k]), None)
        if lead is None:
            return 0
        if lead != k:
            m[k], m[lead] = m[lead], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            for j in range(k, len(m)):
                m[i][j] -= f * m[k][j]
    return int(det)


def test_identity():
    assert smith_normal_form([[1, 0], [0, 1]]).factors == [1, 1]


def test_single_entry():
    assert smith_normal_form([[2]]).factors == [2]


def test_divisibility_example():
    # gcd of entries 2, gcd of 2x2 minors 8 -> factors 2, 4
    assert smith_normal_form([[2, 4], [6, 8]]).factors == [2, 4]


def test_empty():
    assert smith_normal_form([]).factors == []


_small_matrices = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
    min_size=1, max_size=4,
).filter(lambda m: len({len(r) for r in m}) == 1)


@settings(max_examples=60, deadline=None)
@given(_small_matrices)
# a dense matrix whose entries grew without bound while pivots alternated
# between clearing their column and their row
@example([[3, 0, -1, -2, 1, -2, -2, 0], [1, 3, -2, 2, -3, 0, -1, 0],
          [-1, -1, 1, -1, -1, -3, 3, 1], [-3, 1, 2, 2, -3, 2, 3, -3],
          [-1, -3, 3, 1, 2, -1, -1, -3], [-3, -2, 1, -3, 0, 3, 3, 0],
          [-2, -1, 0, -2, -1, -2, 1, -3], [-2, -3, -2, 1, 2, -2, 2, 0]])
# the divisibility fold clears its row entry with a column swap
@example([[2, 3, -3, -2], [-6, 4, -4, 4], [4, 2, 2, -3], [0, -2, 6, 4]])
def test_snf_postconditions(matrix):
    res = smith_normal_form(matrix)
    rows, cols = len(matrix), len(matrix[0])
    # U is unimodular: Uinv is its inverse
    assert mat_mul(res.U, res.Uinv) == [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    # divisibility chain, the nonzero factors first
    facs = res.factors
    assert res.diagonal[:len(facs)] == facs
    for a, b in zip(facs, facs[1:]):
        assert b % a == 0
    # U M = D W, where the rank rows of W have coprime maximal minors, so W
    # extends to a unimodular matrix and U M V = D for V its inverse
    UM = mat_mul(res.U, matrix)
    assert not any(any(row) for row in UM[len(facs):])
    W = []
    for d, row in zip(facs, UM):
        assert all(v % d == 0 for v in row)
        W.append([v // d for v in row])
    g = 0
    for cs in combinations(range(cols), len(W)):
        g = gcd(g, determinant([[row[j] for j in cs] for row in W]))
    assert g == 1


def _complex(diffs, maxdeg, ring=ZZ):
    """diffs: {degree: matrix} acting on named generators e{n}_{i}."""
    dims = {}
    for n, m in diffs.items():
        if m:
            dims[n] = len(m[0])
            dims[n - 1] = max(dims.get(n - 1, 0), len(m))
    toks = {n: [generator("e%d_%d" % (n, i), n) for i in range(dims.get(n, 0))] for n in range(maxdeg + 1)}
    table = {}
    for n, m in diffs.items():
        for j, t in enumerate(toks[n]):
            img = Element(ring)
            for i, row in enumerate(m):
                if row[j]:
                    img = img + Element.from_token(ring, toks[n - 1][i], row[j])
            table[t] = img
    d = map_from_table(ring, -1, table)
    return ChainComplex(GradedBasis(ring, toks, maxdeg), d)


def test_sphere_homology():
    # S^2 model: generators in degrees 0 and 2, zero differential
    toks = {0: [generator("pt", 0)], 2: [generator("top", 2)]}
    X = ChainComplex(GradedBasis(ZZ, toks, 4), zero_map(ZZ, -1))
    h = homology(X, range(0, 3))
    assert [(s.betti, s.torsion) for s in h] == [(1, []), (0, []), (1, [])]


def test_multiplication_by_two():
    X = _complex({1: [[2]]}, 2)
    h = homology(X, range(0, 2))
    assert (h[0].betti, h[0].torsion) == (0, [2])
    assert (h[1].betti, h[1].torsion) == (0, [])


def test_modp_matches_integral_on_torsion_free():
    X = _complex({1: [[0, 0]], 2: [[1], [-1]]}, 3)
    Xp = _complex({1: [[0, 0]], 2: [[1], [-1]]}, 3, ring=F5)
    hz = homology(X, range(0, 3))
    hp = homology(Xp, range(0, 3))
    assert all(a.torsion == [] for a in hz)
    assert [a.betti for a in hz] == [a.betti for a in hp]


def test_homology_basis_representatives_and_coordinates():
    X = _complex({1: [[2]]}, 2)
    hb = HomologyBasis(X, 0)
    assert hb.generators == [("torsion", 0, 2)]
    rep = hb.representatives[0]
    # the representative generates H_0 = Z/2
    assert hb.coordinates(rep) == [1]
    assert hb.coordinates([2 * v for v in rep]) == [0]


def test_homology_basis_free_part():
    toks = {0: [generator("pt", 0)], 2: [generator("top", 2)]}
    X = ChainComplex(GradedBasis(ZZ, toks, 4), zero_map(ZZ, -1))
    hb = HomologyBasis(X, 2)
    assert hb.generators == [("free", 0)]
    assert hb.coordinates([3]) == [3]


@pytest.mark.parametrize("ring, cycle", [(ZZ, [1, -1]), (F3, [1, 2])])
def test_homology_basis_rejects_a_non_cycle(ring, cycle):
    # d(a) = d(a2) = b: H_1 is spanned by a - a2, and a alone is no cycle
    X = _complex({1: [[1, 1]]}, 2, ring=ring)
    hb = HomologyBasis(X, 1)
    assert len(hb.generators) == 1
    assert hb.coordinates(hb.representatives[0]) == [1]
    assert hb.coordinates(cycle) != [0]
    with pytest.raises(ValueError) as raised:
        hb.coordinates([1, 0])
    assert str(raised.value) == "degree-1 vector is not a cycle: its boundary is nonzero at e0_0"


def test_modp_rank():
    assert modp_rank([[2, 4], [6, 8]], 2) == 0
    assert modp_rank([[1, 4], [6, 8]], 2) == 1
    assert modp_rank([[2, 4], [6, 8]], 5) == 2


_boundary_matrices = st.integers(min_value=1, max_value=8).flatmap(
    lambda cols: st.lists(st.lists(st.integers(min_value=-3, max_value=3),
                                   min_size=cols, max_size=cols),
                          min_size=1, max_size=8))


@settings(max_examples=40, deadline=None)
@given(_boundary_matrices)
def test_homology_matches_dense_snf(matrix):
    # a two-term complex C_1 -> C_0; entries in -3..3 give non-unit pivots
    # and torsion, so the dense remainder path runs too
    rows, cols = len(matrix), len(matrix[0])
    factors = [abs(d) for d in smith_normal_form(matrix).factors]
    rank = len(factors)
    torsion = [d for d in factors if d > 1]
    h0, h1 = homology(_complex({1: matrix}, 2), range(2))
    assert (h0.betti, h0.torsion) == (rows - rank, torsion)
    assert (h1.betti, h1.torsion) == (cols - rank, [])
    for ring in (F2, F3, F5):
        # universal coefficients: each p-divisible factor adds one dimension
        # to H_0 (the quotient) and one to H_1 (Tor)
        tor = sum(1 for d in torsion if d % ring.p == 0)
        hp0, hp1 = homology(_complex({1: matrix}, 2, ring=ring), range(2))
        assert (hp0.betti, hp1.betti) == (rows - rank + tor, cols - rank + tor)
        assert modp_rank(matrix, ring.p) == rank - tor


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_boundary_matrices)
def test_modp_homology_basis_matches_dense_snf(matrix):
    # F_p bases of a two-term complex C_1 -> C_0 against the dense SNF over
    # Z, which does not run the sparse elimination the bases come from
    rows, cols = len(matrix), len(matrix[0])
    factors = [abs(d) for d in smith_normal_form(matrix).factors]
    rank = len(factors)
    for ring in (F2, F3, F5):
        p = ring.p
        tor = sum(1 for d in factors if d % p == 0)
        X = _complex({1: matrix}, 2, ring=ring)
        h0, h1 = HomologyBasis(X, 0), HomologyBasis(X, 1)
        assert len(h0.generators) == rows - rank + tor
        assert len(h1.generators) == cols - rank + tor
        boundaries = [[row[j] for row in matrix] for j in range(cols)]
        for rep in h1.representatives:
            assert all(sum(x * b[r] for x, b in zip(rep, boundaries)) % p == 0
                       for r in range(rows))
        for hb, dim, added in ((h0, rows, boundaries), (h1, cols, [])):
            gens = range(len(hb.generators))
            for i, rep in enumerate(hb.representatives):
                e_i = [int(k == i) for k in gens]
                assert hb.coordinates(rep) == e_i
                for b in added:
                    assert hb.coordinates([x + y for x, y in zip(rep, b)]) == e_i
            # coordinates are linear: the sum of k * rep_k has coordinates k
            mix = [sum((k + 1) * rep[r] for k, rep in enumerate(hb.representatives))
                   for r in range(dim)]
            assert hb.coordinates(mix) == [(k + 1) % p for k in gens]
        for j, b in enumerate(boundaries):
            if any(x % p for x in b):
                with pytest.raises(ValueError, match="not a cycle"):
                    h1.coordinates([int(k == j) for k in range(cols)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_boundary_matrices)
def test_integral_homology_basis_matches_dense_snf(matrix):
    # Z bases of a two-term complex C_1 -> C_0 against the dense SNF of the
    # whole matrix, which does not run the sparse elimination the bases come
    # from; both bases share one reader, so each reduces the same rows of d_1
    rows, cols = len(matrix), len(matrix[0])
    factors = [abs(d) for d in smith_normal_form(matrix).factors]
    rank = len(factors)
    X = _complex({1: matrix}, 2)
    reader = boundary_reader(X)
    h0, h1 = HomologyBasis(X, 0, reader), HomologyBasis(X, 1, reader)
    assert [g[2] for g in h0.generators if g[0] == "torsion"] == [d for d in factors if d > 1]
    assert sum(g[0] == "free" for g in h0.generators) == rows - rank
    assert h1.generators == [("free", i) for i in range(cols - rank)]
    assert [g[1] for g in h0.generators] == list(range(len(h0.generators)))
    boundaries = [[row[j] for row in matrix] for j in range(cols)]
    for rep in h1.representatives:
        assert all(sum(x * b[r] for x, b in zip(rep, boundaries)) == 0 for r in range(rows))
    for hb, dim, added in ((h0, rows, boundaries), (h1, cols, [])):
        orders = [g[2] if g[0] == "torsion" else 0 for g in hb.generators]
        for i, rep in enumerate(hb.representatives):
            e_i = [int(k == i) for k in range(len(orders))]
            assert hb.coordinates(rep) == e_i
            for b in added:
                assert hb.coordinates([x + y for x, y in zip(rep, b)]) == e_i
            if orders[i]:
                # order times a torsion generator is a boundary
                assert hb.coordinates([orders[i] * x for x in rep]) == [0] * len(orders)
        # coordinates are linear: the sum of k * rep_k has coordinates k,
        # taken mod the order of a torsion generator
        mix = [sum((k + 1) * rep[r] for k, rep in enumerate(hb.representatives))
               for r in range(dim)]
        assert hb.coordinates(mix) == [(k + 1) % o if o else k + 1 for k, o in enumerate(orders)]
    for j, b in enumerate(boundaries):
        if any(b):
            with pytest.raises(ValueError, match="not a cycle"):
                h1.coordinates([int(k == j) for k in range(cols)])


def test_reduce_leaves_its_rows_unchanged():
    # d_1 has a unit pivot whose clearing changes the other rows, and a
    # remainder without units
    rows = [{0: 1, 1: 2}, {0: 1, 1: 4}, {0: 3, 1: 2}]
    before = [dict(row) for row in rows]
    for p in (None, 5):
        _reduce(rows, p, pivots=[], combos={})
        assert rows == before
    assert homology(_complex({1: [[1, 1, 3], [2, 4, 2]]}, 2), range(1))[0].torsion == [2]


def _min_scan_pivots(rows):
    """The pivots (column, row) of unit elimination over Z with every choice
    made by a scan: the shortest live row holding a unit, on its unit held by
    the fewest live rows.  Ties are not broken as _reduce breaks them."""
    live = {i: dict(row) for i, row in enumerate(rows) if row}
    pivots = []
    while True:
        held = [(len(row), i) for i, row in live.items() if 1 in row.values() or -1 in row.values()]
        if not held:
            return pivots
        row = live.pop(min(held)[1])
        col = min((j for j, v in row.items() if v in (1, -1)),
                  key=lambda j: sum(j in other for other in live.values()))
        pivots.append((col, row))
        for k, other in list(live.items()):
            if col in other:
                f = other[col] * row[col]
                for j, v in row.items():
                    x = other.get(j, 0) - f * v
                    if x:
                        other[j] = x
                    else:
                        del other[j]
                if not other:
                    del live[k]


def test_reduce_pivots_as_a_scan_of_the_row_lengths():
    # the first pivot, on row 0 of length 2, shortens row 1 to length 1,
    # below the lower bound 2 that _reduce keeps of the queue's keys, and
    # row 1 must be the next pivot; no two candidate rows ever tie
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1, 2: 1}, {2: 1, 3: 1, 4: 1, 5: 1},
            {3: 2, 4: 1, 6: 1, 7: 1, 8: 1}, {5: 3, 6: 2}]
    pivots = []
    rank, left = _reduce(rows, None, pivots=pivots)
    assert [(col, row) for col, row, _ in pivots] == _min_scan_pivots(rows)
    assert [row for _, row, _ in pivots[:2]] == [{0: 1, 1: 1}, {2: 1}]
    assert rank == len(pivots) == 4 and list(left.values()) == [{5: 3, 6: 2}]


def test_modp_homology_basis_runs_the_named_layers():
    # the benchmark's snf.modp_s and snf.basis_s find the F_p basis work by
    # the code objects of these functions
    import cProfile
    from loopchain import snf
    X = _complex({1: [[1, 1], [2, 2]], 2: [[1], [-1]]}, 3, ring=F3)
    prof = cProfile.Profile()
    prof.runcall(lambda: HomologyBasis(X, 1).coordinates([1, 2]))
    seen = {e.code for e in prof.getstats()}
    for fn in (snf._modp_kernel, snf._modp_column_space, HomologyBasis.__init__,
               HomologyBasis.coordinates):
        assert fn.__code__ in seen, fn.__qualname__


@pytest.mark.parametrize("ring", [ZZ, F2], ids=["Z", "F2"])
def test_homology_needs_the_degree_above(ring):
    X = _complex({1: [[2]]}, 2, ring=ring)
    with pytest.raises(DegreeOverflowError, match="homology at degree 2 needs basis at degree 3"):
        homology(X, range(3))
    with pytest.raises(DegreeOverflowError, match="homology at degree 2 needs basis at degree 3"):
        HomologyBasis(X, 2)


def test_homology_rejects_a_cochain_complex():
    # 0 -> Z --2--> Z -> 0 from degree 0 to degree 1: a differential of shift +1
    a, b = generator("a", 0), generator("b", 1)
    X = ChainComplex(GradedBasis(ZZ, {0: [a], 1: [b]}, 2),
                     map_from_table(ZZ, 1, {a: Element.from_token(ZZ, b, 2)}))
    with pytest.raises(ValueError, match="chain differential"):
        homology(X, range(2))


def test_homology_rejects_an_invalid_modulus():
    bad = Ring.__new__(Ring)  # Ring(1) itself refuses the modulus
    bad.p = 1
    X = ChainComplex(GradedBasis(bad, {0: [generator("pt", 0)]}, 2), zero_map(ZZ, -1))
    with pytest.raises(ValueError, match="composite or invalid modulus"):
        homology(X, range(1))


def test_homology_summary_compares_the_ring():
    # d_1 = 0 on one generator in each degree: H_0 is one copy of the ring
    over_z = homology(_complex({1: [[0]]}, 2), range(1))[0]
    over_f2 = homology(_complex({1: [[0]]}, 2, ring=F2), range(1))[0]
    assert (over_z.betti, over_f2.betti) == (1, 1)
    assert over_z != over_f2
    assert over_z == HomologySummary(0, 1, [], ZZ)
    assert over_f2 == HomologySummary(0, 1, [], F2)
    # a summary is never equal to, and never fails on, another type
    assert over_z != (0, 1, [])
    assert not over_z == None  # noqa: E711
