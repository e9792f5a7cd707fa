from math import prod

import pytest

from loopchain.chains import ZZ, F2, F3, verify_chain_map
from loopchain.dg import couniversal_twisting, hirsch_primitive, universal_twisting
from loopchain.fixtures import free_hopf_one, group_ring_hopf
from loopchain.groups import BUILTIN_GROUPS
from loopchain.hochschild import (
    cohochschild_complex, hochschild_of_algebra, power_map, power_map_on_homology,
)
from loopchain.perturbation import BarHopfStructure
from loopchain.simplicial import (
    Sphere, check_simplicial_set, double_suspension, get_space, normalized_chains,
)
from loopchain.snf import homology, modp_rank, smith_normal_form


def summary(K, degrees, ring=ZZ):
    """(betti, torsion) per degree of the normalized chains of K."""
    cx = normalized_chains(K, ring, max_degree=max(degrees) + 1).complex
    return [(h.betti, h.torsion) for h in homology(cx, degrees)]


@pytest.mark.parametrize("name", ["delta:2", "sphere:2", "circle", "nerve-z2", "sigma-rpinfty",
                                  "cyclic-c2", "cyclic-s3"])
def test_builtin_spaces_satisfy_simplicial_identities(name):
    assert check_simplicial_set(get_space(name), 4) == []


def test_standard_simplex_is_contractible():
    assert summary(get_space("delta:2"), range(3)) == [(1, []), (0, []), (0, [])]


def test_sphere_two_homology():
    assert summary(get_space("sphere:2"), range(4)) == [(1, []), (0, []), (1, []), (0, [])]


def test_circle_homology():
    assert summary(get_space("circle"), range(3)) == [(1, []), (1, []), (0, [])]


def test_classifying_space_of_c2_over_z():
    # H_*(RP^inf; Z) = Z, Z/2, 0, Z/2
    assert summary(get_space("nerve-z2"), range(4)) == [(1, []), (0, [2]), (0, []), (0, [2])]


def test_classifying_space_of_c2_over_f2():
    assert summary(get_space("nerve-z2"), range(6), F2) == [(1, [])] * 6


def test_suspended_rp_infinity_over_f2():
    assert summary(get_space("sigma-rpinfty"), range(6), F2) == [(1, []), (0, [])] + [(1, [])] * 4


def test_zero_sphere_has_two_points():
    assert summary(Sphere(0), range(2)) == [(2, []), (0, [])]
    assert check_simplicial_set(Sphere(0), 3) == []


def test_double_suspension_of_zero_sphere_is_two_sphere():
    assert summary(double_suspension(Sphere(0)), range(4)) == [(1, []), (0, []), (1, []), (0, [])]


def test_homology_summary_states_its_ring():
    K = get_space("nerve-z2")
    over_f2 = homology(normalized_chains(K, F2, max_degree=3).complex, range(2))
    over_z = homology(normalized_chains(K, ZZ, max_degree=3).complex, range(2))
    assert [repr(h) for h in over_f2] == ["H_0 = F2", "H_1 = F2"]
    assert [repr(h) for h in over_z] == ["H_0 = Z", "H_1 = Z/2"]


# --- the cyclic nerve against the Hochschild power maps ----------------------


def minus_identity(M):
    return [[v - (i == j) for j, v in enumerate(row)] for i, row in enumerate(M)]


def invariants(rows, f):
    """Basis-free invariants of f(M) per degree, for the matrices M of
    power_map_on_homology: the Smith factors on a free group, the order of
    the image on a torsion group (a sum of Z/o_i)."""
    out = []
    for row in rows:
        M = f(row["matrix"])
        orders = [g[2] for g in row["generators"] if g[0] == "torsion"]
        if not orders:
            out.append(("free", [abs(d) for d in smith_normal_form(M, len(M), len(M)).factors]))
            continue
        assert len(orders) == len(M)
        # the image (M Z^k + D Z^k) / D Z^k has index prod snf(M | D) in Z^k
        MD = [M[i] + [o if i == j else 0 for j, o in enumerate(orders)] for i in range(len(M))]
        index = prod(abs(d) for d in smith_normal_form(MD).factors)
        out.append(("torsion", prod(orders) // index))
    return out


def hochschild_power_maps(name, top, ring=ZZ):
    """HH(R[G]) through degree top + 1 and its lambda-tilde_r, r = 2, 3."""
    H = group_ring_hopf(BUILTIN_GROUPS[name], ring)
    bh = BarHopfStructure(H, top + 1)
    hirsch = bh.hirsch()
    t = couniversal_twisting(H.algebra, bh.barH)
    hoch = hochschild_of_algebra(H.algebra, bar=bh.barH, max_degree=top + 1)
    # bar degrees 1..top - 1 are checked when the maps are built, and bar degree top
    # when lambda first reads it on HH_top: all that lambda reads on HH_0..top
    return hoch, {r: power_map(t, hirsch, H, r, check_degree=top - 1) for r in (2, 3)}


# H_*(LBG) = HH_*(Z[G]) = sum over conjugacy classes [g] of H_*(BC_G(g))
CYCLIC_HOMOLOGY = {
    "c2": [(2, []), (0, [2, 2]), (0, []), (0, [2, 2]), (0, []), (0, [2, 2])],
    "s3": [(3, []), (0, [2, 6])],
}


@pytest.mark.parametrize("name", ["c2", "s3"])
def test_cyclic_nerve_power_maps_match_hochschild(name):
    top = len(CYCLIC_HOMOLOGY[name]) - 1
    K = get_space("cyclic-" + name)
    chains = normalized_chains(K, max_degree=max(top + 1, 3))
    hoch, hoch_maps = hochschild_power_maps(name, top)
    assert summary(K, range(top + 1)) == CYCLIC_HOMOLOGY[name]
    assert homology(chains.complex, range(top + 1)) == homology(hoch.complex, range(top + 1))
    found = {}
    for r in (2, 3):
        lam = K.power_map(r)
        assert verify_chain_map(lam, chains.complex, chains.complex, 3) == (True, None)
        cyclic = power_map_on_homology(chains, lam, range(top + 1))
        hochschild = power_map_on_homology(hoch, hoch_maps[r], range(top + 1))
        for f in (list, minus_identity):
            found[r, f] = invariants(cyclic, f)
            assert found[r, f] == invariants(hochschild, f)
    if name == "s3":
        # lambda_2 on classes: [e] -> [e], [(12)] -> [e], [(123)] -> [(132)] = [(123)]
        assert found[2, list] == [("free", [1, 1]), ("torsion", 6)]
        assert found[2, minus_identity] == [("free", [1]), ("torsion", 6)]
    else:
        # g^3 = g in C2, so lambda_3 is the identity
        assert found[3, minus_identity] == [("free", []), ("torsion", 1), ("free", []),
                                            ("torsion", 1), ("free", []), ("torsion", 1)]


# HH_*(F_p[G]) = sum over conjugacy classes [g] of H_*(BC_G(g); F_p)
CYCLIC_DIMENSIONS = {
    ("c2", 2): [2] * 6,
    ("c2", 3): [2, 0, 0, 0, 0, 0],
    ("s3", 2): [3, 2],
    ("s3", 3): [3, 1],
}


@pytest.mark.parametrize("name", ["c2", "s3"])
@pytest.mark.parametrize("ring", [F2, F3], ids=repr)
def test_cyclic_nerve_power_maps_match_hochschild_mod_p(name, ring):
    # over F_p the ranks of lambda_r and lambda_r - Id on each HH_n are basis-free
    top = len(CYCLIC_HOMOLOGY[name]) - 1
    K = get_space("cyclic-" + name)
    chains = normalized_chains(K, ring, max_degree=max(top + 1, 3))
    hoch, hoch_maps = hochschild_power_maps(name, top, ring)
    degrees = range(top + 1)
    assert [h.betti for h in homology(chains.complex, degrees)] == \
        [h.betti for h in homology(hoch.complex, degrees)] == CYCLIC_DIMENSIONS[name, ring.p]
    for r in (2, 3):
        lam = K.power_map(r, ring)
        assert verify_chain_map(lam, chains.complex, chains.complex, 3) == (True, None)
        cyclic = power_map_on_homology(chains, lam, degrees)
        hochschild = power_map_on_homology(hoch, hoch_maps[r], degrees)
        for f in (list, minus_identity):
            ranks = [modp_rank(f(row["matrix"]), ring.p) for row in cyclic]
            assert ranks == [modp_rank(f(row["matrix"]), ring.p) for row in hochschild]


# --- the double-suspension power maps against two oracles ---------------------


def double_suspension_power_maps(name, top):
    """lambda_r, r = 2, 3, on coHH_0..top of the normalized chains of Sigma^2 K."""
    C = normalized_chains(double_suspension(get_space(name)), max_degree=top + 2)
    hirsch = hirsch_primitive(C)
    t = universal_twisting(C, hirsch.cobar)
    cohoch = cohochschild_complex(C, cobar=hirsch.cobar, max_degree=top + 1)
    return {r: power_map_on_homology(cohoch, power_map(t, hirsch, hirsch.loop_hopf(), r),
                                     range(top + 1)) for r in (2, 3)}


def free_hopf_power_maps(degree, top):
    """lambda-tilde_r, r = 2, 3, on HH_0..top of the free algebra on one
    primitive generator of the given degree."""
    H = free_hopf_one(degree)
    bh = BarHopfStructure(H, top + 1)
    t = couniversal_twisting(H.algebra, bh.barH)
    hoch = hochschild_of_algebra(H.algebra, bar=bh.barH, max_degree=top + 1)
    return {r: power_map_on_homology(hoch, power_map(t, bh.hirsch(), H, r), range(top + 1))
            for r in (2, 3)}


@pytest.mark.parametrize("name", ["sphere:0", "sphere:1", "sphere:2", "nerve-z2"])
def test_double_suspension_is_one_reduced(name):
    K = double_suspension(get_space(name))
    assert check_simplicial_set(K, 4) == []
    assert K.nondegenerate(0) == ["a0"]
    assert normalized_chains(K).complex.basis.basis(1) == []


def test_double_suspension_power_maps_match_two_oracles():
    s3 = double_suspension_power_maps("sphere:1", 8)
    s4 = double_suspension_power_maps("sphere:2", 6)
    bc2 = double_suspension_power_maps("nerve-z2", 5)
    for r in (2, 3):
        # oracle B, the eigenvalues of the power maps on H_*(LS^n): on LS^3,
        # r^k on HH_2k and r^(k-1) on HH_2k+1 (HH_1 = 0)
        assert [row["matrix"] for row in s3[r]] == \
            [[[r ** (n // 2 - (n % 2))]] if n != 1 else [] for n in range(9)]
        # on LS^4, r on HH_3, 1 on HH_4 and r^2 on HH_6 = Z/2
        assert [row["matrix"] for row in s4[r]] == \
            [[[1]], [], [], [[r]], [[1]], [], [[r * r % 2]]]
        assert s4[r][6]["generators"] == [("torsion", 0, 2)]
    # on L Sigma^2 BC2, HH_5 = Z/2 + Z/4, where lambda_2 = diag(1, 2), lambda_3 = diag(1, 3)
    assert [g[2] for g in bc2[2][5]["generators"]] == [2, 4]
    assert [invariants(bc2[r][5:], f) for r in (2, 3) for f in (list, minus_identity)] == \
        [[("torsion", 4)], [("torsion", 4)], [("torsion", 8)], [("torsion", 2)]]
    # oracle A: Cobar C(Sigma^2 S^m) is the free algebra on one primitive
    # generator of degree m + 1, so the paper's two special cases agree;
    # generator indices may differ, kinds and torsion orders may not
    for cohoch, m, top in ((s3, 1, 5), (s4, 2, 6)):
        hoch = free_hopf_power_maps(m + 1, top)
        for r in (2, 3):
            for row, want in zip(cohoch[r], hoch[r]):
                assert row["matrix"] == want["matrix"], (m, r, row["degree"])
                assert [g[:1] + g[2:] for g in row["generators"]] == \
                    [g[:1] + g[2:] for g in want["generators"]]
