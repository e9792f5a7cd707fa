from math import prod

import pytest

from loopchain.chains import ZZ, F2, verify_chain_map
from loopchain.dg import couniversal_twisting
from loopchain.fixtures import group_ring_hopf
from loopchain.groups import BUILTIN_GROUPS
from loopchain.hochschild import hochschild_of_algebra, power_map, power_map_on_homology
from loopchain.perturbation import BarHopfStructure
from loopchain.simplicial import (
    Sphere, check_simplicial_set, double_suspension, get_space, normalized_chains,
)
from loopchain.snf import homology, smith_normal_form


def summary(K, degrees, ring=ZZ):
    """(betti, torsion) per degree of the normalized chains of K."""
    cx = normalized_chains(K, ring, max_degree=max(degrees) + 1).complex
    return [(h.betti, h.torsion) for h in homology(cx, degrees)]


@pytest.mark.parametrize("name", ["delta:2", "sphere:2", "circle", "nerve-z2", "rpinfty",
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
    assert summary(get_space("rpinfty"), range(6), F2) == [(1, []), (0, [])] + [(1, [])] * 4


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


def hochschild_power_maps(name, top):
    """HH(Z[G]) through degree top + 1 and its lambda-tilde_r, r = 2, 3."""
    H = group_ring_hopf(BUILTIN_GROUPS[name])
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
