import pytest

from loopchain.chains import ZZ, F2
from loopchain.simplicial import (
    Sphere, check_simplicial_set, double_suspension, get_space, normalized_chains,
)
from loopchain.snf import homology


def summary(K, degrees, ring=ZZ):
    """(betti, torsion) per degree of the normalized chains of K."""
    cx = normalized_chains(K, ring, max_degree=max(degrees) + 1).complex
    return [(h.betti, h.torsion) for h in homology(cx, degrees)]


@pytest.mark.parametrize("name", ["delta:2", "sphere:2", "circle", "nerve-z2", "rpinfty"])
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
