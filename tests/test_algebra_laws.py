"""The algebra laws on every algebra constructor, over Z and a prime field.

Each constructor gives its algebra by one Table of pair-valued products;
these tests check that mult, multiply and the Table agree, and that the
product has a two-sided unit and is associative through a small degree.
"""

import random

import pytest

from loopchain.chains import ZZ, F2, F3, Element
from loopchain.dg import tensor_algebra
from loopchain.fixtures import (
    dg_fixture_from_dict, exterior_two, free_hopf_one, group_ring_hopf, rp_hirsch,
    small_commutative,
)
from loopchain.groups import BUILTIN_GROUPS
from loopchain.perturbation import bar_shuffle_hopf


def _rp_cobar(ring):
    return rp_hirsch(ring, max_degree=6)[1].cobar


def _rp_square(ring):
    hirsch = rp_hirsch(ring, max_degree=5)[1]
    return tensor_algebra(hirsch, hirsch)


def _fixture(ring):
    return dg_fixture_from_dict({
        "name": "xy", "ring": repr(ring), "max_degree": 6, "kind": "algebra",
        "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 2},
                       {"name": "xy", "degree": 3}],
        "differential": {"y": [[3, "x"]]},
        "multiplication": {"x|y": [[1, "xy"], [1, "xy"]], "y|x": [[-2, "xy"]]},
    })


# (name, builder from a ring, rings, degree through which the laws are checked)
ALGEBRAS = [
    ("cobar-rp", _rp_cobar, (F2, ZZ), 4),
    ("cobar-rp-square", _rp_square, (F2, ZZ), 3),
    ("group-s3", lambda ring: group_ring_hopf(BUILTIN_GROUPS["s3"], ring).algebra, (ZZ, F3), 0),
    ("exterior-two", exterior_two, (ZZ, F2), 2),
    ("small-commutative", small_commutative, (ZZ, F3), 3),
    ("free-odd", lambda ring: free_hopf_one(1, ring).algebra, (ZZ, F2), 5),
    ("free-even", lambda ring: free_hopf_one(2, ring).algebra, (ZZ, F3), 6),
    ("bar-shuffle", lambda ring: bar_shuffle_hopf(small_commutative(ring, 4), 4)[0].algebra,
     (ZZ, F3), 4),
    ("json-fixture", _fixture, (ZZ, F3), 3),
]

CASES = [pytest.param(build, ring, top, id="%s-%r" % (name, ring))
         for name, build, rings, top in ALGEBRAS for ring in rings]


def _tokens(A, top):
    return [tok for n in range(top + 1) for tok in A.complex.basis.basis(n)]


@pytest.mark.parametrize("build, ring, top", CASES)
def test_mult_is_the_product_pairs(build, ring, top):
    A = build(ring)
    toks = _tokens(A, top)
    for a in toks:
        for b in toks:
            if a.degree + b.degree <= top:
                assert A.mult(a, b) == Element(ring, A.products[a, b]), (a, b)


@pytest.mark.parametrize("build, ring, top", CASES)
def test_unit_laws(build, ring, top):
    A = build(ring)
    for a in _tokens(A, top):
        one_a = A.element(a)
        assert A.mult(A.unit, a) == one_a == A.mult(a, A.unit), a


@pytest.mark.parametrize("build, ring, top", CASES)
def test_associativity(build, ring, top):
    assert build(ring).check_associativity(top) is None


@pytest.mark.parametrize("build, ring, top", CASES)
def test_multiply_is_the_double_sum_of_mult(build, ring, top):
    A = build(ring)
    rng = random.Random(7)
    by_degree = [A.complex.basis.basis(n) for n in range(top + 1)]

    def random_element(n):
        return Element(ring, [(tok, rng.randint(-3, 3)) for tok in by_degree[n]
                              if rng.random() < 0.7])

    for n in range(top + 1):
        for m in range(top + 1 - n):
            for _ in range(3):
                x, y = random_element(n), random_element(m)
                expected = Element(ring)
                for a, ca in x.items():
                    for b, cb in y.items():
                        expected = expected + A.mult(a, b).scale(ca * cb)
                assert A.multiply(x, y) == expected, (x, y)


# multiply_terms merges after every product; in the augmentation basis of a
# group ring one product of basis tokens has 3 terms
FOLD_CASES = CASES + [
    pytest.param(lambda ring: group_ring_hopf(BUILTIN_GROUPS[name], ring).algebra, ring, 0,
                 id="group-%s-%r" % (name, ring))
    for name, ring in (("c4", ZZ), ("c4", F2), ("s3", F2))]


@pytest.mark.parametrize("build, ring, top", FOLD_CASES)
def test_multiply_all_is_the_left_fold_of_multiply(build, ring, top):
    A = build(ring)
    rng = random.Random(11)
    by_degree = [A.complex.basis.basis(n) for n in range(top + 1)]
    calls = []
    products = A.products

    class Counted:
        """A's products Table, with every read recorded in calls."""

        def __getitem__(self, pair):
            calls.append(pair)
            return products[pair]

    A.products = Counted()
    for k in range(4):
        for _ in range(4):
            degrees = []
            for _ in range(k):
                degrees.append(rng.randint(0, top - sum(degrees)))
            factors = [Element(ring, [(tok, rng.randint(-3, 3)) for tok in by_degree[n]
                                      if rng.random() < 0.7]) for n in degrees]
            expected = factors[0] if factors else Element.from_token(ring, A.unit)
            merged = 0  # one product per pair of terms of the merged left factor
            for x in factors[1:]:
                merged += len(expected.terms) * len(x.terms)
                expected = A.multiply(expected, x)
            del calls[:]
            assert A.multiply_all(factors) == expected, factors
            assert len(calls) == merged, factors
