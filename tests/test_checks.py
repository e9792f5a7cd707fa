"""Every identity check names its first witness.

Each case builds a structure broken in one known place and returns what its
check found next to the witness the break puts there.  A check that always
returned None, or that walked the wrong tokens, fails its case.
"""

import pytest

from loopchain.chains import (
    ZZ, ChainComplex, Element, GradedBasis, LinearMap, Table, desuspend, generator,
    map_from_table, tensor_token, verify_chain_map, word_token,
)
from loopchain.dg import (
    DGAlgebra, DGCoalgebra, HopfAlgebra, TwistingCochain, check_twisting,
    hirsch_primitive, universal_twisting,
)
from loopchain.fixtures import (
    FixtureError, dg_fixture_from_dict, exterior_two, free_hopf_one, nonreal_aw_coalgebra,
    sphere_coalgebra,
)
from loopchain.perturbation import SDRData, bar_sdr, check_sdr
from loopchain.simplicial import StandardSimplex, check_simplicial_set, encode_nondegenerate


def el(tok, c=1):
    return Element.from_token(ZZ, tok, c)


def _line():
    # x <- y <- z in degrees 0, 1, 2
    x, y, z = generator("x", 0), generator("y", 1), generator("z", 2)
    return x, y, z, GradedBasis(ZZ, {0: [x], 1: [y], 2: [z]}, 3)


def d_squared():
    x, y, z, basis = _line()
    X = ChainComplex(basis, map_from_table(ZZ, -1, {z: el(y), y: el(x)}))
    return X.check_d_squared(2), z


def chain_map():
    x, y, z, basis = _line()
    X = ChainComplex(basis, map_from_table(ZZ, -1, {z: el(y)}))
    doubled_z = map_from_table(ZZ, 0, {x: el(x), y: el(y), z: el(z, 2)})
    return verify_chain_map(doubled_z, X, X, 2), z


def twisting():
    # doubling t doubles d t + t d but quadruples m (t (x) t) Delta, which is
    # nonzero first on the top class z
    C = nonreal_aw_coalgebra()
    t = universal_twisting(C)
    doubled = TwistingCochain(C, t.target, LinearMap(ZZ, -1, lambda c: t.map(c).scale(2)))
    return check_twisting(doubled, 8), generator("z", 7)


def _polynomial():
    H = free_hopf_one(2)
    return H, generator(("mono", 1), 2), generator(("mono", 2), 4)


def associativity():
    # x . u = 2 x u makes (x x) x = 2 x^3 and x (x x) = 4 x^3
    H, x, _ = _polynomial()
    A = DGAlgebra(H.complex, H.unit,
                  Table(lambda st: [(u, 2 * c if st[0] is x else c) for u, c in H.products[st]]))
    return A.check_associativity(6), (x, x, x)


def _da():
    # a (deg 1), b (deg 2), db = a, trivial products
    return {"name": "dA", "ring": "Z", "max_degree": 4, "kind": "algebra",
            "generators": [{"name": "a", "degree": 1}, {"name": "b", "degree": 2}],
            "differential": {"b": [[1, "a"]]}, "multiplication": {}}


def mult_is_chain_map():
    # aa = b although da = 0 and db = a
    A = dg_fixture_from_dict(_da())
    a, b = generator("a", 1), generator("b", 2)
    broken = DGAlgebra(A.complex, A.unit,
                       Table(lambda st: ((b, 1),) if st == (a, a) else A.products[st]))
    return broken.check_mult_is_chain_map(4), (a, a)


def coassociativity():
    # Delta y = 2 y (x) 1 + 1 (x) y
    C = sphere_coalgebra(3)
    one, y = C.counit_token, generator("y", 3)
    broken = DGCoalgebra(C.complex, one, lambda t: C.comult(t) + el(tensor_token(y, one))
                         if t is y else C.comult(t))
    return broken.check_coassociativity(6), y


def counitality():
    # Delta y = y (x) 1: (eps (x) Id) Delta y = 0
    C = sphere_coalgebra(3)
    one, y = C.counit_token, generator("y", 3)
    broken = DGCoalgebra(C.complex, one, lambda t: el(tensor_token(y, one)) if t is y
                         else C.comult(t))
    return broken.check_counitality(6), y


def comult_is_chain_map():
    # an extra x (x) y in Delta z has boundary -2 x (x) x, while dz = 0
    C = nonreal_aw_coalgebra()
    x, y, z = generator("x", 3), generator("y", 4), generator("z", 7)
    broken = DGCoalgebra(C.complex, C.counit_token, lambda t: C.comult(t) + el(tensor_token(x, y))
                         if t is z else C.comult(t))
    return broken.check_comult_is_chain_map(8), z


def comult_is_algebra_map():
    # an extra x (x) x in delta(x^2) breaks delta(x x) = delta(x) delta(x)
    H, x, x2 = _polynomial()
    broken = HopfAlgebra(H.complex, H.unit, H.products,
                         lambda t: H.comult(t) + el(tensor_token(x, x)) if t is x2
                         else H.comult(t))
    return broken.check_comult_is_algebra_map(6), (x, x)


def cocommutativity():
    # Delta z = ... + 3 x (x) y - 2 x (x) y' has no symmetric partner terms
    return nonreal_aw_coalgebra().check_cocommutativity(8), generator("z", 7)


def sdr():
    S = bar_sdr(exterior_two(), exterior_two(), max_degree=4)
    doubled_f = LinearMap(ZZ, 0, lambda t: S.f(t).scale(2))
    broken = SDRData(S.X, S.Y, S.nabla, doubled_f, S.h)
    empty = word_token(())
    return check_sdr(broken, 3), ("f nabla = Id", tensor_token(empty, empty))


class _SwappedFaces(StandardSimplex):
    """Delta[2] with the faces d_0 and d_1 of its 2-simplex exchanged."""

    def face_core(self, core, dim, i):
        return super().face_core(core, dim, {0: 1, 1: 0}.get(i, i) if dim == 2 else i)


def simplicial_set():
    # d_0 d_2 (0,1,2) = (1) but d_1 d_0 (0,1,2) = d_1 (0,2) = (0)
    return check_simplicial_set(_SwappedFaces(2), 3), \
        ("dd", 2, 0, 2, encode_nondegenerate((0, 1, 2), 2))


def _hirsch(images):
    """hirsch_primitive on the five-generator coalgebra with psi(s^{-1}c) given
    for the generators c named in images, as terms (coefficient, left, right);
    left and right name the generator of a one-letter word, "" the empty word."""
    C = nonreal_aw_coalgebra()
    toks = {t.data: t for t in C.complex.basis.through(7, 1)}
    words = {name: word_token((desuspend(t),)) for name, t in toks.items()}
    words[""] = word_token(())
    overrides = {desuspend(toks[name]): Element(ZZ, [(tensor_token(words[a], words[b]), c)
                                                     for c, a, b in terms])
                 for name, terms in images.items()}
    return hirsch_primitive(C, overrides), words


# The generator scope: s^{-1}c has degree |c| - 1, so a check through degree n
# reads c in C_1..C_{n+1}.  Each broken generator passes the check through
# the degree below its own.


def hirsch_cocommutativity():
    # psi(s^{-1}z) with the (y', y) term but not its partner
    h, words = _hirsch({"z": [(1, "z", ""), (1, "", "z"), (1, "y'", "y")]})
    return (h.check_cocommutativity(5), h.check_cocommutativity(6)), (None, words["z"])


def hirsch_chain_map():
    # psi(s^{-1}y) = 2 s^{-1}y (x) 1 + 1 (x) s^{-1}y: d(s^{-1}y) = -2 s^{-1}x, so
    # d psi(s^{-1}y) has -4 s^{-1}x (x) 1 and psi d(s^{-1}y) has -2 s^{-1}x (x) 1
    h, words = _hirsch({"y": [(2, "y", ""), (1, "", "y")]})
    return (h.check_comult_is_chain_map(2), h.check_comult_is_chain_map(3)), (None, words["y"])


def hirsch_coassociativity():
    # psi(s^{-1}x) = 2 s^{-1}x (x) 1 + 1 (x) s^{-1}x
    h, words = _hirsch({"x": [(2, "x", ""), (1, "", "x")]})
    return (h.check_coassociativity(1), h.check_coassociativity(2)), (None, words["x"])


def _fixture_error(doc):
    with pytest.raises(FixtureError) as raised:
        dg_fixture_from_dict(doc)
    return str(raised.value)


def fixture_hopf():
    # one odd primitive generator: (a (x) 1 + 1 (x) a)^2 = 0 = delta(a a)
    H = dg_fixture_from_dict({"name": "E(a)", "ring": "Z", "max_degree": 4, "kind": "hopf",
                              "generators": [{"name": "a", "degree": 1}]})
    a, one = generator("a", 1), generator("1", 0)
    return (type(H), H.comult(a)), (HopfAlgebra, Element(ZZ, [(tensor_token(a, one), 1),
                                                              (tensor_token(one, a), 1)]))


def fixture_not_a_chain_map():
    doc = dict(_da(), multiplication={"a|a": [[1, "b"]]})
    return _fixture_error(doc), "multiplication is not a chain map at (a, a)"


def fixture_not_coassociative():
    doc = {"name": "bad", "ring": "Z", "max_degree": 4, "kind": "coalgebra",
           "generators": [{"name": "y", "degree": 3}],
           "comultiplication": {"y": [[2, ["y", "1"]], [1, ["1", "y"]]]}}
    return _fixture_error(doc), "comultiplication table fails coassociativity at y"


def fixture_not_counital():
    # Delta y = y (x) 1 is coassociative and a chain map
    doc = {"name": "bad", "ring": "Z", "max_degree": 4, "kind": "coalgebra",
           "generators": [{"name": "y", "degree": 2}],
           "comultiplication": {"y": [[1, ["y", "1"]]]}}
    return _fixture_error(doc), "comultiplication is not counital at y"


def fixture_not_an_algebra_map():
    # x even and primitive with x x = 0: delta(x) delta(x) = 2 x (x) x
    doc = {"name": "bad", "ring": "Z", "max_degree": 4, "kind": "hopf",
           "generators": [{"name": "x", "degree": 2}]}
    return _fixture_error(doc), "comultiplication is not an algebra map at (x, x)"


def fixture_hopf_not_coassociative():
    # the algebra-map check passes: (2 a (x) 1 + 1 (x) a)^2 = 2 a (x) a - 2 a (x) a = 0
    doc = {"name": "bad", "ring": "Z", "max_degree": 4, "kind": "hopf",
           "generators": [{"name": "a", "degree": 1}],
           "comultiplication": {"a": [[2, ["a", "1"]], [1, ["1", "a"]]]}}
    return _fixture_error(doc), "comultiplication table fails coassociativity at a"


def fixture_hopf_not_a_chain_map():
    # dc = b and c is primitive, but Delta b has the extra term a (x) a, so
    # Delta dc != d Delta c; a is odd, so Delta(a a) = 0 = Delta(a) Delta(a)
    doc = {"name": "bad", "ring": "Z", "max_degree": 7, "kind": "hopf",
           "generators": [{"name": "a", "degree": 3}, {"name": "b", "degree": 6},
                          {"name": "c", "degree": 7}],
           "differential": {"c": [[1, "b"]]},
           "comultiplication": {"b": [[1, ["b", "1"]], [1, ["1", "b"]], [1, ["a", "a"]]]}}
    return _fixture_error(doc), "comultiplication is not a chain map at c"


def _xy(kind, **tables):
    # x in degree 2, y in degree 5
    return dict({"name": "bad", "ring": "Z", "max_degree": 6, "kind": kind,
                 "generators": [{"name": "x", "degree": 2}, {"name": "y", "degree": 5}]},
                **tables)


def fixture_differential_degree():
    doc = _xy("algebra", differential={"y": [[1, "x"]]})
    return _fixture_error(doc), "differential entry y has the term x of degree 2, not 4"


def fixture_product_degree():
    doc = _xy("algebra", generators=[{"name": "x", "degree": 2}, {"name": "y", "degree": 3}],
              multiplication={"x|x": [[1, "y"]]})
    return _fixture_error(doc), "multiplication entry (x, x) has the term y of degree 3, not 4"


def fixture_comultiplication_degree():
    doc = _xy("coalgebra", comultiplication={"y": [[1, ["y", "1"]], [1, ["1", "y"]],
                                                   [1, ["x", "x"]]]})
    return _fixture_error(doc), \
        "comultiplication entry y has the term (x (x) x) of degree 4, not 5"


def fixture_generator_degree():
    return tuple(_fixture_error(dict(_xy("algebra"), max_degree=4, generators=[g]))
                 for g in ({"name": "x", "degree": 6}, {"name": "x", "degree": -1})), \
        ("generator x has degree 6 outside 0..4", "generator x has degree -1 outside 0..4")


def fixture_undeclared_name():
    return _fixture_error(_xy("algebra", differential={"y": [[1, "q"]]})), \
        "undeclared generator 'q'"


def fixture_multiplication_key():
    return _fixture_error(_xy("algebra", multiplication={"xx": []})), \
        "multiplication key 'xx' is not of the form a|b"


def fixture_product_on_unit():
    return _fixture_error(_xy("algebra", multiplication={"1|x": [[2, "x"]]})), \
        "multiplication entry (1, x) has the unit as a factor"


CASES = [d_squared, chain_map, twisting, associativity, mult_is_chain_map, coassociativity,
         counitality, comult_is_chain_map, comult_is_algebra_map, cocommutativity, sdr,
         simplicial_set, hirsch_cocommutativity, hirsch_chain_map, hirsch_coassociativity,
         fixture_hopf, fixture_not_a_chain_map, fixture_not_coassociative, fixture_not_counital,
         fixture_not_an_algebra_map, fixture_hopf_not_coassociative,
         fixture_hopf_not_a_chain_map, fixture_differential_degree, fixture_product_degree,
         fixture_comultiplication_degree, fixture_generator_degree, fixture_undeclared_name,
         fixture_multiplication_key, fixture_product_on_unit]


@pytest.mark.parametrize("case", CASES, ids=[case.__name__ for case in CASES])
def test_check_names_the_first_witness(case):
    found, witness = case()
    assert found == witness
