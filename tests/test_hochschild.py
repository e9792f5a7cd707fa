import itertools
from functools import partial

import pytest

from loopchain.chains import (
    ZZ, F2, F3, Element, LinearMap, generator, suspend, desuspend,
    tensor_token, word_token, verify_chain_map, identity_map, koszul_sign,
    operator_application_sign, parity_sign, tensor_map,
)
from loopchain.dg import (
    cobar_construction, bar_construction, universal_twisting,
    couniversal_twisting, cobar_map, bar_map, bar_word, cartesian_product,
    algebra_realization, coalgebra_realization, bar_cobar_unit, cobar_bar_counit,
    HirschCoalgebra, HopfAlgebra, TwistingCochain, hirsch_primitive, tensor_algebra,
)
from loopchain.fixtures import (
    sphere_coalgebra, nonreal_aw_coalgebra, nonreal_aw_hirsch, rp_hirsch, small_commutative,
    monomial_algebra, free_hopf_one, exterior_two, group_ring_hopf, hopf_fixtures,
    dg_fixture_from_dict, exterior_polynomial_document,
)
from loopchain.groups import BUILTIN_GROUPS
from loopchain.hochschild import (
    cohochschild_complex, hochschild_of_algebra,
    hochschild_general, induced_map, cohoch_to_hoch, sh_map, sh_map_dual,
    cohoch_retraction, hoch_section, monoidal_iso,
    hochschild_comultiplication, hochschild_multiplication,
    power_concatenation, power_map, power_map_on_homology, power_domain,
    check_power_hypotheses, CompatibilityError,
)
from loopchain.perturbation import BarHopfStructure, bar_shuffle_hopf
from loopchain.simplicial import double_suspension, get_space, normalized_chains
from loopchain.snf import homology


def pair(c, a):
    return tensor_token(c, a)


def el(tok, c=1, ring=ZZ):
    return Element.from_token(ring, tok, c)


def _sphere_setup(n, max_degree=14):
    C = sphere_coalgebra(n, max_degree=max_degree)
    O = cobar_construction(C)
    t = universal_twisting(C, O)
    H = cohochschild_complex(C, cobar=O, max_degree=max_degree - 1)
    y = C.complex.basis.basis(n)[0]
    x = desuspend(y)
    return C, O, t, H, y, x


def xk(x, k):
    return word_token(tuple([x] * k))


# --- the twisted differential -------------------------------------------------


def test_zero_twisting_gives_untwisted_differential():
    # a coalgebra with zero differential and trivial reduced diagonal
    C, O, t, H, y, x = _sphere_setup(3)
    zero_t = TwistingCochain(C, O, LinearMap(ZZ, -1, lambda tok: Element(ZZ)), "0")
    H0 = hochschild_general(zero_t, max_degree=10)
    for n in range(9):
        for tok in H0.complex.basis.basis(n):
            assert H0.complex.d(tok).is_zero()


def test_sphere_differential_table_odd():
    C, O, t, H, y, x = _sphere_setup(3)
    for k in range(0, 5):
        assert H.complex.d(pair(y, xk(x, k))).is_zero()
        assert H.complex.d(pair(C.counit_token, xk(x, k))).is_zero()


def test_sphere_differential_table_even():
    C, O, t, H, y, x = _sphere_setup(2, max_degree=12)
    one = C.counit_token
    for k in range(0, 6):
        img = H.complex.d(pair(y, xk(x, k)))
        if k % 2 == 1:
            assert img == el(pair(one, xk(x, k + 1)), -2)
        else:
            assert img.is_zero()


def test_cohochschild_of_odd_sphere_is_free_with_zero_differential():
    C, O, t, H, y, x = _sphere_setup(3)
    # basis in degree n: monomials x^k (deg 2k) and y x^k (deg 3+2k)
    for n in range(0, 12):
        expected = 0
        if n % 2 == 0:
            expected += 1
        if n >= 3 and (n - 3) % 2 == 0:
            expected += 1
        assert H.complex.basis.dimension(n) == expected
    assert H.complex.check_d_squared(11) is None


def test_hochschild_of_ground_ring():
    A = monomial_algebra(ZZ, [], 8, "R")
    HH = hochschild_of_algebra(A, max_degree=6)
    assert HH.complex.basis.dimension(0) == 1
    for n in range(1, 6):
        assert HH.complex.basis.dimension(n) == 0


def test_d_squared_on_nonreal_aw_cohochschild():
    C, hirsch = nonreal_aw_hirsch()
    H = cohochschild_complex(C, cobar=hirsch.cobar, max_degree=10)
    assert H.complex.check_d_squared(10) is None


def test_rp_differential_formula():
    C, hirsch = rp_hirsch(max_degree=8)
    H = cohochschild_complex(C, cobar=hirsch.cobar, max_degree=7)
    assert H.complex.check_d_squared(7) is None

    def z(k):
        return desuspend(generator(("y", k), k + 1))

    one = C.counit_token
    for l, ks in [(1, (1,)), (2, (1,)), (1, (1, 2)), (3, ()), (2, (2, 1))]:
        y_l = generator(("y", l), l + 1)
        word = word_token(tuple(z(k) for k in ks))
        if y_l.degree + word.degree > 7:
            continue
        img = H.complex.d(pair(y_l, word))
        expected = Element(F2, [(pair(one, word_token((z(l),) + word.data)), 1),
                                (pair(one, word_token(word.data + (z(l),))), 1)])
        assert img == expected, (l, ks)


def _four_term_d_t(H, tok):
    """The untwisted part and the two twisted terms of d_t(y (x) x), each
    read straight off the paper's formula over the whole of Delta(y)."""
    t, C, A = H.t, H.N, H.M
    ring = H.ring
    y, x = tok.data
    untwisted = Element(ring, [(pair(u, x), c) for u, c in C.complex.d(y).items()]) + \
        Element(ring, [(pair(y, u), parity_sign(y.degree) * c) for u, c in A.complex.d(x).items()])
    left, right = Element(ring), Element(ring)
    for p, c in C.comult(y).items():
        yj, cj = p.data
        coeff = -operator_application_sign([0, -1], [yj.degree, cj.degree]) * c
        for a, ca in t.map(cj).items():
            left += Element(ring, [(pair(yj, m), coeff * ca * cm)
                                   for m, cm in A.mult(a, x).items()])
    for p, c in C.comult(y).items():
        ci, yi = p.data
        rot = koszul_sign([ci.degree, yi.degree, x.degree], [1, 2, 0])
        app = operator_application_sign([0, 0, -1], [yi.degree, x.degree, ci.degree])
        for a, ca in t.map(ci).items():
            right += Element(ring, [(pair(yi, m), rot * app * c * ca * cm)
                                    for m, cm in A.mult(x, a).items()])
    return untwisted, left, right


def _double_suspension_cohoch(ring, top):
    C = normalized_chains(double_suspension(get_space("nerve-z2")), ring=ring,
                          max_degree=top + 1)
    return cohochschild_complex(C, max_degree=top)


def _rp_cohoch(top):
    C, hirsch = rp_hirsch(max_degree=top + 1)
    return cohochschild_complex(C, cobar=hirsch.cobar, max_degree=top)


def _nonreal_aw_hirsch_cohoch(top):
    C, hirsch = nonreal_aw_hirsch(max_degree=top + 1)
    return cohochschild_complex(C, cobar=hirsch.cobar, max_degree=top)


def _s3_hoch(top):
    bh = BarHopfStructure(group_ring_hopf(BUILTIN_GROUPS["s3"]), top)
    return hochschild_of_algebra(bh.H.algebra, bar=bh.barH, max_degree=top)


# name: (make, top); make(top) gives the complex through degree top
D_T_FIXTURES = {
    "hoch-exterior-z": (lambda top: hochschild_of_algebra(exterior_two(ZZ, max_degree=top + 2),
                                                          max_degree=top), 8),
    "hoch-exterior-f2": (lambda top: hochschild_of_algebra(exterior_two(F2, max_degree=top + 2),
                                                           max_degree=top), 8),
    # BarHopfStructure(Z[S3], 4).barH: degree 5, its top, would cost 2.7 s here
    "hoch-s3": (_s3_hoch, 4),
    # every power of x is nonzero, so every cut of Delta meets a nonzero product
    "hoch-free-one-z": (lambda top: hochschild_of_algebra(free_hopf_one(1, max_degree=top + 2),
                                                          max_degree=top), 7),
    "hoch-small-commutative-f3": (lambda top: hochschild_of_algebra(
        small_commutative(F3, max_degree=top + 2), max_degree=top), 7),
    "cohoch-rp-f2": (_rp_cohoch, 7),
    "cohoch-nonreal-aw-hirsch": (_nonreal_aw_hirsch_cohoch, 7),
    "cohoch-nonreal-aw": (lambda top: cohochschild_complex(nonreal_aw_coalgebra(max_degree=top + 1),
                                                           max_degree=top), 8),
    "cohoch-double-suspension-z": (partial(_double_suspension_cohoch, ZZ), 7),
    "cohoch-double-suspension-f3": (partial(_double_suspension_cohoch, F3), 7),
    # dy = x: the coefficients' d is nonzero
    "hoch-exterior-polynomial-z": (lambda top: hochschild_of_algebra(
        dg_fixture_from_dict(exterior_polynomial_document(top + 2)), max_degree=top), 6),
}


@pytest.mark.parametrize("name", sorted(D_T_FIXTURES))
def test_d_t_matches_four_term_formula(name):
    make, top = D_T_FIXTURES[name]
    H = make(top)
    fired = [False, False]
    for n in range(top + 1):
        for tok in H.complex.basis.basis(n):
            untwisted, left, right = _four_term_d_t(H, tok)
            assert H.complex.d(tok) == untwisted + left + right, tok
            fired = [fired[0] or not left.is_zero(), fired[1] or not right.is_zero()]
    # both twisted terms were compared somewhere
    assert fired == [True, True]
    assert H.complex.check_d_squared(top) is None


def test_d_t_reads_each_structure_once_per_token():
    # d_t reads t, the d of the coefficients and the cuts of Delta into
    # tables: each fn runs at most once per token, and d_t adds nothing to
    # C's Delta cache.  The couniversal t of Hoch(E(a, b)) names its cuts in
    # closed form, so Bar's Delta is not read at all and its cache stays
    # empty; the universal t of a coHochschild complex reads Delta once per
    # token.
    A = exterior_two(ZZ, max_degree=10)
    hoch = hochschild_of_algebra(A, max_degree=9)
    C = sphere_coalgebra(2, max_degree=10)
    cohoch = cohochschild_complex(C, max_degree=9)
    for H, read, betti in [(hoch, {"t", "dA"}, list(range(1, 9))),
                           (cohoch, {"t", "dA", "Delta"}, [1] * 8)]:
        reads = {}
        cached = dict(H.N._comult._cache)  # what the fixture's own checks read

        def counted(name, fn):
            def wrapped(tok):
                reads[name, tok] = reads.get((name, tok), 0) + 1
                return fn(tok)
            return wrapped

        for name, linear_map in [("t", H.t.map), ("dA", H.M.complex.d), ("Delta", H.N._comult)]:
            linear_map.fn = counted(name, linear_map.fn)
        assert [s.betti for s in homology(H.complex, range(8))] == betti
        assert {name for name, _ in reads} == read
        assert max(reads.values()) == 1
        assert H.N._comult._cache == cached
    assert hoch.N._comult._cache == {}


def test_sphere_even_homology_torsion():
    C, O, t, H, y, x = _sphere_setup(2, max_degree=12)
    hs = homology(H.complex, range(0, 6))
    table = {s.degree: (s.betti, s.torsion) for s in hs}
    assert table[0] == (1, [])
    assert table[1] == (1, [])
    assert table[2] == (1, [2])
    assert table[3] == (1, [])
    assert table[4] == (1, [2])


# --- the twisted extension A -> H(t) -> C -------------------------------------


@pytest.mark.parametrize("make", [
    lambda: hochschild_of_algebra(exterior_two()),
    lambda: cohochschild_complex(sphere_coalgebra(2)),
    lambda: hochschild_of_algebra(group_ring_hopf(BUILTIN_GROUPS["c2"]).algebra),
], ids=["hoch-exterior-two", "cohoch-sphere-2", "hoch-group-c2"])
def test_twisted_extension(make):
    H = make()
    ring = H.ring
    include = LinearMap(ring, 0, lambda tok: H.include_fiber(el(tok, ring=ring)), "i")
    project = LinearMap(ring, 0, lambda tok: H.project_base(el(tok, ring=ring)), "p")
    assert verify_chain_map(include, H.M.complex, H.complex, 4) is None
    assert verify_chain_map(project, H.complex, H.N.complex, 4) is None
    # project o include = eta epsilon: the unit goes to the counit token, the rest to 0
    augmentation = H.t.target.augmentation
    for n in range(5):
        for tok in H.M.complex.basis.basis(n):
            assert project(include(tok)) == el(H.N.counit_token, augmentation(tok), ring)


# --- strict functoriality -----------------------------------------------------


def test_induced_identity():
    C, O, t, H, y, x = _sphere_setup(3)
    ident = identity_map(ZZ)
    f = induced_map(ident, ident, t, t, check_degree=6)
    for n in range(6):
        for tok in H.complex.basis.basis(n):
            assert f(tok) == el(tok)


def test_induced_rejects_incompatible():
    C, O, t, H, y, x = _sphere_setup(3)
    double = LinearMap(ZZ, 0, lambda tok: el(tok, 2))
    with pytest.raises(CompatibilityError):
        induced_map(double, identity_map(ZZ), t, t, check_degree=6)
    # without check_degree: C_0 holds, and the first read of C_3 raises at y
    lazy = induced_map(double, identity_map(ZZ), t, t)
    assert lazy(pair(C.counit_token, xk(x, 2))) == el(pair(C.counit_token, xk(x, 2)), 2)
    with pytest.raises(CompatibilityError) as raised:
        lazy(pair(y, xk(x, 1)))
    assert raised.value.token == y


def test_cohoch_to_hoch_is_a_chain_map():
    C, O, t, H, y, x = _sphere_setup(3, max_degree=12)
    B = bar_construction(O, max_degree=11)
    HA = hochschild_of_algebra(O, bar=B, max_degree=10)
    phi = cohoch_to_hoch(t)
    assert verify_chain_map(phi, H.complex, HA.complex, 8) is None


# --- extended functoriality ---------------------------------------------------


def test_sh_map_strict_case_agrees():
    C, O, t, H, y, x = _sphere_setup(3)

    def f_fn(tok):
        return el(tok, 3) if tok.degree > 0 else el(tok)

    f = LinearMap(ZZ, 0, f_fn, "f")
    g = cobar_map(f)
    strict = induced_map(f, g, t, t, check_degree=6)
    extended = sh_map(cobar_map(f), g, t, t, check_degree=6)
    for n in range(7):
        for tok in H.complex.basis.basis(n):
            assert strict(tok) == extended(tok)


def test_cohoch_retraction_retracts():
    C, O, t, H, y, x = _sphere_setup(3, max_degree=12)
    rho = cohoch_retraction(C, cobar=O)
    eta = bar_cobar_unit(C, O)
    for n in range(8):
        for tok in H.complex.basis.basis(n):
            c, a = tok.data
            lifted = Element(ZZ, [(tensor_token(u, a), cu) for u, cu in eta(c).items()])
            assert rho(lifted) == el(tok), tok


def _sh_map_reference(phi, g, tprime, tok, signs):
    """sh_map(phi, g, t, t')(tok) from its definition, through public pieces
    only: for each term kappa l_1|...|l_k of phi(s^{-1}c) and each kept
    letter l_j, s(l_j) (x) t'(s l_{j+1}) ... t'(s l_k) . g(a) . t'(s l_1)
    ... t'(s l_{j-1}), the product by multiply_all over the per-letter
    images, signed by the koszul_sign of the cyclic order; counit (x) g(a)
    for |c| = 0.  Adds the rotation sign of each nonzero product to signs."""
    ring, A2 = tprime.ring, tprime.target
    c, a = tok.data
    ga = g(el(a, ring=ring))
    if c.degree == 0:
        return Element(ring, [(pair(tprime.source.counit_token, v), cv) for v, cv in ga.items()])
    pairs = []
    for wtok, kappa in phi(word_token((desuspend(c),))).items():
        letters = wtok.data
        images = [tprime.map(suspend(l)) for l in letters]
        k = len(letters)
        for j in range(k):
            order = list(range(j, k + 1)) + list(range(j))
            sign = koszul_sign([l.degree for l in letters] + [a.degree], order)
            product = A2.multiply_all(images[j + 1:] + [ga] + images[:j])
            if not product.is_zero():
                signs.add(sign)
            pairs += [(pair(suspend(letters[j]), v), kappa * sign * cv)
                      for v, cv in product.items()]
    return Element(ring, pairs)


@pytest.mark.parametrize("n, top", [(2, 8), (3, 10)])
def test_sh_map_matches_its_definition(n, top):
    # S^2's cobar letter has odd degree, so only S^2 meets a rotation sign of -1
    C, O, t, H, y, x = _sphere_setup(n, max_degree=top + 3)
    B = bar_construction(O, max_degree=top + 2)
    tokens = hochschild_of_algebra(O, bar=B, max_degree=top).complex.basis.through(top)
    rho = cohoch_retraction(C, cobar=O)
    eps = cobar_bar_counit(O, B)
    signs = set()
    for tok in tokens:
        assert rho(tok) == _sh_map_reference(eps, identity_map(ZZ), t, tok, signs), tok
    assert (-1 in signs) == (n == 2)


@pytest.mark.parametrize("n", [2, 3])
def test_cohoch_retraction_is_a_chain_map(n):
    # S^2's cobar letter has odd degree, so only it sees the rotation sign
    C, O, t, H, y, x = _sphere_setup(n, max_degree=12)
    B = bar_construction(O, max_degree=11)
    HO = hochschild_of_algebra(O, bar=B, max_degree=9)
    rho = cohoch_retraction(C, cobar=O)
    assert verify_chain_map(rho, HO.complex, H.complex, 8) is None


def test_sh_map_dual_strict_case_agrees():
    A = small_commutative()
    B = bar_construction(A, max_degree=9)
    t = couniversal_twisting(A, B)

    def g_fn(tok):
        return el(tok, 2) if tok != A.unit else el(tok)

    g = LinearMap(ZZ, 0, g_fn, "g")
    gamma = bar_map(g, A)
    strict = induced_map(gamma, g, t, t, check_degree=6)
    extended = sh_map_dual(gamma, bar_map(g, A), t, t)
    HA = hochschild_of_algebra(A, bar=B, max_degree=8)
    for n in range(7):
        for tok in HA.complex.basis.basis(n):
            assert strict(tok) == extended(tok), tok


def test_hoch_section_is_a_section():
    A = small_commutative()
    B = bar_construction(A, max_degree=9)
    sigma = hoch_section(A, bar=B)
    HA = hochschild_of_algebra(A, bar=B, max_degree=8)
    eps = cobar_bar_counit(A, B)
    for n in range(8):
        for tok in HA.complex.basis.basis(n):
            img = sigma(tok)
            back = Element(ZZ, [(tensor_token(ttok.data[0], a), c * ca)
                                for ttok, c in img.items() for a, ca in eps(ttok.data[1]).items()])
            assert back == el(tok), tok


def test_hoch_section_is_a_chain_map():
    A = small_commutative()
    B = bar_construction(A, max_degree=10)
    sigma = hoch_section(A, bar=B)
    HA = hochschild_of_algebra(A, bar=B, max_degree=9)
    OB = cobar_construction(B)
    HB = cohochschild_complex(B, cobar=OB, max_degree=8)
    assert verify_chain_map(sigma, HA.complex, HB.complex, 7) is None


def _sh_map_dual_reference(f, gamma, t, unit2, tok):
    """sh_map_dual(f, gamma, t, t')(tok) from its definition, through public
    pieces only: for each k = 1..|c| + 1, each term of Delta^(k)(c) and
    each kept piece p_i, f(p_i) (x) the desuspended one-letter part of
    gamma(s t(p_{i+1}) | ... | s t(p_k) | s a | s t(p_1) | ... | s t(p_{i-1})),
    signed by (-1)^(|c| + |p_i|) and the koszul_sign of the cyclic order;
    plus f(c) (x) unit2 for a the unit of A."""
    ring, A = t.ring, t.target
    c, a = tok.data
    pairs = []
    if a is A.unit:
        pairs += [(pair(u, unit2), cu) for u, cu in f(c).items()]
    for k in range(1, c.degree + 2):
        for tens, kappa in t.source.comult_iterated(c, k).items():
            pieces = tens.data
            images = [t.map(p) for p in pieces]
            degrees = [p.degree for p in pieces] + [a.degree + 1]
            for i, p in enumerate(pieces):
                order = list(range(i, k + 1)) + list(range(i))
                sign = kappa * parity_sign(c.degree + p.degree) * koszul_sign(degrees, order)
                tail = images[i + 1:] + [el(a, ring=ring)] + images[:i]
                image = bar_word(ring, tail, A.unit).apply(gamma)
                pairs += [(pair(u, desuspend(w.data[0])), sign * cu * cw)
                          for u, cu in f(p).items() for w, cw in image.items() if len(w.data) == 1]
    return Element(ring, pairs)


def _strict_dual_case(top):
    A = exterior_two()
    B = bar_construction(A, max_degree=top + 2)
    t = couniversal_twisting(A, B)
    g = bar_map(LinearMap(ZZ, 0, lambda tok: el(tok, 1 if tok is A.unit else 2), "g"), A)
    tokens = hochschild_of_algebra(A, bar=B, max_degree=top).complex.basis.through(top)
    return sh_map_dual(g, g, t, t), lambda tok: _sh_map_dual_reference(g, g, t, A.unit, tok), tokens


def _section_case(top):
    A = small_commutative(F3)
    B = bar_construction(A, max_degree=top + 2)
    t = couniversal_twisting(A, B)
    OB = cobar_construction(B)
    eta = bar_cobar_unit(B, OB)
    tokens = hochschild_of_algebra(A, bar=B, max_degree=top).complex.basis.through(top)
    return hoch_section(A, bar=B), \
        lambda tok: _sh_map_dual_reference(identity_map(F3), eta, t, OB.unit, tok), tokens


def _multiplication_case(top):
    A = small_commutative(F2)
    Hopf, B, nu = bar_shuffle_hopf(A, max_degree=top + 2)
    t = couniversal_twisting(A, B)
    mu = LinearMap(F2, 0, lambda tok: Hopf.mult(*tok.data), "mu")
    swap = monoidal_iso(t, t)
    tt = cartesian_product(t, t)
    basis = hochschild_of_algebra(A, bar=B, max_degree=top).complex.basis
    tokens = [pair(u, v) for u in basis.through(top) for v in basis.through(top - u.degree)]
    return hochschild_multiplication(t, nu, Hopf), lambda tok: swap(tok).apply(
        lambda s: _sh_map_dual_reference(mu, nu, tt, A.unit, s)), tokens


# case -> (build(top) giving the map, its reference and the tokens compared;
# top).  Only gamma = eta reads a word with letters on both sides of s a, and
# on E(x)P'(y) the first such word whose two sides differ has degree 6.
SH_MAP_DUAL_CASES = {
    "strict-exterior-two-Z": (_strict_dual_case, 5),
    "section-small-commutative-F3": (_section_case, 6),
    "multiplication-small-commutative-F2": (_multiplication_case, 5),
}


@pytest.mark.parametrize("case", sorted(SH_MAP_DUAL_CASES))
def test_sh_map_dual_matches_its_definition(case):
    build, top = SH_MAP_DUAL_CASES[case]
    mapping, reference, tokens = build(top)
    nonzero = 0
    for tok in tokens:
        image = mapping(tok)
        assert image == reference(tok), tok
        nonzero += not image.is_zero()
    assert nonzero


# --- monoidal structure -------------------------------------------------------


def test_monoidal_signs_and_inverse():
    C, Cp = sphere_coalgebra(2), sphere_coalgebra(3)
    t = universal_twisting(C)
    tp = universal_twisting(Cp)
    swap = monoidal_iso(t, tp)
    y2 = C.complex.basis.basis(2)[0]
    y3 = Cp.complex.basis.basis(3)[0]
    x2, x3 = desuspend(y2), desuspend(y3)
    tok = tensor_token(tensor_token(y2, y3), tensor_token(xk(x2, 1), xk(x3, 1)))
    img = swap(tok)
    ((itok, coeff),) = list(img.items())
    assert coeff == -1  # (-1)^(|y3|*|x2-word|) = (-1)^(3*1)
    assert swap(img) == el(tok)  # the swap is its own inverse


def test_monoidal_is_a_chain_map():
    C, Cp = sphere_coalgebra(2, max_degree=10), sphere_coalgebra(3, max_degree=10)
    t = universal_twisting(C)
    tp = universal_twisting(Cp)
    tt = cartesian_product(t, tp)
    Htt = hochschild_general(tt, max_degree=8)
    Ht = hochschild_general(t, max_degree=8)
    Htp = hochschild_general(tp, max_degree=8)
    swap = monoidal_iso(t, tp)
    # target: H(t) (x) H(t') with the tensor differential
    from loopchain.chains import add_maps, tensor_map
    dT = add_maps(tensor_map(Ht.complex.d, identity_map(ZZ)),
                  tensor_map(identity_map(ZZ), Htp.complex.d))
    for n in range(7):
        for tok in Htt.complex.basis.basis(n):
            assert dT(swap(tok)) == swap(Htt.complex.d(tok)), tok


# --- comultiplication and multiplication -------------------------------------


def test_comultiplication_strict_cocommutative():
    C, O, t, H, y, x = _sphere_setup(3, max_degree=12)

    def delta_fn(tok):
        return C.comult(tok)

    omega = cobar_map(LinearMap(ZZ, 0, delta_fn, "Delta"))
    hirsch = hirsch_primitive(C)
    Hopf = hirsch.loop_hopf()
    dhat = hochschild_comultiplication(t, omega, Hopf, check_degree=6)
    ring = ZZ
    # counit compatibility: (eps (x) Id) delta-hat = Id
    for n in range(8):
        for tok in H.complex.basis.basis(n):
            img = dhat(tok)
            left_counit = Element(ring, [(v, c) for ttok, c in img.items()
                                         for u, v in [ttok.data] for cu, au in [u.data]
                                         if cu.degree == 0 and au == word_token(())])
            assert left_counit == el(tok), tok


def test_comultiplication_is_a_chain_map():
    C, O, t, H, y, x = _sphere_setup(3, max_degree=12)
    omega = cobar_map(LinearMap(ZZ, 0, lambda tok: C.comult(tok), "Delta"))
    hirsch = hirsch_primitive(C)
    dhat = hochschild_comultiplication(t, omega, hirsch.loop_hopf())
    from loopchain.chains import add_maps, tensor_map
    dT = add_maps(tensor_map(H.complex.d, identity_map(ZZ)),
                  tensor_map(identity_map(ZZ), H.complex.d))
    for n in range(8):
        for tok in H.complex.basis.basis(n):
            assert dT(dhat(tok)) == dhat(H.complex.d(tok)), tok


def test_comultiplication_hypothesis_failure_is_reported():
    # omega = Cobar(2 Delta) breaks (alpha (x) alpha) q omega = delta alpha at y
    C, O, t, H, y, x = _sphere_setup(3, max_degree=12)

    def twice(tok):
        return C.comult(tok) if tok.degree == 0 else Element(
            ZZ, [(u, 2 * c) for u, c in C.comult(tok).items()])

    omega = cobar_map(LinearMap(ZZ, 0, twice, "2 Delta"))
    Hopf = hirsch_primitive(C).loop_hopf()
    with pytest.raises(CompatibilityError) as raised:
        hochschild_comultiplication(t, omega, Hopf, check_degree=6)
    assert raised.value.token == y
    dhat = hochschild_comultiplication(t, omega, Hopf)
    dhat(pair(C.counit_token, xk(x, 1)))
    with pytest.raises(CompatibilityError) as raised:
        dhat(pair(y, xk(x, 1)))
    assert raised.value.token == y


def test_multiplication_on_commutative_fixture():
    A = small_commutative()
    Hopf, barA, nu = bar_shuffle_hopf(A, max_degree=9)
    t = couniversal_twisting(A, barA)
    mu_hat = hochschild_multiplication(t, nu, Hopf, check_degree=5)
    HA = hochschild_of_algebra(A, bar=barA, max_degree=8)
    one = tensor_token(word_token(()), A.unit)
    # 1 (x) 1 is a two-sided unit
    for n in range(6):
        for tok in HA.complex.basis.basis(n):
            assert mu_hat(tensor_token(one, tok)) == el(tok), tok
            assert mu_hat(tensor_token(tok, one)) == el(tok), tok


def test_multiplication_is_a_chain_map():
    A = small_commutative()
    Hopf, barA, nu = bar_shuffle_hopf(A, max_degree=9)
    t = couniversal_twisting(A, barA)
    mu_hat = hochschild_multiplication(t, nu, Hopf)
    HA = hochschild_of_algebra(A, bar=barA, max_degree=8)
    from loopchain.chains import add_maps, tensor_map
    dT = add_maps(tensor_map(HA.complex.d, identity_map(ZZ)),
                  tensor_map(identity_map(ZZ), HA.complex.d))
    toks = []
    for n in range(6):
        for i in range(n + 1):
            for u in HA.complex.basis.basis(i):
                for v in HA.complex.basis.basis(n - i):
                    toks.append(tensor_token(u, v))
    for tok in toks:
        assert mu_hat(dT(tok)) == HA.complex.d(mu_hat(tok)), tok


# --- power maps ---------------------------------------------------------------


def test_power_concatenation_reduces_to_iterated_product_when_primitive():
    C, O, t, H, y, x = _sphere_setup(3, max_degree=12)
    hirsch = hirsch_primitive(C)
    Hopf = hirsch.loop_hopf()
    mu2 = power_concatenation(t, hirsch, Hopf, 2, check_degree=5)
    for k in range(0, 3):
        for m in range(0, 3):
            tok = tensor_token(y, tensor_token(xk(x, k), xk(x, m)))
            assert mu2(tok) == el(pair(y, xk(x, k + m)))
            tok0 = tensor_token(C.counit_token, tensor_token(xk(x, k), xk(x, m)))
            assert mu2(tok0) == el(pair(C.counit_token, xk(x, k + m)))


def test_power_map_r1_is_identity():
    C, hirsch = nonreal_aw_hirsch()
    t = universal_twisting(C, hirsch.cobar)
    lam1 = power_map(t, hirsch, hirsch.loop_hopf(), 1, check_degree=5)
    H = cohochschild_complex(C, cobar=hirsch.cobar, max_degree=9)
    for n in range(9):
        for tok in H.complex.basis.basis(n):
            assert lam1(tok) == el(tok)


def test_power_map_sphere_eigenvalues():
    C, O, t, H, y, x = _sphere_setup(3, max_degree=14)
    hirsch = hirsch_primitive(C)
    Hopf = hirsch.loop_hopf()
    for r in (2, 3):
        lam = power_map(t, hirsch, Hopf, r, check_degree=5)
        for k in range(0, 5):
            assert lam(pair(y, xk(x, k))) == el(pair(y, xk(x, k)), r ** k)
            assert lam(pair(C.counit_token, xk(x, k))) == \
                el(pair(C.counit_token, xk(x, k)), r ** k)


def test_power_concatenation_is_a_chain_map_on_nonreal_aw():
    C, hirsch = nonreal_aw_hirsch()
    t = universal_twisting(C, hirsch.cobar)
    Hopf = hirsch.loop_hopf()
    tr, Hr = power_domain(t, Hopf, 2, max_degree=9)
    Hdom = hochschild_general(tr, max_degree=9)
    Hcod = cohochschild_complex(C, cobar=hirsch.cobar, max_degree=9)
    mu2 = power_concatenation(t, hirsch, Hopf, 2, check_degree=6)
    assert verify_chain_map(mu2, Hdom.complex, Hcod.complex, 8) is None


def test_power_map_is_a_chain_map_on_nonreal_aw():
    C, hirsch = nonreal_aw_hirsch()
    t = universal_twisting(C, hirsch.cobar)
    lam2 = power_map(t, hirsch, hirsch.loop_hopf(), 2, check_degree=6)
    H = cohochschild_complex(C, cobar=hirsch.cobar, max_degree=9)
    assert verify_chain_map(lam2, H.complex, H.complex, 8) is None


@pytest.mark.parametrize("r", [2, 3])
def test_power_map_koszul_sign_on_nonreal_aw(r):
    # through degree 10 mu-tilde_r meets its first Koszul sign of -1 (at
    # z (x) [s'(y')]); a chain-map check through degree 8 does not reach it
    C, hirsch = nonreal_aw_hirsch()
    t = universal_twisting(C, hirsch.cobar)
    lam = power_map(t, hirsch, hirsch.loop_hopf(), r)
    H = cohochschild_complex(C, cobar=hirsch.cobar, max_degree=11)
    assert verify_chain_map(lam, H.complex, H.complex, 10) is None


def _rotation_hirsch(ring=ZZ, max_degree=8):
    """Primitive x, y (degree 2), w (3), z (5), d = 0, and
    psi(s^-1 z) = s^-1 z (x) 1 + 1 (x) s^-1 z + [s^-1 x|s^-1 y] (x) s^-1 w
                  + s^-1 w (x) [s^-1 x|s^-1 y],
    so that mu-tilde_r keeps s^-1 y of a two-letter u_1 with s^-1 x before it."""
    degrees = {"x": 2, "y": 2, "w": 3, "z": 5}
    C = dg_fixture_from_dict({"kind": "coalgebra", "ring": repr(ring), "max_degree": max_degree,
                              "generators": [{"name": name, "degree": d}
                                             for name, d in degrees.items()]})
    sx, sy, sw, sz = (desuspend(generator(name, d)) for name, d in degrees.items())
    empty = word_token(())
    img = Element(ring, [(tensor_token(word_token((sz,)), empty), 1),
                         (tensor_token(empty, word_token((sz,))), 1),
                         (tensor_token(word_token((sx, sy)), word_token((sw,))), 1),
                         (tensor_token(word_token((sw,)), word_token((sx, sy))), 1)])
    return C, hirsch_primitive(C, overrides={sz: img})


def test_power_concatenation_rotation_sign():
    # Keeping y rotates s^-1 x past s^-1 y s^-1 w: (-1)^(1 * 3) = -1
    C, hirsch = _rotation_hirsch()
    x, y, w, z = (generator(name, d) for name, d in [("x", 2), ("y", 2), ("w", 3), ("z", 5)])
    sx, sy, sw = (desuspend(c) for c in (x, y, w))
    empty = word_token(())
    t = universal_twisting(C, hirsch.cobar)
    mu2 = power_concatenation(t, hirsch, hirsch.loop_hopf(), 2, check_degree=5)
    assert mu2(pair(z, tensor_token(empty, empty))) == Element(ZZ, [
        (pair(x, word_token((sy, sw))), 1), (pair(y, word_token((sw, sx))), -1),
        (pair(w, word_token((sx, sy))), 1), (pair(z, empty), 1)])


def _concatenation_reference(alpha, hirsch, H, r, tok, signs):
    """mu-tilde_r(tok) from its definition, through public pieces only: the
    interleave sign is the koszul_sign of reordering u_2 ... u_r w_1 ... w_r
    into w_1 u_2 w_2 ... u_r w_r, each rotation's sign the koszul_sign of its
    cyclic order, alpha is algebra_realization(t), and the products are
    multiply_all over Elements of the per-letter images.  Adds
    ("interleave", sign) and ("rotation", sign) of each nonzero product to
    signs."""
    ring = H.ring
    c, wbar = tok.data
    ws = [el(w, ring=ring) for w in wbar.data]
    if c.degree == 0:
        return Element(ring, [(pair(c, v), cv) for v, cv in H.multiply_all(ws).items()])
    interleave = [r - 1] + [q for i in range(r - 1) for q in (i, r + i)]
    pairs = []
    for tens, kappa in hirsch.comult_iterated(word_token((desuspend(c),)), r).items():
        letters, us = tens.data[0].data, tens.data[1:]
        middle = ws[:1]
        for u, w in zip(us, ws[1:]):
            middle += [alpha(u), w]
        degrees = [u.degree for u in us] + [w.degree for w in wbar.data]
        interleave_sign = koszul_sign(degrees, interleave)
        images = [alpha(word_token((l,))) for l in letters]
        k = len(letters)
        for j in range(k):
            order = list(range(j, k + 1)) + list(range(j))
            sign = koszul_sign([l.degree for l in letters] + [sum(degrees)], order)
            product = H.multiply_all(images[j + 1:] + middle + images[:j])
            if not product.is_zero():
                signs.update([("interleave", interleave_sign), ("rotation", sign)])
            pairs += [(pair(suspend(letters[j]), v), kappa * interleave_sign * sign * cv)
                      for v, cv in product.items()]
    return Element(ring, pairs)


def _cohoch_case(build, ring, top):
    C, hirsch = build(ring, max_degree=top + 2)
    hoch = cohochschild_complex(C, cobar=hirsch.cobar, max_degree=top)
    return universal_twisting(C, hirsch.cobar), hirsch, hirsch, hoch


def _s3_case(top):
    H = group_ring_hopf(BUILTIN_GROUPS["s3"])
    bh = BarHopfStructure(H, 5)
    hoch = hochschild_of_algebra(H.algebra, bar=bh.barH, max_degree=top)
    return couniversal_twisting(H.algebra, bh.barH), bh.hirsch(), H, hoch


# case -> (build(top) giving t, hirsch, H and H(t); the top total degree of
# the tokens compared, for each r; the top degree of their C-factor, or None
# for no bound).  Only rotation-Z keeps a letter of u_1 with an odd x before
# it and an even D, so only it meets a rotation sign of -1.  rp_hirsch models
# Sigma RP^infinity over F2 only: over Z, delta t(y_2) = psi(z_2) is not symmetric
# (z_1 (x) z_1 twists to its negative), so C-degree 2 is the last one read.
CONCATENATION_CASES = {
    "nonreal-aw-Z": (lambda top: _cohoch_case(nonreal_aw_hirsch, ZZ, top), {2: 10, 3: 10}, None),
    "rotation-Z": (lambda top: _cohoch_case(_rotation_hirsch, ZZ, top), {2: 6, 3: 5}, None),
    "rp-F2": (lambda top: _cohoch_case(rp_hirsch, F2, top), {2: 7, 3: 6}, None),
    "rp-Z": (lambda top: _cohoch_case(rp_hirsch, ZZ, top), {2: 7, 3: 6}, 2),
    "s3-Z": (_s3_case, {2: 2, 3: 1}, None),
}


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("case", sorted(CONCATENATION_CASES))
def test_power_concatenation_matches_its_definition(case, r):
    build, tops, c_top = CONCATENATION_CASES[case]
    top = tops[r]
    t, hirsch, H, hoch = build(top)
    ring = t.ring
    tr, _ = power_domain(t, H, r, max_degree=top)
    domain = hochschild_general(tr, max_degree=top).complex.basis
    mu = power_concatenation(t, hirsch, H, r)
    lam = power_map(t, hirsch, H, r)
    alpha = algebra_realization(t)
    signs = set()
    for n in range(top + 1):
        for tok in domain.basis(n):
            if c_top is None or tok.data[0].degree <= c_top:
                assert mu(tok) == _concatenation_reference(alpha, hirsch, H, r, tok, signs), tok
        for tok in hoch.complex.basis.basis(n):
            c, w = tok.data
            if c_top is None or c.degree <= c_top:
                lifted = Element(ring, [(pair(c, u), cu)
                                        for u, cu in H.comult_iterated(w, r).items()])
                assert lam(tok) == mu(lifted), tok
    if case == "nonreal-aw-Z":
        assert ("interleave", -1) in signs  # through degree 10 the interleave sign is reached
    if case == "rotation-Z":
        assert ("rotation", -1) in signs  # at z, keeping s^-1 y of [s^-1 x|s^-1 y]
    if c_top is not None:
        y = next(tok for tok in domain.basis(c_top + 1) if tok.data[0].degree == c_top + 1)
        with pytest.raises(CompatibilityError):
            mu(y)


def _rp_power_oracle(l, ks, r):
    """Brute-force composition-sum formula for the RP model over F2."""
    out = {}
    m = len(ks)

    def comps(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(0, total + 1):
            for rest in comps(total - first, parts - 1):
                yield (first,) + rest

    for ls in comps(l, r):
        if ls[0] == 0:
            continue  # y_0 vanishes in the suspension
        k_splits = [list(comps(k, r)) for k in ks]
        for choice in itertools.product(*k_splits):
            letters = []
            for j in range(r):
                for i in range(m):
                    if choice[i][j]:
                        letters.append(choice[i][j])
                if j + 1 < r and ls[j + 1]:
                    letters.append(ls[j + 1])
            key = (ls[0], tuple(letters))
            out[key] = (out.get(key, 0) + 1) % 2
    return {k: v for k, v in out.items() if v}


def test_rp_power_map_matches_composition_oracle():
    C, hirsch = rp_hirsch(max_degree=8)
    t = universal_twisting(C, hirsch.cobar)
    lam2 = power_map(t, hirsch, hirsch.loop_hopf(), 2, check_degree=5)

    def z(k):
        return desuspend(generator(("y", k), k + 1))

    for l, ks in [(1, ()), (2, ()), (1, (1,)), (2, (1,)), (1, (1, 1)), (3, (1,)), (1, (2,))]:
        y_l = generator(("y", l), l + 1)
        word = word_token(tuple(z(k) for k in ks))
        tok = pair(y_l, word)
        if y_l.degree + word.degree > 7:
            continue
        img = lam2(tok)
        expected = Element(F2, [
            (pair(generator(("y", l1), l1 + 1), word_token(tuple(z(k) for k in letters))), coeff)
            for (l1, letters), coeff in _rp_power_oracle(l, ks, 2).items()])
        assert img == expected, (l, ks)


def test_rp_power_map_is_a_chain_map():
    C, hirsch = rp_hirsch(max_degree=7)
    t = universal_twisting(C, hirsch.cobar)
    lam2 = power_map(t, hirsch, hirsch.loop_hopf(), 2, check_degree=4)
    H = cohochschild_complex(C, cobar=hirsch.cobar, max_degree=6)
    assert verify_chain_map(lam2, H.complex, H.complex, 6) is None


def test_power_map_restrictions():
    # fiber restriction equals the convolution power; base projection is Id
    from loopchain.dg import convolution_power
    C, hirsch = nonreal_aw_hirsch()
    t = universal_twisting(C, hirsch.cobar)
    Hopf = hirsch.loop_hopf()
    lam2 = power_map(t, hirsch, Hopf, 2, check_degree=5)
    conv2 = convolution_power(Hopf, 2)
    H = cohochschild_complex(C, cobar=hirsch.cobar, max_degree=8)
    one = C.counit_token
    for n in range(7):
        for w in hirsch.cobar.complex.basis.basis(n):
            img = lam2(pair(one, w))
            expected = Element(ZZ, [(pair(one, u), cu) for u, cu in conv2(w).items()])
            assert img == expected, w
    # projection to the base: sum over fiber-degree-0 components is identity
    for n in range(7):
        for tok in H.complex.basis.basis(n):
            c, w = tok.data
            img = lam2(tok)
            proj = Element(ZZ, [(u.data[0], cu) for u, cu in img.items()
                                if u.data[1] == word_token(())])
            expected = el(c) if w == word_token(()) else Element(ZZ)
            assert proj == expected, tok


def _broken_nonreal_aw():
    """The five-generator coalgebra with psi(s^{-1}z) missing the symmetric
    partner of its (y', y) term, which breaks cocommutativity at z."""
    C = nonreal_aw_coalgebra()
    O = cobar_construction(C)
    toks = {t.data: t for n in range(8) for t in C.complex.basis.basis(n)}
    z, y, yp = toks["z"], toks["y"], toks["y'"]
    img = Element(ZZ, [
        (tensor_token(word_token((desuspend(z),)), word_token(())), 1),
        (tensor_token(word_token(()), word_token((desuspend(z),))), 1),
        (tensor_token(word_token((desuspend(yp),)), word_token((desuspend(y),))), 1)])
    bad = hirsch_primitive(C, overrides={desuspend(z): img})
    return C, z, bad, universal_twisting(C, O)


def test_power_hypothesis_failure_is_reported():
    C, z, bad, t = _broken_nonreal_aw()
    with pytest.raises(CompatibilityError):
        power_map(t, bad, bad.loop_hopf(), 2, check_degree=7)
    # z has degree 7: check_degree=6 builds, and so does no check_degree; both
    # read C_0..C_6 and raise at z on the first read of a degree-7 token
    for check_degree in (6, None):
        lam2 = power_map(t, bad, bad.loop_hopf(), 2, check_degree=check_degree)
        for n in range(7):
            for c in C.complex.basis.basis(n):
                lam2(pair(c, word_token(())))
        with pytest.raises(CompatibilityError) as raised:
            lam2(pair(z, word_token(())))
        assert raised.value.token == z


def test_warm_psi_cache_skips_no_check():
    # psi is cached on the Hirsch structure, shared by every power map on it;
    # each new map must still check z before it reads it
    C, z, bad, t = _broken_nonreal_aw()
    lam2 = power_map(t, bad, bad.loop_hopf(), 2, check_degree=6)
    for n in range(7):
        for c in C.complex.basis.basis(n):
            lam2(pair(c, word_token(())))
    for r in (2, 3):
        bad.comult_iterated(word_token((desuspend(z),)), r)  # psi of s^{-1}z is now cached
        with pytest.raises(CompatibilityError) as raised:
            power_map(t, bad, bad.loop_hopf(), r, check_degree=7)
        assert raised.value.token is z
        lam = power_map(t, bad, bad.loop_hopf(), r)
        with pytest.raises(CompatibilityError) as raised:
            lam(pair(z, word_token(())))
        assert raised.value.token is z


def test_power_map_rejects_a_psi_alpha_t_does_not_preserve():
    # alpha_t does not carry the primitive psi on Cobar Bar Z[S3] to delta:
    # delta[g] = [g] (x) 1 + 1 (x) [g] + [g] (x) [g] for [g] = g - e
    H = group_ring_hopf(BUILTIN_GROUPS["s3"])
    bh = BarHopfStructure(H, 3)
    t = couniversal_twisting(H.algebra, bh.barH)
    with pytest.raises(CompatibilityError, match="alpha_t is not a coalgebra map") as raised:
        power_map(t, hirsch_primitive(bh.barH), H, 2, check_degree=1)
    assert raised.value.token.degree == 1


# An extra term (left word, right word) of psi(s^{-1}[b|a]) on Cobar Bar E(a,b),
# in the letters a = s^{-1}[a], b = s^{-1}[b] and aa = s^{-1}[a|a], and whether
# alpha_t (x) alpha_t keeps it: alpha_t kills a|a as a^2 = 0, and aa as t
# vanishes on [a|a]
EXTRA_PSI_TERMS = {
    "killed-left": (("a", "a"), ("b",), False),
    "killed-right": (("b",), ("a", "a"), False),
    "killed-off-support": (("aa",), (), False),
    "kept-left": (("a", "b"), ("b",), True),
    "kept-right": (("b",), ("a", "b"), True),
}


@pytest.mark.parametrize("name", sorted(EXTRA_PSI_TERMS))
def test_power_check_skips_exactly_the_terms_alpha_t_kills(name):
    # a wrong extra term of psi is accepted iff alpha_t (x) alpha_t of it is zero,
    # and a kept one is reported at the token whose psi carries it
    left, right, kept = EXTRA_PSI_TERMS[name]
    H = hopf_fixtures()["exterior-two"]
    bh = BarHopfStructure(H, 4)
    t = couniversal_twisting(H.algebra, bh.barH)
    alpha = algebra_realization(t)
    b_, a_ = bh.barH.complex.basis.basis(2)
    ba = word_token(b_.data + a_.data)
    letters = {"a": desuspend(a_), "b": desuspend(b_),
               "aa": desuspend(word_token(a_.data + a_.data))}
    extra = tensor_token(word_token(letters[x] for x in left),
                         word_token(letters[x] for x in right))
    assert extra.degree == ba.degree - 1
    assert tensor_map(alpha, alpha)(extra).is_zero() is not kept

    def gen(letter):
        return bh._gen(letter) + el(extra) if letter is desuspend(ba) else bh._gen(letter)

    bad = HirschCoalgebra(bh.barH, gen)
    if kept:
        with pytest.raises(CompatibilityError, match="alpha_t is not a coalgebra map") as raised:
            power_map(t, bad, H, 2, check_degree=4)
        assert raised.value.token is ba
        return
    power_map(t, bad, H, 2, check_degree=4)
    # mu-tilde_2 may drop only the terms with alpha_t(u_2) = 0: it keeps a letter
    # of u_1, so an alpha_t-killed u_1, as aa (x) 1, still adds s(aa) (x) w_1 w_2
    mu = power_concatenation(t, bad, H, 2)
    A = list(H.algebra.complex.basis.through(2))
    for w1, w2 in itertools.product(A, A):
        tok = pair(ba, tensor_token(w1, w2))
        assert mu(tok) == _concatenation_reference(alpha, bad, H, 2, tok, set()), tok


@pytest.mark.parametrize("r", [0, -1])
def test_power_maps_reject_nonpositive_r(r):
    C, hirsch = rp_hirsch()
    t = universal_twisting(C, hirsch.cobar)
    H = hirsch.loop_hopf()
    for build in (power_map, power_concatenation):
        with pytest.raises(ValueError, match="r >= 1"):
            build(t, hirsch, H, r)
    with pytest.raises(ValueError, match="r >= 1"):
        power_domain(t, H, r)


# --- the cached loop comultiplication psi --------------------------------------


def _psi_fold(hirsch, square, word):
    """psi(l_1|...|l_k) as the product of the generator images, folded
    letter by letter from the unit with nothing cached, in the generic
    tensor algebra square = Cobar C (x) Cobar C."""
    out = Element.from_token(hirsch.ring, square.unit)
    for letter in word.data:
        out = square.multiply(out, hirsch._gen(letter))
    return out


def _bar_s3_words(bh, top):
    """The words s^{-1}b_1|...|s^{-1}b_k of Cobar Bar Z[S3] with |b_1| + ... +
    |b_k| <= top.  Bar Z[S3] has C_1 != 0, so its cobar has degree-0 letters
    and is listed by this weight rather than by degree."""
    letters = {n: [desuspend(b) for b in bh.barH.complex.basis.basis(n)] for n in range(1, top + 1)}
    frontier = [((), 0)]
    out = []
    while frontier:
        frontier = [(w + (l,), weight + n) for w, weight in frontier
                    for n in range(1, top + 1 - weight) for l in letters[n]]
        out += [word_token(w) for w, _ in frontier]
    return out


def _words_through(hirsch, top):
    return [w for n in range(top + 1) for w in hirsch.cobar.complex.basis.basis(n)]


def test_alpha_t_is_the_product_of_every_letter_image():
    # alpha_t stops at the first letter that t kills; for the couniversal t of
    # Z[S3] that is every letter of two or more bar entries, so killed words
    # come with a kept letter on either side of the killed one
    H = group_ring_hopf(BUILTIN_GROUPS["s3"])
    bh = BarHopfStructure(H, 4)
    t = couniversal_twisting(H, bh.barH)
    alpha = algebra_realization(t)
    kinds = set()
    for w in _bar_s3_words(bh, 4):  # every word of cobar degree <= 3 and weight <= 4
        images = [t.map(suspend(letter)) for letter in w.data]
        assert alpha(w) == H.multiply_all(images), w
        kinds.add(tuple(x.is_zero() for x in images))
    assert {(False,), (True,), (False, False, False, False), (True, False), (False, True),
            (False, True, False)} <= kinds


def test_cached_psi_equals_the_letter_fold():
    # rp over Z and nonreal_aw_hirsch (a non-primitive top class over Z) show
    # the sign (-1)^{|b||a'|} of the closed-form product, which F2 hides
    bh = BarHopfStructure(group_ring_hopf(BUILTIN_GROUPS["s3"]), 5)
    cases = [(hirsch, _words_through(hirsch, 8)) for hirsch in (
        rp_hirsch(max_degree=10)[1], rp_hirsch(ZZ, max_degree=10)[1],
        hirsch_primitive(nonreal_aw_coalgebra()), nonreal_aw_hirsch()[1])]
    for hirsch, words in cases + [(bh.hirsch(), _bar_s3_words(bh, 3))]:
        assert len(words) > 30
        square = tensor_algebra(hirsch, hirsch)
        for w in words:
            assert hirsch.psi(w) == _psi_fold(hirsch, square, w), w
        assert hirsch.psi(words[-1]) is hirsch.comult(words[-1])


def test_psi_multiplies_no_tensor_algebra_and_concatenates_each_pair_once(monkeypatch):
    from loopchain import dg
    from loopchain.dg import DGAlgebra
    rp = rp_hirsch(ZZ, max_degree=10)[1]
    bh = BarHopfStructure(group_ring_hopf(BUILTIN_GROUPS["s3"]), 5)
    calls, filled = [], []
    multiply = DGAlgebra.multiply

    class Counted:
        """A products Table, with every read recorded in calls."""

        def __init__(self, products):
            self.products = products

        def __getitem__(self, pair):
            calls.append("product")
            return self.products[pair]

    def counted_tensor_algebra(*algebras, max_degree=None):
        square = tensor_algebra(*algebras, max_degree=max_degree)
        square.products = Counted(square.products)
        return square

    monkeypatch.setattr(DGAlgebra, "multiply",
                        lambda self, x, y: calls.append("multiply") or multiply(self, x, y))
    monkeypatch.setattr(dg, "tensor_algebra", counted_tensor_algebra)
    for hirsch, words in [(rp, _words_through(rp, 8)), (bh, _bar_s3_words(bh, 3))]:
        fill = hirsch._concat.fill
        hirsch._concat.fill = lambda pair: filled.append(pair) or fill(pair)
        for w in words:
            hirsch.psi(w)
        asked = {pair for w in words if len(w.data) > 1
                 for s, _ in hirsch.psi(word_token(w.data[:-1])).items()
                 for t, _ in hirsch.psi(word_token(w.data[-1:])).items()
                 for pair in zip(s.data, t.data)}
        assert calls == [], hirsch.name
        assert len(filled) == len(set(filled)) == len(hirsch._concat), hirsch.name
        assert set(hirsch._concat) == asked, hirsch.name
        filled.clear()


def test_psi_builds_each_word_once():
    C, rp = rp_hirsch(max_degree=8)
    built = []

    def gen(letter):
        built.append(letter)
        return rp._gen(letter)

    hirsch = HirschCoalgebra(C, gen)
    t = universal_twisting(C, hirsch.cobar)
    H = cohochschild_complex(C, cobar=hirsch.cobar, max_degree=6)
    passes = []
    for _ in range(2):
        lam2 = power_map(t, hirsch, hirsch.loop_hopf(), 2)
        passes.append(power_map_on_homology(H, lam2, range(6)))
        words = [w for w in hirsch._comult._cache if w.data]
        # each letter's generator image is built once, for the letters of the cached words
        assert len(built) == len(set(built))
        assert set(built) == {letter for w in words for letter in w.data}
    assert passes[0] == passes[1]
    # each word's image is built on the cached image of its prefix
    assert all(word_token(w.data[:-1]) in words for w in words if len(w.data) > 1)


def test_hirsch_coalgebra_is_its_loop_hopf_algebra():
    rp = rp_hirsch()[1]
    aw = nonreal_aw_hirsch()[1]
    bh = BarHopfStructure(group_ring_hopf(BUILTIN_GROUPS["s3"]), 4)
    for hirsch, words in [(rp, rp.cobar.complex.basis.basis(5)),
                          (aw, aw.cobar.complex.basis.basis(6)),
                          (bh, _bar_s3_words(bh, 2))]:
        assert isinstance(hirsch, HopfAlgebra)
        assert hirsch.loop_hopf() is hirsch and hirsch.cobar is hirsch
        assert words
        for w in words:
            # Delta^(2) is psi itself, read from its cache
            assert hirsch.comult_iterated(w, 2) is hirsch.psi(w)


def test_power_check_caches_no_alpha_tensor_images():
    # check_power_hypotheses reads alpha_t of each side of a term of psi(s^{-1}c)
    # from mu-tilde_r's Table of alpha_t's images of cobar words, and tensors the
    # two in place, never through a cached map: H's Delta is the only new cache
    # of A (x) A terms
    import gc
    H = group_ring_hopf(BUILTIN_GROUPS["s3"])
    bh = BarHopfStructure(H, 5)
    t = couniversal_twisting(H.algebra, bh.barH)
    A = set(H.algebra.complex.basis.basis(0))

    def holders():
        return [m for m in gc.get_objects() if isinstance(m, LinearMap) and
                any(u.kind == "tensor" and len(u.data) == 2 and all(a in A for a in u.data)
                    for img in m._cache.values() for u in img.terms)]

    before = holders()
    lam2 = power_map(t, bh, H, 2, check_degree=2)  # held, so its caches stay live
    assert [m for m in holders() if all(m is not b for b in before)] == [H._comult]


def test_power_naturality_under_coalgebra_scaling():
    # H(f, Cobar f) intertwines the power maps for a Hirsch morphism f
    C, O, t, H, y, x = _sphere_setup(3, max_degree=12)
    hirsch = hirsch_primitive(C)
    Hopf = hirsch.loop_hopf()
    lam2 = power_map(t, hirsch, Hopf, 2, check_degree=4)

    def f_fn(tok):
        return el(tok, 2) if tok.degree > 0 else el(tok)

    f = LinearMap(ZZ, 0, f_fn, "f")
    hfg = induced_map(f, cobar_map(f), t, t, check_degree=5)
    for n in range(8):
        for tok in H.complex.basis.basis(n):
            assert hfg(lam2(tok)) == lam2(hfg(tok)), tok


# --- homology action ----------------------------------------------------------


def test_power_map_on_homology_sphere3():
    C, O, t, H, y, x = _sphere_setup(3, max_degree=14)
    hirsch = hirsch_primitive(C)
    lam2 = power_map(t, hirsch, hirsch.loop_hopf(), 2, check_degree=4)
    rows = power_map_on_homology(H, lam2, range(0, 9))
    by_degree = {r["degree"]: r for r in rows}
    # degree 0: identity
    assert by_degree[0]["matrix"] == [[1]]
    # degree 2k free class 1 (x) x^k: eigenvalue 2^k
    assert by_degree[2]["matrix"] == [[2]]
    assert by_degree[4]["matrix"] == [[4]]
    # degree 3+2k class y (x) x^k: eigenvalue 2^k
    assert by_degree[3]["matrix"] == [[1]]
    assert by_degree[5]["matrix"] == [[2]]
    assert by_degree[7]["matrix"] == [[4]]
    # degree 6 carries 1 (x) x^3: 2^3
    assert by_degree[6]["matrix"] == [[8]]


def test_power_map_on_homology_sphere2_matches_convolution_oracle():
    from loopchain.dg import convolution_power
    C, O, t, H, y, x = _sphere_setup(2, max_degree=12)
    hirsch = hirsch_primitive(C)
    Hopf = hirsch.loop_hopf()
    for r in (2, 3):
        lam = power_map(t, hirsch, Hopf, r, check_degree=4)
        conv = convolution_power(Hopf, r)
        rows = power_map_on_homology(H, lam, range(0, 7))
        by_degree = {row["degree"]: row for row in rows}
        for k in (1, 2):
            n = 2 * k
            row = by_degree[n]
            ((kind, idx, order),) = [g for g in row["generators"] if g[0] == "torsion"]
            # oracle eigenvalue of the convolution power on x^(2k)
            word = xk(x, 2 * k)
            ((tok, ev),) = list(conv(word).items())
            assert tok == word
            gi = row["generators"].index((kind, idx, order))
            assert row["matrix"][gi][gi] == ev % order, (r, k)


@pytest.mark.parametrize("make, top", [
    (lambda: _cohoch_of_rp(7)[0], 7),
    (lambda: cohochschild_complex(sphere_coalgebra(2, max_degree=8), max_degree=7), 6),
    (lambda: cohochschild_complex(sphere_coalgebra(2, ring=F3, max_degree=8), max_degree=7), 6),
], ids=["rp-f2", "sphere-2-z", "sphere-2-f3"])
def test_identity_acts_as_identity_on_homology(make, top):
    # representatives and coordinates of one HomologyBasis, tied together
    # through the caller that writes a chain map in them
    hoch = make()
    rows = power_map_on_homology(hoch, identity_map(hoch.ring), range(top + 1))
    assert any(row["generators"] for row in rows)
    for row in rows:
        k = len(row["generators"])
        assert row["matrix"] == [[int(i == j) for j in range(k)] for i in range(k)], row["degree"]


def test_power_map_on_homology_rejects_a_shifted_map():
    hoch = cohochschild_complex(sphere_coalgebra(2, max_degree=8), max_degree=7)
    shifted = LinearMap(hoch.ring, 1, lambda tok: Element(hoch.ring), "shifted")
    with pytest.raises(ValueError, match="expects shift 0, got [+]1"):
        power_map_on_homology(hoch, shifted, range(3))


def test_power_map_on_homology_names_an_image_outside_the_basis():
    # a map declared of shift 0 whose images sit in degree 2
    hoch = cohochschild_complex(sphere_coalgebra(2, max_degree=8), max_degree=7)
    stray = hoch.complex.basis.basis(2)[0]
    lam = LinearMap(hoch.ring, 0, lambda tok: el(stray), "stray")
    assert homology(hoch.complex, [0])[0].betti > 0
    with pytest.raises(ValueError) as err:
        power_map_on_homology(hoch, lam, range(1))
    assert str(err.value) == ("image token %r of degree 2 is not in the degree-0 basis"
                              % (stray,))


# --- power maps compose: lambda_r o lambda_s = lambda_rs on homology ----------


def _hoch_of_hopf(name, top):
    H = hopf_fixtures()[name]
    bh = BarHopfStructure(H, top + 1)
    hoch = hochschild_of_algebra(H.algebra, bar=bh.barH, max_degree=top + 1)
    return hoch, couniversal_twisting(H.algebra, bh.barH), bh.hirsch(), H


def _cohoch_of_hirsch(C, hirsch, top):
    hoch = cohochschild_complex(C, cobar=hirsch.cobar, max_degree=top + 1)
    return hoch, universal_twisting(C, hirsch.cobar), hirsch, hirsch.loop_hopf()


def _cohoch_of_sphere(n, top):
    C = sphere_coalgebra(n, max_degree=top + 2)
    return _cohoch_of_hirsch(C, hirsch_primitive(C), top)


def _cohoch_of_rp(top):
    return _cohoch_of_hirsch(*rp_hirsch(max_degree=top + 2), top)


def _cohoch_of_double_suspension(name, top):
    C = normalized_chains(double_suspension(get_space(name)), max_degree=top + 2)
    return _cohoch_of_hirsch(C, hirsch_primitive(C), top)


# name: (make, top), where make(top) gives the complex through HH_top, t, the
# Hirsch coalgebra and the Hopf algebra of the power maps
POWER_FIXTURES = {
    "group-c2": (partial(_hoch_of_hopf, "group-c2"), 2),
    "group-s3": (partial(_hoch_of_hopf, "group-s3"), 1),
    "free-even": (partial(_hoch_of_hopf, "free-even"), 6),
    "free-odd": (partial(_hoch_of_hopf, "free-odd"), 5),
    "exterior-two": (partial(_hoch_of_hopf, "exterior-two"), 3),
    "sphere-2": (partial(_cohoch_of_sphere, 2), 8),
    "sphere-3": (partial(_cohoch_of_sphere, 3), 8),
    "rp-f2": (_cohoch_of_rp, 5),
    "double-suspension-s1": (partial(_cohoch_of_double_suspension, "sphere:1"), 8),
    "double-suspension-s2": (partial(_cohoch_of_double_suspension, "sphere:2"), 8),
    "double-suspension-bc2": (partial(_cohoch_of_double_suspension, "nerve-z2"), 6),
}


@pytest.mark.parametrize("name,r,s", [(name, 2, 2) for name in POWER_FIXTURES] + [
    (name, 2, 3) for name in ("free-even", "free-odd", "exterior-two", "sphere-2", "sphere-3",
                              "double-suspension-s1", "double-suspension-s2",
                              "double-suspension-bc2")])
def test_power_maps_compose_on_homology(name, r, s):
    # omega^r o omega^s = omega^rs on LX, so the matrices satisfy M_r M_s = M_rs,
    # entry by entry modulo the order of each row's generator (p over F_p)
    make, top = POWER_FIXTURES[name]
    hoch, t, hirsch, H = make(top)
    rows = {k: power_map_on_homology(hoch, power_map(t, hirsch, H, k), range(top + 1))
            for k in {r, s, r * s}}
    p = hoch.ring.p or 0
    for row_r, row_s, row_rs in zip(rows[r], rows[s], rows[r * s]):
        moduli = [g[2] if g[0] == "torsion" else p for g in row_rs["generators"]]
        product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*row_s["matrix"])]
                   for row in row_r["matrix"]]
        for i, m in enumerate(moduli):
            for j, want in enumerate(row_rs["matrix"][i]):
                diff = product[i][j] - want
                assert (diff % m if m else diff) == 0, (row_rs["degree"], i, j)
