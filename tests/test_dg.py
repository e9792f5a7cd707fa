import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from loopchain.chains import (
    ZZ, F2, F3, Element, generator, suspend, desuspend, tensor_token, word_token,
    koszul_sign, operator_application_sign, parity_sign, sort_key, tensor_product,
    verify_chain_map, identity_map, tensor_map, tensor_maps, add_maps,
    ChainComplex, DegreeOverflowError, GradedBasis, InfiniteTypeError, zero_map,
)
from loopchain.dg import (
    DGCoalgebra, bar_construction, cobar_construction, bar_map, cobar_map,
    universal_twisting, couniversal_twisting, check_twisting,
    algebra_realization, coalgebra_realization,
    bar_cobar_unit, cobar_bar_counit, bar_cobar_retraction, cobar_bar_section,
    cartesian_product, cobar_tensor_splitting, tensor_algebra, tensor_coalgebra,
    convolution, convolution_power, hirsch_primitive, twist_tensor, _word_basis,
)
from loopchain.fixtures import (
    sphere_coalgebra, nonreal_aw_coalgebra, nonreal_aw_hirsch, rp_suspension_coalgebra,
    exterior_two, small_commutative, monomial_algebra, free_hopf_one,
    group_ring_hopf, hopf_fixtures, dg_fixture_from_dict, exterior_polynomial_document,
    FixtureError,
)
from loopchain.groups import BUILTIN_GROUPS
from loopchain.simplicial import get_space, normalized_chains


def el(ring, tok, c=1):
    return Element.from_token(ring, tok, c)


def w(*letters):
    return word_token(tuple(letters))


# --- bar construction --------------------------------------------------------


def _differential_algebra():
    # a (deg 1), b (deg 2), db = a, trivial products
    return dg_fixture_from_dict({
        "name": "dA", "ring": "Z", "max_degree": 8, "kind": "algebra",
        "generators": [{"name": "a", "degree": 1}, {"name": "b", "degree": 2}],
        "differential": {"b": [[1, "a"]]},
        "multiplication": {},
    })


def test_bar_differential_on_single_letter():
    A = _differential_algebra()
    B = bar_construction(A)
    a = generator("a", 1)
    b = generator("b", 2)
    # d_Bar(s b) = -s(db) = -s(a)
    assert B.d(w(suspend(b))) == el(ZZ, w(suspend(a)), -1)
    # a is a cycle: d_Bar(s a) = 0
    assert B.d(w(suspend(a))).is_zero()


def test_bar_differential_merge_term():
    A = exterior_two()
    B = bar_construction(A)
    a = next(t for t in A.complex.basis.basis(1) if t.data == ("mono", 1, 0))
    b = next(t for t in A.complex.basis.basis(1) if t.data == ("mono", 0, 1))
    ab = A.complex.basis.basis(2)[0]
    # merge sign (-1)^{|sa|} = +1; a*a = 0 in the exterior algebra
    assert B.d(w(suspend(a), suspend(a))).is_zero()
    assert B.d(w(suspend(a), suspend(b))) == el(ZZ, w(suspend(ab)))
    # reversed letters pick up the sign of b*a = -ab
    assert B.d(w(suspend(b), suspend(a))) == el(ZZ, w(suspend(ab)), -1)


def test_bar_of_exterior_one_generator_basis():
    A = monomial_algebra(ZZ, [("x", 1)], 12, "E(x)")
    B = bar_construction(A, max_degree=12)
    x = A.complex.basis.basis(1)[0]
    for n in range(1, 6):
        assert B.complex.basis.basis(2 * n) == [w(*([suspend(x)] * n))]
        assert B.complex.basis.basis(2 * n - 1) == []


def test_bar_is_a_complex_and_coalgebra():
    for A in (exterior_two(), small_commutative(),
              group_ring_hopf(BUILTIN_GROUPS["c2"]).algebra):
        B = bar_construction(A, max_degree=8)
        assert B.complex.check_d_squared(8) is None
        assert B.check_coassociativity(5) is None
        assert B.check_comult_is_chain_map(6) is None


# --- cobar construction ------------------------------------------------------


@pytest.mark.parametrize("n", [0, -1])
def test_sphere_coalgebra_needs_positive_dimension(n):
    # n = 0 would put the generator y on top of the unit in degree 0
    with pytest.raises(ValueError, match="n >= 1"):
        sphere_coalgebra(n)


def test_cobar_of_sphere_is_free_on_one_generator():
    C = sphere_coalgebra(3, max_degree=14)
    O = cobar_construction(C)
    y = C.complex.basis.basis(3)[0]
    x = desuspend(y)
    for k in range(0, 5):
        assert O.complex.basis.basis(2 * k) == [w(*([x] * k))]
    assert O.complex.basis.basis(1) == []
    for k in range(0, 5):
        assert O.d(w(*([x] * k))).is_zero()


def test_cobar_differential_on_nonreal_aw():
    C = nonreal_aw_coalgebra()
    O = cobar_construction(C)
    toks = {t.data: t for n in range(8) for t in C.complex.basis.basis(n)}
    x, y, yp, z = toks["x"], toks["y"], toks["y'"], toks["z"]
    img = O.d(w(desuspend(z)))
    # -s^{-1}(dz) vanishes; the reduced-diagonal part carries (-1)^{|x|}
    expected = Element(ZZ, [(w(desuspend(x), desuspend(y)), -3),
                            (w(desuspend(x), desuspend(yp)), 2)])
    assert img == expected


def test_cobar_squares_to_zero():
    C = nonreal_aw_coalgebra()
    O = cobar_construction(C)
    assert O.complex.check_d_squared(10) is None


def test_cobar_names_the_degree_one_simplex():
    C = normalized_chains(get_space("sphere:1"))
    with pytest.raises(InfiniteTypeError, match=re.escape("C_1 != 0, it holds ('sx', 'sphere:1', 'top')")):
        cobar_construction(C).complex.basis.basis(0)


def test_cobar_of_a_truncated_coalgebra_says_so():
    C = normalized_chains(get_space("delta:0"), max_degree=0)
    with pytest.raises(DegreeOverflowError, match="truncated below degree 1"):
        cobar_construction(C).complex.basis.basis(0)


def test_cobar_propagates_unrelated_basis_errors():
    one = generator("1", 0)

    def basis_fn(n):
        if n == 1:
            raise ZeroDivisionError("broken basis")
        return [one] if n == 0 else []

    cx = ChainComplex(GradedBasis(ZZ, basis_fn, 4), zero_map(ZZ, -1))
    C = DGCoalgebra(cx, one, lambda t: el(ZZ, tensor_token(one, one)))
    with pytest.raises(ZeroDivisionError, match="broken basis"):
        cobar_construction(C)


# --- d_Bar, d_Cobar and the word bases against their literal definitions ----


def _passing_d(letters, j):
    """The Koszul sign of applying Id^(j) (x) d (x) Id^(k-j-1) to a word:
    d passes the letters before the j-th."""
    return operator_application_sign([0] * j + [-1], [l.degree for l in letters[:j + 1]])


def _literal_d_bar(A, tok):
    """d_Bar[s a_1|...|s a_k] = sum_j e_j (-[..|s(d a_j)|..] + (-1)^|s a_j| [..|s(a_j a_{j+1})|..])
    with e_j the sign of d passing s a_1 ... s a_(j-1), terms on the unit dropped;
    read off A.d and A.mult on every letter."""
    ring, letters = A.ring, tok.data
    out = Element(ring)
    for j, letter in enumerate(letters):
        e = _passing_d(letters, j)
        a = desuspend(letter)
        out += Element(ring, [(word_token(letters[:j] + (suspend(u),) + letters[j + 1:]), -e * c)
                              for u, c in A.d(a).items() if u is not A.unit])
        if j + 1 < len(letters):
            merge = e * parity_sign(letter.degree)
            out += Element(ring, [(word_token(letters[:j] + (suspend(u),) + letters[j + 2:]),
                                   merge * c)
                                  for u, c in A.mult(a, desuspend(letters[j + 1])).items()
                                  if u is not A.unit])
    return out


def _literal_d_cobar(C, tok):
    """d_Cobar[s^-1 c_1|...|s^-1 c_k] = sum_j e_j [..|d(s^-1 c_j)|..] with e_j the sign
    of d passing the letters before the j-th, and d(s^-1 c) = -s^-1(dc) +
    (s^-1 (x) s^-1) Delta-bar(c), the pair of desuspensions applied with its Koszul
    sign; read off C.d and C.reduced_comult on every letter."""
    ring, letters = C.ring, tok.data
    out = Element(ring)
    for j, letter in enumerate(letters):
        e = _passing_d(letters, j)
        c = suspend(letter)
        head, tail = letters[:j], letters[j + 1:]
        out += Element(ring, [(word_token(head + (desuspend(u),) + tail), -e * cu)
                              for u, cu in C.d(c).items() if u.degree > 0])
        out += Element(ring, [(word_token(head + tuple(desuspend(q) for q in p.data) + tail),
                               e * operator_application_sign([-1, -1], [q.degree for q in p.data])
                               * cp)
                              for p, cp in C.reduced_comult(c).items()])
    return out


def _bar_of(A, top):
    return A, bar_construction(A, max_degree=top)


def _cobar_of(C):
    return C, cobar_construction(C)


# name: (make, literal d, top, whether some d is nonzero through top); make(top)
# gives the algebra or coalgebra the literal formula reads and its construction
WORD_DIFFERENTIALS = {
    "bar-exterior-z": (lambda top: _bar_of(exterior_two(ZZ, max_degree=top), top),
                       _literal_d_bar, 7, True),
    "bar-exterior-f2": (lambda top: _bar_of(exterior_two(F2, max_degree=top), top),
                        _literal_d_bar, 7, True),
    "bar-s3": (lambda top: _bar_of(group_ring_hopf(BUILTIN_GROUPS["s3"]).algebra, top),
               _literal_d_bar, 4, True),
    "cobar-nonreal-aw": (lambda top: _cobar_of(nonreal_aw_coalgebra(max_degree=top + 1)),
                         _literal_d_cobar, 7, True),
    # primitive letters and d = 0: d_Cobar vanishes, and must read so
    "cobar-rp-f2": (lambda top: _cobar_of(rp_suspension_coalgebra(max_degree=top + 1)),
                    _literal_d_cobar, 7, False),
    "cobar-bar-exterior": (lambda top: _cobar_of(bar_construction(exterior_two(),
                                                                  max_degree=top + 1)),
                           _literal_d_cobar, 6, True),
    # dy = x: the internal d is nonzero on letters of words of every length
    "bar-exterior-polynomial-z": (lambda top: _bar_of(
        dg_fixture_from_dict(exterior_polynomial_document(top)), top), _literal_d_bar, 7, True),
}


@pytest.mark.parametrize("name", sorted(WORD_DIFFERENTIALS))
def test_word_differentials_match_their_literal_formulas(name):
    make, literal, top, nonzero = WORD_DIFFERENTIALS[name]
    base, X = make(top)
    fired = False
    for n in range(top + 1):
        for tok in X.complex.basis.basis(n):
            expected = literal(base, tok)
            assert X.d(tok) == expected, tok
            fired = fired or not expected.is_zero()
    assert fired == nonzero


def _words_first_letter_outermost(letters, n):
    """The words of total degree n as letter tuples, by the literal recursion:
    each first letter of degree d = 1..n, then each word of degree n - d."""
    if n == 0:
        return [()]
    return [(l,) + rest for d in range(1, n + 1) for l in letters(d)
            for rest in _words_first_letter_outermost(letters, n - d)]


def _bar_exterior_letters():
    A = exterior_two(ZZ, max_degree=10)
    return bar_construction(A), lambda d: [suspend(a) for a in A.complex.basis.basis(d - 1)
                                           if a is not A.unit]


def _cobar_rp_letters():
    C = rp_suspension_coalgebra(max_degree=12)
    return cobar_construction(C), lambda d: [desuspend(c) for c in C.complex.basis.basis(d + 1)]


@pytest.mark.parametrize("make", [_bar_exterior_letters, _cobar_rp_letters])
def test_word_bases_keep_their_order(make):
    # _word_basis puts the first letter outermost, as the recursion does, and
    # each degree of the GradedBasis is that list in sort_key order
    X, letters = make()

    def literal(n):
        return [word_token(w) for w in _words_first_letter_outermost(letters, n)]

    for n in range(11):
        assert _word_basis(letters, literal, n) == literal(n)
        assert X.complex.basis.basis(n) == sorted(literal(n), key=sort_key)
    assert X.complex.basis.dimension(10) > 50


# --- twisting cochains -------------------------------------------------------


def test_universal_twisting_cochains_check():
    for C in (sphere_coalgebra(2), sphere_coalgebra(3), nonreal_aw_coalgebra()):
        assert check_twisting(universal_twisting(C), 8) is None


def test_couniversal_twisting_cochains_check():
    for A in (exterior_two(), small_commutative(),
              group_ring_hopf(BUILTIN_GROUPS["c2"]).algebra):
        assert check_twisting(couniversal_twisting(A), 8) is None
    # Bar(Z[S3]) has 5^n basis words in degree n; stay exhaustive but shallow
    assert check_twisting(couniversal_twisting(group_ring_hopf(BUILTIN_GROUPS["s3"]).algebra),
                          3) is None


def test_zero_twisting_on_trivial_coalgebra():
    from loopchain.chains import LinearMap
    C = sphere_coalgebra(3)
    O = cobar_construction(C)
    t = universal_twisting(C, O)
    zero = type(t)(C, O, LinearMap(ZZ, -1, lambda tok: Element(ZZ)), "0")
    # zero map is a twisting cochain when d = 0 and the reduced diagonal is 0
    assert check_twisting(zero, 8) is None


def test_alpha_of_universal_is_identity():
    C = sphere_coalgebra(3)
    O = cobar_construction(C)
    t = universal_twisting(C, O)
    alpha = algebra_realization(t)
    for n in range(9):
        for tok in O.complex.basis.basis(n):
            assert alpha(tok) == el(ZZ, tok)


def test_beta_of_couniversal_is_identity():
    A = exterior_two()
    B = bar_construction(A, max_degree=8)
    t = couniversal_twisting(A, B)
    beta = coalgebra_realization(t)
    for n in range(7):
        for tok in B.complex.basis.basis(n):
            assert beta(tok) == el(ZZ, tok)
    assert not B._comult._cache


def test_alpha_beta_are_chain_maps():
    C = sphere_coalgebra(2, max_degree=10)
    O = cobar_construction(C)
    t = universal_twisting(C, O)
    B = bar_construction(O, max_degree=9)
    beta = coalgebra_realization(t)
    assert verify_chain_map(beta, C.complex, B.complex, 8) is None


def test_twist_morphism_compatibility():
    # f: C -> C doubling the top class is a coalgebra map; g = Cobar(f)
    C = sphere_coalgebra(3)
    O = cobar_construction(C)
    y = C.complex.basis.basis(3)[0]

    def f_fn(tok):
        if tok.degree == 0:
            return el(ZZ, tok)
        return el(ZZ, tok, 2)

    from loopchain.chains import LinearMap
    f = LinearMap(ZZ, 0, f_fn, "f")
    g = cobar_map(f)
    t = universal_twisting(C, O)
    alpha = algebra_realization(t)
    for n in range(9):
        for tok in O.complex.basis.basis(n):
            assert g(alpha(tok)) == alpha(g(tok))


# --- adjunction maps ---------------------------------------------------------


def test_retraction_of_unit_is_identity():
    for C in (sphere_coalgebra(2), sphere_coalgebra(3), nonreal_aw_coalgebra()):
        eta = bar_cobar_unit(C)
        rho = bar_cobar_retraction(C)
        for n in range(8):
            for tok in C.complex.basis.basis(n):
                assert rho(eta(tok)) == el(C.ring, tok)


def test_section_of_counit_is_identity():
    for A in (exterior_two(), small_commutative()):
        eps = cobar_bar_counit(A)
        sigma = cobar_bar_section(A)
        for n in range(8):
            for tok in A.complex.basis.basis(n):
                assert eps(sigma(tok)) == el(A.ring, tok)


def test_unit_and_counit_are_chain_maps():
    C = sphere_coalgebra(3, max_degree=10)
    O = cobar_construction(C)
    B = bar_construction(O, max_degree=9)
    eta = bar_cobar_unit(C, O)
    assert verify_chain_map(eta, C.complex, B.complex, 8) is None
    A = exterior_two()
    BA = bar_construction(A, max_degree=9)
    OBA = cobar_construction(BA)
    eps = cobar_bar_counit(A, BA)
    assert verify_chain_map(eps, OBA.complex, A.complex, 8) is None


# --- cartesian products and the Milgram splitting ---------------------------


def test_cartesian_product_values():
    C, Cp = sphere_coalgebra(2), sphere_coalgebra(3)
    t = universal_twisting(C)
    tp = universal_twisting(Cp)
    tt = cartesian_product(t, tp)
    one_c = C.counit_token
    one_cp = Cp.counit_token
    y2 = C.complex.basis.basis(2)[0]
    y3 = Cp.complex.basis.basis(3)[0]
    # (t*t')(c (x) 1) = t(c) (x) 1
    img = tt.map(tensor_token(y2, one_cp))
    assert list(img.items()) == [(tensor_token(w(desuspend(y2)), w()), 1)]
    # both positive degrees: zero
    assert tt.map(tensor_token(y2, y3)).is_zero()
    assert check_twisting(tt, 8) is None


@pytest.mark.parametrize("left, right", [(F2, ZZ), (ZZ, F2)])
def test_cartesian_product_over_different_rings_names_both(left, right):
    t, tp = (universal_twisting(sphere_coalgebra(2, ring)) for ring in (left, right))
    with pytest.raises(ValueError, match="over %r and %r" % (left, right)):
        cartesian_product(t, tp)


def test_milgram_splitting():
    C, Cp = sphere_coalgebra(2, max_degree=10), sphere_coalgebra(3, max_degree=10)
    q, target = cobar_tensor_splitting(C, Cp)
    CC = tensor_coalgebra(C, Cp)
    OCC = cobar_construction(CC)
    y2 = C.complex.basis.basis(2)[0]
    y3 = Cp.complex.basis.basis(3)[0]
    one_c, one_cp = C.counit_token, Cp.counit_token
    g = desuspend(tensor_token(y2, one_cp))
    img = q(w(g))
    assert img == el(ZZ, tensor_token(w(desuspend(y2)), w()))
    assert q(w(desuspend(tensor_token(y2, y3)))).is_zero()
    assert verify_chain_map(q, OCC.complex, target.complex, 7) is None


# --- convolution powers ------------------------------------------------------


def test_convolution_power_one_is_identity():
    for H in hopf_fixtures().values():
        lam = convolution_power(H, 1)
        for n in range(0, 5):
            for tok in H.complex.basis.basis(n):
                assert lam(tok) == el(H.ring, tok)


def test_convolution_power_rejects_zero():
    H = free_hopf_one(2)
    with pytest.raises(ValueError):
        convolution_power(H, 0)


def test_convolution_power_even_primitive():
    H = free_hopf_one(2, max_degree=12)
    for r in (2, 3):
        lam = convolution_power(H, r)
        for k in range(0, 6):
            tok = H.complex.basis.basis(2 * k)[0]
            assert lam(tok) == el(ZZ, tok, r ** k)


def test_convolution_power_odd_primitive():
    H = free_hopf_one(1, max_degree=10)
    lam2 = convolution_power(H, 2)
    x2 = H.complex.basis.basis(2)[0]
    assert lam2(x2) == el(ZZ, x2, 2)


def test_convolution_of_powers_adds_on_cocommutative():
    for name in ("free-even", "free-odd", "group-c2"):
        H = hopf_fixtures()[name]
        assert H.check_cocommutativity(6) is None
        lam_r = convolution_power(H, 2)
        lam_s = convolution_power(H, 3)
        lam_rs = convolution_power(H, 5)
        conv = convolution(H, lam_r, lam_s)
        for n in range(0, 5):
            for tok in H.complex.basis.basis(n):
                assert conv(tok) == lam_rs(tok)


# --- monomial and tensor algebras --------------------------------------------


def _sorted_symbol_sign(degrees, es, et):
    """Koszul sign of sorting the generator symbols of s, then t, by index."""
    seq = [i for exps in (es, et) for i, e in enumerate(exps) for _ in range(e)]
    order = sorted(range(len(seq)), key=lambda k: (seq[k], k))
    return koszul_sign([degrees[i] for i in seq], order)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_monomial_sign_is_the_sorted_symbol_sign(data):
    degrees = data.draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
    exponents = st.tuples(*[st.integers(min_value=0, max_value=1 if d % 2 else 2)
                            for d in degrees])
    es, et = data.draw(exponents), data.draw(exponents)
    top = sum(d if d % 2 else 4 * d for d in degrees)
    A = monomial_algebra(ZZ, [("g%d" % i, d) for i, d in enumerate(degrees)], top, "M",
                         truncations=[2 if d % 2 else 5 for d in degrees])
    tokens = {tok.data[1:]: tok for n in range(top + 1) for tok in A.complex.basis.basis(n)}
    product = tuple(a + b for a, b in zip(es, et))
    expected = Element(ZZ)
    if product in tokens:
        expected = el(ZZ, tokens[product], _sorted_symbol_sign(degrees, es, et))
    assert A.mult(tokens[es], tokens[et]) == expected


@pytest.mark.parametrize("ring", [ZZ, F3])
def test_monomial_algebra_laws(ring):
    # x and z odd, y even with y^3 = 0
    A = monomial_algebra(ring, [("x", 1), ("y", 2), ("z", 3)], 10, "E(x,z)P(y)/y^3",
                         truncations=[2, 3, 2])
    toks = {tok.data[1:]: tok for n in range(9) for tok in A.complex.basis.basis(n)}
    assert len(toks) == 12
    y, y2 = toks[0, 1, 0], toks[0, 2, 0]
    assert A.mult(y, y) == el(ring, y2) and A.mult(y, y2).is_zero()
    assert A.mult(toks[0, 0, 1], toks[1, 0, 0]) == el(ring, toks[1, 0, 1], -1)
    assert A.check_associativity(8) is None
    for a in toks.values():
        for b in toks.values():
            ab = A.mult(a, b)
            assert ab == A.mult(b, a).scale(parity_sign(a.degree * b.degree)), (a, b)
            assert A.mult(a, b) == ab


@pytest.mark.parametrize("n_factors", [2, 3])
def test_tensor_algebra_sign_is_the_interleave_koszul_sign(n_factors):
    A = monomial_algebra(ZZ, [("x", 1), ("y", 2)], 6, "E(x)P(y)/y^3", truncations=[2, 3])
    T = tensor_algebra(*[A] * n_factors, max_degree=4)
    toks = [tok for n in range(5) for tok in T.complex.basis.basis(n)]
    # a_1 .. a_n b_1 .. b_n -> a_1 b_1 .. a_n b_n
    order = [k for i in range(n_factors) for k in (i, n_factors + i)]
    signs = set()
    for s in toks:
        for t in toks:
            sign = koszul_sign([u.degree for u in s.data + t.data], order)
            signs.add(sign)
            expected = tensor_product(ZZ, [A.mult(a, b) for a, b in zip(s.data, t.data)], sign)
            assert T.mult(s, t) == expected, (s, t)
    assert signs == {1, -1}


@pytest.mark.parametrize("n_factors", [2, 3])
def test_tensor_coalgebra_sign_is_the_unshuffle_koszul_sign(n_factors):
    # Cnaw has odd x, z and even y, y'; the generator of C(S3) is odd
    factors = [nonreal_aw_coalgebra(), sphere_coalgebra(3), nonreal_aw_coalgebra()][:n_factors]
    T = tensor_coalgebra(*factors, max_degree=9)
    # x_1 y_1 .. x_n y_n -> x_1 .. x_n y_1 .. y_n
    order = [2 * i for i in range(n_factors)] + [2 * i + 1 for i in range(n_factors)]
    signs = set()
    for tok in T.complex.basis.through(9):
        expected = Element(ZZ)
        for terms in itertools.product(*[C.comult(part).items()
                                         for C, part in zip(factors, tok.data)]):
            xs = [pair.data[0] for pair, _ in terms]
            ys = [pair.data[1] for pair, _ in terms]
            sign = koszul_sign([u.degree for xy in zip(xs, ys) for u in xy], order)
            signs.add(sign)
            coeff = sign
            for _, c in terms:
                coeff *= c
            expected = expected + el(ZZ, tensor_token(tensor_token(*xs), tensor_token(*ys)), coeff)
        assert T.comult(tok) == expected, tok
    assert signs == {1, -1}


def test_tensor_differential_is_the_sum_of_one_slot_maps():
    # the Leibniz rule of a tensor complex equals the sum over the slots i of
    # the factor's d in slot i and the identity elsewhere, with the Koszul
    # sign tensor_maps gives it; every factor has a nonzero d and odd tokens
    factors = [nonreal_aw_coalgebra(), bar_construction(small_commutative()),
               nonreal_aw_coalgebra()]
    T = tensor_coalgebra(*factors, max_degree=8)
    ident = identity_map(ZZ)
    reference = None
    for i, C in enumerate(factors):
        slot = tensor_maps([C.d if j == i else ident for j in range(len(factors))])
        reference = slot if reference is None else add_maps(reference, slot)
    tokens = list(T.complex.basis.through(8))
    assert next((t for t in tokens if T.d(t) != reference(t)), None) is None
    assert T.complex.check_d_squared(8) is None
    # not vacuous: the d of each later slot is met after a prefix of odd degree
    for i, C in enumerate(factors[1:], 1):
        assert any(not C.d(t.data[i]).is_zero() and sum(x.degree for x in t.data[:i]) % 2
                   for t in tokens), i


def test_structures_read_d_and_max_degree_off_their_complex():
    structures = [exterior_two(), nonreal_aw_coalgebra(), group_ring_hopf(BUILTIN_GROUPS["c2"]),
                  nonreal_aw_hirsch()[1]]
    assert [type(S).__name__ for S in structures] == \
        ["DGAlgebra", "DGCoalgebra", "HopfAlgebra", "HirschCoalgebra"]
    for S in structures:
        assert S.d is S.complex.d, S.name
        assert S.max_degree == S.complex.max_degree, S.name


# --- Hopf fixture sanity -----------------------------------------------------


def test_hopf_fixture_axioms():
    for name, H in hopf_fixtures().items():
        assert H.check_comult_is_algebra_map(5) is None, name
        assert H.check_coassociativity(5) is None, name


def test_hopf_algebra_has_one_coalgebra():
    # a Hopf algebra is its algebra and its coalgebra: every use of Delta
    # reads its one cached image
    H = group_ring_hopf(BUILTIN_GROUPS["c2"])
    C = H
    assert isinstance(C, DGCoalgebra) and H.algebra is H
    g = H.algebra.aug_ideal_basis(0)[0]
    assert H.comult(g) is C.comult(g)
    assert C.comult_iterated(g, 2) is H.comult(g)
    assert H.check_cocommutativity(0) is None


# --- Hirsch structures -------------------------------------------------------


def test_primitive_hirsch_is_chain_algebra_map():
    C = sphere_coalgebra(3, max_degree=12)
    h = hirsch_primitive(C)
    assert h.check_comult_is_chain_map(8) is None
    assert h.check_cocommutativity(8) is None
    assert h.check_coassociativity(8) is None


def test_nonreal_aw_hirsch_structure():
    C, h = nonreal_aw_hirsch()
    assert h.check_cocommutativity(8) is None
    assert h.check_comult_is_chain_map(8) is None
    assert h.check_coassociativity(8) is None


def test_nonreal_aw_comultiplication_is_chain_map():
    C = nonreal_aw_coalgebra()
    assert C.check_comult_is_chain_map(8) is None
    assert C.check_coassociativity(8) is None


def test_nonreal_aw_cocommutativity_homotopy():
    # F(z) = y'(x)y - y(x)y' witnesses cocommutativity up to homotopy
    C = nonreal_aw_coalgebra()
    ring = C.ring
    toks = {t.data: t for n in range(8) for t in C.complex.basis.basis(n)}
    y, yp, z = toks["y"], toks["y'"], toks["z"]
    F = Element(ring, [(tensor_token(yp, y), 1), (tensor_token(y, yp), -1)])
    dT = add_maps(tensor_map(C.complex.d, identity_map(ring)),
                  tensor_map(identity_map(ring), C.complex.d))
    lhs = dT(F)  # F(dz) = 0 since z is a cycle
    delta = C.comult(z)
    rhs = delta - twist_tensor(ring, delta)
    assert lhs == rhs


# --- declarative fixture parsing --------------------------------------------


def test_fixture_parser_rejects_non_associative():
    with pytest.raises(FixtureError):
        dg_fixture_from_dict({
            "name": "bad", "ring": "Z", "max_degree": 6, "kind": "algebra",
            "generators": [{"name": "a", "degree": 1}, {"name": "b", "degree": 2},
                           {"name": "c", "degree": 3}],
            "multiplication": {"a|a": [[1, "b"]], "a|b": [[1, "c"]]},
        })


def test_fixture_parser_rejects_bad_differential():
    with pytest.raises(FixtureError):
        dg_fixture_from_dict({
            "name": "bad", "ring": "Z", "max_degree": 6, "kind": "algebra",
            "generators": [{"name": "a", "degree": 0}, {"name": "b", "degree": 1},
                           {"name": "c", "degree": 2}],
            "differential": {"c": [[1, "b"]], "b": [[1, "a"]]},
            "multiplication": {},
        })


def test_fixture_parser_accepts_valid_coalgebra():
    C = dg_fixture_from_dict({
        "name": "ok", "ring": "Z", "max_degree": 8, "kind": "coalgebra",
        "generators": [{"name": "y", "degree": 3}],
        "comultiplication": {},
    })
    assert C.is_connected()
