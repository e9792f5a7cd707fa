from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from loopchain.chains import (
    ZZ, F2, F3, Element, generator, koszul_sign, suspend, desuspend, tensor_token, word_token,
    verify_chain_map, identity_map, zero_map, LinearMap, sort_key, tensor_map,
)
from loopchain.dg import (
    HopfAlgebra, _tensor_comult, algebra_realization, bar_map, check_twisting, cobar_map,
    cobar_tensor_splitting, tensor_algebra, universal_twisting,
)
from loopchain.fixtures import (
    dg_fixture_from_dict, exterior_polynomial_document, exterior_two, small_commutative,
    free_hopf_one, group_ring_hopf, hopf_fixtures, monomial_algebra, primitive_hopf,
)
from loopchain import perturbation
from loopchain.groups import BUILTIN_GROUPS
from loopchain.perturbation import (
    SDRData, check_sdr, bar_sdr, bar_eilenberg_zilber, bar_alexander_whitney,
    bar_em_homotopy, transferred_twisting, BarHopfStructure,
    PerturbationDivergence, _shuffles, bar_shuffle_hopf,
)


def w(*letters):
    return word_token(tuple(letters))


def _gen(A, data):
    for n in range(A.max_degree + 1):
        for t in A.complex.basis.basis(n):
            if t.data == data:
                return t
    raise KeyError(data)


# --- the three maps on small words -------------------------------------------


def test_nabla_on_single_letters():
    A, Ap = exterior_two(), small_commutative()
    nabla = bar_eilenberg_zilber(A, Ap)
    a = _gen(A, ("mono", 1, 0))
    img = nabla(tensor_token(w(suspend(a)), w()))
    assert img == Element.from_token(ZZ, w(suspend(tensor_token(a, Ap.unit))))


def test_nabla_two_shuffles_with_koszul_sign():
    A, Ap = exterior_two(), small_commutative()
    nabla = bar_eilenberg_zilber(A, Ap)
    a = _gen(A, ("mono", 1, 0))      # degree 1, letter degree 2
    x = _gen(Ap, ("mono", 1, 0))     # degree 1, letter degree 2
    img = nabla(tensor_token(w(suspend(a)), w(suspend(x))))
    u = suspend(tensor_token(a, Ap.unit))
    v = suspend(tensor_token(A.unit, x))
    expected = Element(ZZ, [(w(u, v), 1), (w(v, u), 1)])  # (-1)^(2*2) = +1
    assert img == expected
    # odd letter degrees (even generators) flip the transposed shuffle
    ab = _gen(A, ("mono", 1, 1))     # degree 2, letter degree 3
    y = _gen(Ap, ("mono", 0, 1))     # degree 2, letter degree 3
    img2 = nabla(tensor_token(w(suspend(ab)), w(suspend(y))))
    u2, v2 = suspend(tensor_token(ab, Ap.unit)), suspend(tensor_token(A.unit, y))
    expected2 = Element(ZZ, [(w(u2, v2), 1), (w(v2, u2), -1)])  # (-1)^(3*3)
    assert img2 == expected2


def test_aw_on_single_letters():
    A, Ap = exterior_two(), small_commutative()
    f = bar_alexander_whitney(A, Ap)
    a = _gen(A, ("mono", 1, 0))
    x = _gen(Ap, ("mono", 1, 0))
    assert f(w(suspend(tensor_token(a, Ap.unit)))) == \
        Element.from_token(ZZ, tensor_token(w(suspend(a)), w()))
    assert f(w(suspend(tensor_token(A.unit, x)))) == \
        Element.from_token(ZZ, tensor_token(w(), w(suspend(x))))
    # mixed letter with both coordinates positive dies
    assert f(w(suspend(tensor_token(a, x)))).is_zero()


def test_aw_respects_word_length_split():
    A, Ap = exterior_two(), exterior_two()
    f = bar_alexander_whitney(A, Ap)
    a = _gen(A, ("mono", 1, 0))
    b = _gen(A, ("mono", 0, 1))
    word = w(suspend(tensor_token(a, Ap.unit)), suspend(tensor_token(b, Ap.unit)),
             suspend(tensor_token(A.unit, a)))
    img = f(word)
    for t, _ in img.items():
        left, right = t.data
        assert len(left.data) + len(right.data) == 3


def test_em_homotopy_vanishing_cases():
    A, Ap = exterior_two(), small_commutative()
    h = bar_em_homotopy(A, Ap)
    x = _gen(Ap, ("mono", 1, 0))
    y = _gen(Ap, ("mono", 0, 1))
    a = _gen(A, ("mono", 1, 0))
    # pure second-coordinate words
    assert h(w(suspend(tensor_token(A.unit, x)), suspend(tensor_token(A.unit, y)))).is_zero()
    # first-block / second-block words
    assert h(w(suspend(tensor_token(a, Ap.unit)), suspend(tensor_token(A.unit, y)))).is_zero()


def test_em_homotopy_nonzero_values():
    # a one-letter word: e_0 = (-1)^(|x| (1 + |ab|)) = -1
    A, Ap = exterior_two(), small_commutative()
    h = bar_em_homotopy(A, Ap)
    ab = _gen(A, ("mono", 1, 1))
    x = _gen(Ap, ("mono", 1, 0))
    assert h(w(suspend(tensor_token(ab, x)))) == \
        Element(ZZ, [(w(suspend(tensor_token(A.unit, x)), suspend(tensor_token(ab, Ap.unit))), -1)])
    # two letters, both summands m = 1 and m = 0:
    # e_1 = (-1)^(|L_1| + |a| (1 + |x|)) = (-1)^(3 + 2), e_0 = (-1)^(|a| (3 + 2))
    A, Ap = small_commutative(), exterior_two()
    h = bar_em_homotopy(A, Ap)
    x, y = _gen(A, ("mono", 1, 0)), _gen(A, ("mono", 0, 1))
    a, ab = _gen(Ap, ("mono", 1, 0)), _gen(Ap, ("mono", 1, 1))
    sy, sx = suspend(tensor_token(y, Ap.unit)), suspend(tensor_token(x, Ap.unit))
    sa, sab = suspend(tensor_token(A.unit, a)), suspend(tensor_token(A.unit, ab))
    assert h(w(sy, suspend(tensor_token(x, a)))) == \
        Element(ZZ, [(w(sy, sa, sx), -1), (w(sa, sy, sx), -1)])
    # a tail of s(1 (x) a') shuffled past s(y): e_0 = (-1)^(|a| (1 + |y|)) = -1,
    # and the transposed shuffle of two odd letters adds (-1)^(3 * 3)
    assert h(w(suspend(tensor_token(y, a)), sab)) == \
        Element(ZZ, [(w(sa, sy, sab), -1), (w(sa, sab, sy), 1)])


@settings(derandomize=True, max_examples=300)
@given(st.lists(st.integers(min_value=-2, max_value=4), max_size=4),
       st.lists(st.integers(min_value=-2, max_value=4), max_size=4))
def test_shuffles_signs_are_koszul_signs(u_degrees, v_degrees):
    us = [generator("u%d" % q, d) for q, d in enumerate(u_degrees)]
    vs = [generator("v%d" % q, d) for q, d in enumerate(v_degrees)]
    symbols, m = us + vs, len(us)
    shuffles = _shuffles(us, vs)
    assert len({letters for letters, _ in shuffles}) == len(shuffles) == comb(len(symbols), m)
    for letters, sign in shuffles:
        order = [symbols.index(l) for l in letters]
        assert sorted(order) == list(range(len(symbols)))
        assert [q for q in order if q < m] == list(range(m))
        assert [q for q in order if q >= m] == list(range(m, len(symbols)))
        assert sign == koszul_sign(u_degrees + v_degrees, order)


# --- the five SDR identities -------------------------------------------------


@pytest.mark.parametrize("make_a,make_b", [
    (exterior_two, exterior_two),
    (exterior_two, small_commutative),
    (small_commutative, exterior_two),
    (small_commutative, small_commutative),
])
def test_sdr_identities_through_degree_8(make_a, make_b):
    sdr = bar_sdr(make_a(), make_b(), max_degree=9)
    assert check_sdr(sdr, 8) is None


def test_sdr_identities_with_units_in_degree_zero():
    # group rings put augmentation-ideal classes in degree 0
    A = group_ring_hopf(BUILTIN_GROUPS["c2"]).algebra
    sdr = bar_sdr(A, A, max_degree=7)
    assert check_sdr(sdr, 6) is None


def test_nabla_and_f_are_chain_maps():
    sdr = bar_sdr(exterior_two(), small_commutative(), max_degree=9)
    assert verify_chain_map(sdr.nabla, sdr.X.complex, sdr.Y.complex, 7) is None
    assert verify_chain_map(sdr.f, sdr.Y.complex, sdr.X.complex, 7) is None


def test_nabla_is_a_coalgebra_map():
    sdr = bar_sdr(exterior_two(), exterior_two(), max_degree=8)
    ring = sdr.Y.ring
    for n in range(7):
        for tok in sdr.X.complex.basis.basis(n):
            lhs = Element(ring, [(tensor_token(a, b), c * ca * cb)
                                 for t, c in sdr.X.comult(tok).items()
                                 for a, ca in sdr.nabla(t.data[0]).items()
                                 for b, cb in sdr.nabla(t.data[1]).items()])
            rhs = Element(ring, [(u, c * cu) for t, c in sdr.nabla(tok).items()
                                 for u, cu in sdr.Y.comult(t).items()])
            assert lhs == rhs, tok


# --- transferred twisting cochain --------------------------------------------


def test_trivial_sdr_gives_universal_twisting():
    from loopchain.dg import bar_construction
    B = bar_construction(exterior_two(), max_degree=8)
    # h = 0, so every insertion vanishes: zeta = word length bounds k at 1
    sdr = SDRData(B, B, identity_map(ZZ), identity_map(ZZ), zero_map(ZZ, 1),
                  zeta=lambda tok: len(tok.data))
    F = transferred_twisting(sdr)
    t = universal_twisting(B)
    for n in range(7):
        for tok in B.complex.basis.basis(n):
            assert F.map(tok) == t.map(tok)


def test_transferred_twisting_satisfies_brown_condition():
    sdr = bar_sdr(exterior_two(), small_commutative(), max_degree=9)
    F = transferred_twisting(sdr)
    assert check_twisting(F, 8) is None


def test_zeta_certificate_bounds_the_insertions():
    # transferred_twisting raises if an insertion survives past the bound;
    # computing F through degree 8 therefore verifies the certificate.
    sdr = bar_sdr(exterior_two(), exterior_two(), max_degree=9)
    F = transferred_twisting(sdr)
    for n in range(9):
        for tok in sdr.Y.complex.basis.basis(n):
            F.map(tok)


def test_missing_certificate_is_rejected():
    from loopchain.dg import bar_construction
    B = bar_construction(exterior_two(), max_degree=6)
    sdr = SDRData(B, B, identity_map(ZZ), identity_map(ZZ), zero_map(ZZ, 1))
    F = transferred_twisting(sdr)
    tok = B.complex.basis.basis(2)[0]
    with pytest.raises(PerturbationDivergence):
        F.map(tok)


def _literal_components(sdr):
    """(tok, k) -> F_k(tok) straight from the definition: F_1 = s^{-1} f and
    F_k = - sum_{i+j=k} (F_i (x) F_j) Delta-bar h, with F_i of degree -1."""
    ring = sdr.Y.ring
    memo = {}

    def F(tok, k):
        if (tok, k) not in memo:
            if k == 1:
                pairs = [(w(desuspend(t)), c) for t, c in sdr.f(tok).items() if t.degree > 0]
            else:
                pairs = [(word_token(a.data + b.data), -(-1) ** u.degree * c * ca * cb)
                         for t, c in sdr.h(tok).apply(sdr.Y.reduced_comult).items()
                         for u, v in (t.data,)
                         for i in range(1, k)
                         for a, ca in F(u, i).items()
                         for b, cb in F(v, k - i).items()]
            memo[(tok, k)] = Element(ring, pairs)
        return memo[(tok, k)]

    return F


def _check_against_components(sdr, tokens):
    F, literal = transferred_twisting(sdr), _literal_components(sdr)
    longest = 0
    for tok in tokens:
        bound = max(len(tok.data) - sdr.zeta(tok) + 1, 1)
        total = Element(sdr.Y.ring)
        for k in range(1, bound + 1):
            total = total + literal(tok, k)
            if not literal(tok, k).is_zero():
                longest = max(longest, k)
        assert F.map(tok) == total, tok
        assert literal(tok, bound + 1).is_zero(), tok
    return longest


def test_one_recursion_sums_the_components():
    sdr = bar_sdr(exterior_two(), small_commutative(), max_degree=7)
    tokens = [t for n in range(1, 7) for t in sdr.Y.complex.basis.basis(n)]
    # components up to F_3 occur, so the sum and its signs are exercised
    assert _check_against_components(sdr, tokens) >= 3


def test_one_recursion_sums_the_components_for_a_group_ring():
    # the tokens psi feeds to F: Bar(delta) of bar words of Z[S3]
    bh = BarHopfStructure(group_ring_hopf(BUILTIN_GROUPS["s3"]), 4)
    delta = bar_map(LinearMap(bh.ring, 0, bh.H.comult, "delta"),
                    tensor_algebra(bh.H.algebra, bh.H.algebra))
    tokens = {t for n in range(1, 4) for word in bh.barH.complex.basis.basis(n)
              for t, _ in delta(word).items()}
    sdr = bar_sdr(bh.H, bh.H, max_degree=4)
    assert _check_against_components(sdr, sorted(tokens, key=sort_key)) >= 3


def test_F_caches_nothing_but_its_own_images():
    # Delta-bar h is read off h's words: F fills no cache of Y, f or h,
    # and every cut it reads is of two nonempty words
    sdr = bar_sdr(exterior_two(), small_commutative(), max_degree=6)
    F = transferred_twisting(sdr)
    for n in range(1, 6):
        for tok in sdr.Y.complex.basis.basis(n):
            F.map(tok)
    assert not sdr.Y._comult._cache
    assert not sdr.f._cache and not sdr.h._cache
    assert all(tok.degree > 0 for tok in F.map._cache)
    # the split was read: some image has a cobar word of two letters
    assert any(len(word.data) > 1 for img in F.map._cache.values() for word in img.terms)


def test_a_cut_with_a_vanishing_left_factor_reads_no_right_factor():
    # f = 0 makes F(a) = 0.  h(b) = a|b has the one cut a (x) b, whose right
    # factor F(b) is being built; h(ab) = b|a|a re-enters b from ab, the
    # whole word.  Neither is read, so F(b) = 0 and nothing re-enters.
    from loopchain.dg import bar_construction
    A = group_ring_hopf(BUILTIN_GROUPS["s3"]).algebra
    B = bar_construction(A, max_degree=5)
    a, b = (w(suspend(x)) for x in A.aug_ideal_basis(0)[:2])
    table = {b: w(*a.data, *b.data), w(*a.data, *b.data): w(*b.data, *a.data, *a.data)}
    h = LinearMap(ZZ, 1, lambda tok: Element(ZZ, [(table[tok], 1)] if tok in table else []), "h")
    sdr = SDRData(B, B, identity_map(ZZ), zero_map(ZZ), h, zeta=lambda tok: 0)
    assert transferred_twisting(sdr).map(b).is_zero()


def test_too_tight_a_certificate_is_caught():
    # zeta = word length claims F = s^{-1} f, which the EM homotopy breaks
    sdr = bar_sdr(exterior_two(), small_commutative(), max_degree=7)
    sdr.zeta = lambda tok: len(tok.data)
    F = transferred_twisting(sdr)
    tokens = [t for n in range(1, 7) for t in sdr.Y.complex.basis.basis(n)]

    def failures():
        out = {}
        for tok in tokens:
            try:
                F.map(tok)
            except PerturbationDivergence as e:
                out[tok] = str(e)
        return out

    first = failures()
    assert first and all("filtration bound" in message for message in first.values())
    # a failed image leaves no token marked as being built
    assert failures() == first


def test_a_cyclic_homotopy_is_caught():
    # h(x) = x | s[g] puts x itself into Delta-bar h(x): F(x) needs F(x)
    from loopchain.dg import bar_construction
    A = group_ring_hopf(BUILTIN_GROUPS["c2"]).algebra
    B = bar_construction(A, max_degree=6)
    sg = w(suspend(A.aug_ideal_basis(0)[0]))
    h = LinearMap(ZZ, 1, lambda tok: Element.from_token(ZZ, word_token(tok.data + sg.data)), "h")
    sdr = SDRData(B, B, identity_map(ZZ), identity_map(ZZ), h, zeta=lambda tok: 0)
    F = transferred_twisting(sdr)
    for _ in range(2):  # a failed image leaves nothing behind
        with pytest.raises(PerturbationDivergence):
            F.map(sg)


# --- the loop comultiplication on Cobar Bar H --------------------------------


def _primitive_part_check(bh, a):
    ring = bh.ring
    sa = word_token((desuspend(word_token((suspend(a),))),))
    img = bh.psi(sa)
    empty = word_token(())
    expected = Element(ring, [(tensor_token(sa, empty), 1), (tensor_token(empty, sa), 1)])
    return img == expected


def test_bar_hopf_generators_are_primitive_on_primitives():
    # psi(s^{-1}(s a)) is primitive exactly when a is; checked on the
    # algebra generators (counit claims pin the general case)
    for H, gen_data in ((free_hopf_one(1, max_degree=8), ("mono", 1)),
                        (free_hopf_one(2, max_degree=10), ("mono", 1))):
        bh = BarHopfStructure(H, max_degree=9)
        a = next(t for n in range(1, 4) for t in H.algebra.aug_ideal_basis(n)
                 if t.data == gen_data)
        assert _primitive_part_check(bh, a), H.name


def test_bar_hopf_cross_terms_match_comultiplication():
    # for a = x^2 (even x), claim (1) forces the cross terms 2 x(x)x
    H = free_hopf_one(2, max_degree=10)
    bh = BarHopfStructure(H, max_degree=9)
    x2 = next(t for t in H.algebra.aug_ideal_basis(4))
    sa = word_token((desuspend(word_token((suspend(x2),))),))
    assert tensor_map(bh.epsilon, bh.epsilon)(bh.psi(sa)) == H.comult(x2)
    assert not _primitive_part_check(bh, x2)


def test_bar_hopf_grouplike_correction_for_group_rings():
    # R[C2] is not connected: psi picks up the group-like term g (x) g,
    # mirroring delta[g] = [g](x)[g] + [g](x)1 + 1(x)[g]
    H = group_ring_hopf(BUILTIN_GROUPS["c2"])
    bh = BarHopfStructure(H, max_degree=8)
    ring = bh.ring
    g = H.algebra.aug_ideal_basis(0)[0]
    ghat = word_token((desuspend(word_token((suspend(g),))),))
    empty = word_token(())
    expected = Element(ring, [(tensor_token(ghat, empty), 1), (tensor_token(empty, ghat), 1),
                              (tensor_token(ghat, ghat), 1)])
    assert bh.psi(ghat) == expected


def test_bar_hopf_counit_claims():
    for H in (group_ring_hopf(BUILTIN_GROUPS["c2"]),
              free_hopf_one(2, max_degree=10)):
        bh = BarHopfStructure(H, max_degree=9)
        counit_pair = tensor_map(bh.epsilon, bh.epsilon)  # eps has degree 0: no Koszul signs
        # claim 1: (eps (x) eps) psi (s^{-1}(s a)) = delta(a)
        for n in range(0, 5):
            for a in H.algebra.aug_ideal_basis(n):
                sa = word_token((desuspend(word_token((suspend(a),))),))
                assert counit_pair(bh.psi(sa)) == H.comult(a), a
        # claim 2: zero on longer bar words
        barH = bh.barH
        for n in range(2, 6):
            for tok in barH.complex.basis.basis(n):
                if len(tok.data) < 2:
                    continue
                gen = word_token((desuspend(tok),))
                assert counit_pair(bh.psi(gen)).is_zero(), tok


def test_bar_hopf_psi_is_coassociative_on_generators():
    # (H, top bar degree of the hand check, degree k of the structure's checks)
    fixtures = [(free_hopf_one(2, max_degree=10), 7, 6),
                (free_hopf_one(1), 6, 6),
                (group_ring_hopf(BUILTIN_GROUPS["c2"]), 6, 5),
                (group_ring_hopf(BUILTIN_GROUPS["s3"]), 3, 2),
                (group_ring_hopf(BUILTIN_GROUPS["c4"]), 3, 3)]
    for H, topdeg, k in fixtures:
        bh = BarHopfStructure(H, max_degree=topdeg + 2)
        ring = bh.ring
        assert bh.check_comult_is_chain_map(k) is None, H.name
        assert bh.check_coassociativity(k) is None, H.name
        for n in range(1, topdeg):
            for tok in bh.barH.complex.basis.basis(n):
                gen = word_token((desuspend(tok),))
                img = bh.psi(gen)
                lhs = Element(ring, [(tensor_token(*(s.data + (t.data[1],))), c * cs)
                                     for t, c in img.items()
                                     for s, cs in bh.psi(t.data[0]).items()])
                rhs = Element(ring, [(tensor_token(*((t.data[0],) + s.data)), c * cs)
                                     for t, c in img.items()
                                     for s, cs in bh.psi(t.data[1]).items()])
                assert lhs == rhs, (H.name, tok)


def test_comultiplication_images_are_cached_once():
    # a HopfAlgebra built on a coalgebra's Delta shares its cache
    import gc
    from loopchain.dg import hopf_tensor_power
    H, barA, _ = bar_shuffle_hopf(small_commutative(), 6)
    H2 = hopf_tensor_power(group_ring_hopf(BUILTIN_GROUPS["c2"]), 2)
    for hopf, tok in ((H, barA.complex.basis.basis(4)[-1]), (H2, H2.complex.basis.basis(0)[-1])):
        img = hopf.comult(tok)
        assert len(img.terms) > 2
        holders = [m for m in gc.get_objects()
                   if isinstance(m, LinearMap) and m._cache.get(tok) is img]
        assert len(holders) == 1, hopf.name


def test_bar_hopf_psi_is_an_algebra_map_on_products():
    H = group_ring_hopf(BUILTIN_GROUPS["c2"])
    bh = BarHopfStructure(H, max_degree=8)
    sq = tensor_algebra(bh, bh)
    gens = []
    for n in range(1, 4):
        for tok in bh.barH.complex.basis.basis(n):
            gens.append(word_token((desuspend(tok),)))
    for u in gens[:6]:
        for v in gens[:6]:
            prod = word_token(u.data + v.data)
            assert bh.psi(prod) == sq.multiply(bh.psi(u), bh.psi(v))


def _composite_psi(bh):
    """The loop comultiplication as the composite q o alpha_F o Cobar(Bar delta) of
    the public functors, with F transferred from an SDR of its own: a second
    model of bh.psi, on the perturbation path for every H."""
    A = bh.H.algebra
    q, _ = cobar_tensor_splitting(bh.barH, bh.barH)
    alpha_F = algebra_realization(transferred_twisting(bar_sdr(bh.H, bh.H, bh.barH.max_degree - 1)))
    cobar_bar_delta = cobar_map(bar_map(bh.H._comult, tensor_algebra(A, A)))
    return lambda tok: q(alpha_F(cobar_bar_delta(tok)))


def _generators(bh, top):
    return [word_token((desuspend(tok),))
            for n in range(1, top + 1) for tok in bh.barH.complex.basis.basis(n)]


@pytest.fixture(scope="module")
def s3_psi_through_4():
    # psi of every generator through bar degree 4 of Z[S3], computed once
    bh = BarHopfStructure(group_ring_hopf(BUILTIN_GROUPS["s3"]), 4)
    hirsch = bh.hirsch()
    return bh, {g: hirsch.psi(g) for g in _generators(bh, 4)}


def test_bar_hopf_psi_matches_the_composite_of_functors(s3_psi_through_4):
    s3, images = s3_psi_through_4
    t2 = BarHopfStructure(free_hopf_one(2, max_degree=10), 9)
    t1 = BarHopfStructure(free_hopf_one(1), 7)
    for bh, gens in ((s3, list(images)), (t2, _generators(t2, 9)), (t1, _generators(t1, 7))):
        composite = _composite_psi(bh)
        for g in gens:
            assert bh.psi(g) == composite(g), (bh.name, g)
        for u in gens[:4]:
            for v in gens[-3:]:
                uv = word_token(u.data + v.data)
                assert bh.psi(uv) == composite(uv), (bh.name, uv)


def _functions_on_s3():
    """Z^{S3}, the functions on S3, in the basis {1} u {delta_g : g != e}:
    delta_g delta_h = [g = h] delta_g and Delta delta_g = sum_{hk = g}
    delta_h (x) delta_k with delta_e = 1 - sum_{g != e} delta_g.  It is
    commutative but not cocommutative."""
    G = BUILTIN_GROUPS["s3"]
    nontrivial = [g for g in G.elements if g != G.unit]
    name = {g: "delta_%s" % (g,) for g in nontrivial}
    name[G.unit] = "1"

    def expand(g):
        return [(g, 1)] if g != G.unit else [(G.unit, 1)] + [(x, -1) for x in nontrivial]

    def coproduct(g):  # repeated terms are merged by the builder
        return [[cu * cv, [name[u], name[v]]] for h in G.elements for k in G.elements
                if G.mul(h, k) == g for u, cu in expand(h) for v, cv in expand(k)]

    H = dg_fixture_from_dict({
        "name": "Z^S3", "ring": "Z", "kind": "hopf", "max_degree": 4,
        "generators": [{"name": name[g], "degree": 0} for g in nontrivial],
        "multiplication": {"%s|%s" % (name[g], name[g]): [[1, name[g]]] for g in nontrivial},
        "comultiplication": {name[g]: coproduct(g) for g in nontrivial},
    })
    assert H.check_cocommutativity(0) is not None
    return H


def _c2_exterior_polynomial(top):
    """Z[C2] (x) E(x)Z[y], dy = x, with the componentwise structure: its
    degree-0 part is not primitive."""
    G = group_ring_hopf(BUILTIN_GROUPS["c2"], max_degree=top)
    E = dg_fixture_from_dict(exterior_polynomial_document(top))
    A = tensor_algebra(G, E)
    return HopfAlgebra(A.complex, A.unit, A.products, _tensor_comult([G, E]), name=A.name)


# E(x) (x) F2[y]/y^2 with dy = x, both primitive
_EXTERIOR_TRUNCATED = {
    "name": "E(x)F2[y]/y^2", "ring": "F2", "kind": "hopf", "max_degree": 4,
    "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 2},
                   {"name": "xy", "degree": 3}],
    "differential": {"y": [[1, "x"]]},
    "multiplication": {"x|y": [[1, "xy"]], "y|x": [[1, "xy"]]},
    "comultiplication": {"xy": [[1, ["xy", "1"]], [1, ["x", "y"]], [1, ["y", "x"]],
                                [1, ["1", "xy"]]]},
}


# Hopf algebras other than group rings, by name
_CLOSED_FORM_HOPF = {
    "free-odd": lambda: free_hopf_one(1, max_degree=10),
    "exterior-two": lambda: primitive_hopf(exterior_two()),
    "small-commutative": lambda: primitive_hopf(small_commutative()),
    "functions-s3": _functions_on_s3,
    "exterior-polynomial": lambda: dg_fixture_from_dict(exterior_polynomial_document(8)),
    "c2-exterior-polynomial": lambda: _c2_exterior_polynomial(4),
}


@pytest.mark.parametrize("name, ring, top", [
    ("c4", ZZ, 4), ("c2", F2, 6), ("s3", F3, 3),
    pytest.param("free-odd", ZZ, 9, id="T(x1)-9"),
    pytest.param("exterior-two", ZZ, 8, id="E(a,b)-8"),
    pytest.param("small-commutative", ZZ, 8, id="E(x)P'(y)-8"),
    pytest.param("functions-s3", ZZ, 2, id="Z^S3-2"),
    pytest.param("exterior-polynomial", ZZ, 8, id="E(x)Z[y]-8"),
    pytest.param("c2-exterior-polynomial", ZZ, 4, id="Z[C2]E(x)Z[y]-4"),
])
def test_closed_form_psi_matches_the_perturbation_psi(name, ring, top):
    # BarHopfStructure takes the closed form; the composite runs the perturbation
    H = _CLOSED_FORM_HOPF[name]() if name in _CLOSED_FORM_HOPF else \
        group_ring_hopf(BUILTIN_GROUPS[name], ring)
    bh = BarHopfStructure(H, top)
    composite = _composite_psi(bh)
    for g in _generators(bh, top):
        assert bh.psi(g) == composite(g), (bh.name, g)


def test_bar_hopf_is_its_own_hirsch_coalgebra_with_one_psi_cache(s3_psi_through_4):
    import gc
    bh, images = s3_psi_through_4
    assert bh.hirsch() is bh.hirsch()
    maps = [m for m in gc.get_objects() if isinstance(m, LinearMap)]
    for g, img in images.items():
        assert sum(m._cache.get(g) is img for m in maps) == 1, g


def test_every_hopf_algebra_takes_the_closed_form(monkeypatch):
    def no_perturbation(*args, **kwargs):
        raise AssertionError("BarHopfStructure entered the perturbation path")

    # psi builds no SDR and no F, with or without a differential on H
    with monkeypatch.context() as patch:
        patch.setattr(perturbation, "bar_sdr", no_perturbation)
        patch.setattr(perturbation, "transferred_twisting", no_perturbation)
        for ring in (ZZ, F2):
            for name, H in hopf_fixtures(ring).items():
                bh = BarHopfStructure(H, 3)
                assert not any(bh.psi(g).is_zero() for g in _generators(bh, 3)), (name, ring)
        bh = BarHopfStructure(dg_fixture_from_dict(_EXTERIOR_TRUNCATED), 3)
        assert bh.check_coassociativity(2) is None
        assert bh.check_comult_is_chain_map(2) is None


@pytest.mark.parametrize("doc, top", [
    pytest.param(exterior_polynomial_document(8), 8, id="E(x)Z[y]-8"),
    pytest.param(dict(_EXTERIOR_TRUNCATED, max_degree=7), 7, id="E(x)F2[y]/y^2-7"),
])
def test_psi_is_the_psi_of_h_with_d_forgotten(doc, top):
    # BarHopfStructure's docstring argues that psi never reads d
    graded = {key: value for key, value in doc.items() if key != "differential"}
    bh, bg = (BarHopfStructure(dg_fixture_from_dict(d), top) for d in (doc, graded))
    gens = _generators(bh, top)
    assert gens == _generators(bg, top)
    for g in gens:
        assert bh.psi(g) == bg.psi(g), g
