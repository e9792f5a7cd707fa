"""The Element combinators against plain dict-of-sums references."""

import pytest
from hypothesis import given, strategies as st

from loopchain.chains import (
    ZZ, F2, F3, F5, Element, Table, generator, tensor_product, tensor_token, word_token,
)

TOKENS = [generator(name, degree) for name, degree in
          [("a", 0), ("b", 1), ("c", 1), ("d", 2), ("e", 3)]]

rings = st.sampled_from([ZZ, F2, F3, F5])
coefficients = st.integers(min_value=-7, max_value=7)
pair_lists = st.lists(st.tuples(st.sampled_from(TOKENS), coefficients), max_size=8)


def reference(ring, pairs):
    """Sum the pairs in a plain dict, then reduce mod p and drop zeros."""
    sums = {}
    for tok, c in pairs:
        sums[tok] = sums.get(tok, 0) + c
    if ring.p:
        sums = {tok: c % ring.p for tok, c in sums.items()}
    return {tok: c for tok, c in sums.items() if c}


def image(tok):
    """A fixed token -> pairs table for the linear extension."""
    d = tok.degree
    return [(word_token((tok,)), d + 1), (word_token((tok, tok)), -2), (TOKENS[d % 5], 3)]


def product(s, t):
    """A fixed pair-valued product for the bilinear extension."""
    return [(tensor_token(s, t), 1), (tensor_token(t, s), s.degree - t.degree)]


@given(rings, pair_lists)
def test_constructor_is_the_dict_of_sums(ring, pairs):
    assert Element(ring, pairs).terms == reference(ring, pairs)


@given(rings, pair_lists)
def test_constructor_reads_every_input_form_alike(ring, pairs):
    # a dict, a Table (a dict subclass), a dict's items view and a pair list
    merged = reference(ring, pairs)
    table = Table(lambda tok: 0)
    table.update(merged)
    forms = [merged, table, merged.items(), list(merged.items())]
    assert all(Element(ring, form).terms == merged for form in forms)


@pytest.mark.parametrize("ring", [ZZ, F2, F3, F5])
def test_a_token_that_cancels_and_reappears_keeps_only_its_last_coefficient(ring):
    b, c = TOKENS[1], TOKENS[2]
    pairs = [(b, 1), (c, 1), (b, -1), (b, -1)]
    assert Element(ring, pairs[:3]).terms == {c: 1}
    assert Element(ring, pairs).terms == {c: 1, b: -1 % ring.p if ring.p else -1}


@given(rings, pair_lists)
def test_apply_is_the_linear_extension(ring, pairs):
    x = Element(ring, pairs)
    got = x.apply(lambda t: Element(ring, image(t)))
    assert got.terms == reference(ring, [(u, c * cu) for t, c in x.items() for u, cu in image(t)])


@given(rings, pair_lists, pair_lists)
def test_bilinear_is_the_bilinear_extension(ring, xs, ys):
    x, y = Element(ring, xs), Element(ring, ys)
    got = x.bilinear(y, product)
    assert got.terms == reference(ring, [(u, cs * ct * cu) for s, cs in x.items()
                                         for t, ct in y.items() for u, cu in product(s, t)])


@given(rings, pair_lists, pair_lists, pair_lists, coefficients)
def test_bilinear_is_linear_in_each_argument(ring, xs, xs2, ys, k):
    x, x2, y = Element(ring, xs), Element(ring, xs2), Element(ring, ys)
    assert (x + x2).bilinear(y, product) == x.bilinear(y, product) + x2.bilinear(y, product)
    assert y.bilinear(x + x2, product) == y.bilinear(x, product) + y.bilinear(x2, product)
    assert x.scale(k).bilinear(y, product) == x.bilinear(y, product).scale(k)


@pytest.mark.parametrize("ring", [ZZ, F2, F3, F5])
def test_bilinear_merges_repeated_tokens_that_cancel(ring):
    b, c, d = TOKENS[1], TOKENS[2], TOKENS[3]

    def cancelling(s, t):
        return [(tensor_token(s, t), 1), (tensor_token(t, s), 2), (tensor_token(s, t), -1)]

    got = Element.from_token(ring, b).bilinear(Element(ring, [(c, 1), (d, 1)]), cancelling)
    assert got.terms == reference(ring, [(tensor_token(c, b), 2), (tensor_token(d, b), 2)])
    assert tensor_token(b, c) not in got.terms


@pytest.mark.parametrize("ring", [F2, F3, F5])
def test_bilinear_drops_a_coefficient_equal_to_p(ring):
    b, c = TOKENS[1], TOKENS[2]

    def p_times(s, t):
        return ((tensor_token(s, t), ring.p), (tensor_token(t, s), 1))

    got = Element.from_token(ring, b).bilinear(Element.from_token(ring, c), p_times)
    assert got.terms == {tensor_token(c, b): 1}


@given(rings, st.lists(pair_lists, max_size=3), coefficients)
def test_tensor_product_is_the_dict_of_sums(ring, factor_pairs, coeff):
    factors = [Element(ring, pairs) for pairs in factor_pairs]
    partial = [((), coeff)]
    for x in factors:
        partial = [(ts + (t,), c * ct) for ts, c in partial for t, ct in x.items()]
    got = tensor_product(ring, factors, coeff)
    assert got.terms == reference(ring, [(tensor_token(*ts), c) for ts, c in partial])


@given(rings, pair_lists, pair_lists, pair_lists)
def test_tensor_product_is_associative(ring, xs, ys, zs):
    x, y, z = Element(ring, xs), Element(ring, ys), Element(ring, zs)
    flat = tensor_product(ring, [x, y, z])
    left = tensor_product(ring, [tensor_product(ring, [x, y]), z],
                          join=lambda ts: tensor_token(*ts[0].data, ts[1]))
    right = tensor_product(ring, [x, tensor_product(ring, [y, z])],
                           join=lambda ts: tensor_token(ts[0], *ts[1].data))
    assert left == flat == right


@given(rings, pair_lists, pair_lists, pair_lists)
def test_word_products_are_associative(ring, xs, ys, zs):
    x, y, z = Element(ring, xs), Element(ring, ys), Element(ring, zs)

    def concat(words):
        return word_token(words[0].data + words[1].data)

    letters = tensor_product(ring, [x, y, z], join=word_token)
    xy = tensor_product(ring, [x, y], join=word_token)
    yz = tensor_product(ring, [y, z], join=word_token)
    x1 = tensor_product(ring, [x], join=word_token)
    z1 = tensor_product(ring, [z], join=word_token)
    assert tensor_product(ring, [xy, z1], join=concat) == letters
    assert tensor_product(ring, [x1, yz], join=concat) == letters
