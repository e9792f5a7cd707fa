"""Differential graded algebras, coalgebras, Hopf algebras, and twisting cochains.

Includes the bar and cobar constructions, the canonical twisting cochains
and their induced maps, bar/cobar adjunction maps, cartesian products of
twisting cochains, tensor products of (co)algebras, convolution powers,
and Hirsch coalgebras.  A chain Hopf algebra is built from its parts, its
complex, unit, product and Delta, as one object that is both its DGAlgebra
and its DGCoalgebra, so a product, a unit and a comultiplication each have
one owner.  A Hirsch coalgebra C is the chain Hopf algebra
(Cobar C, psi) of its loop comultiplication psi, and so its own Cobar C,
with each letter's image under psi built once.
"""

from .chains import (
    ChainComplex, DegreeOverflowError, Element, GradedBasis, InfiniteTypeError, LinearMap, Table,
    add_maps, identity_map, parity_sign, suspend, desuspend,
    tensor_map, tensor_maps, tensor_product, tensor_token, word_token,
)


class _OnComplex:
    """What an algebra and a coalgebra read off their one chain complex."""

    @property
    def ring(self):
        return self.complex.ring

    @property
    def d(self):
        return self.complex.d

    @property
    def max_degree(self):
        return self.complex.max_degree


class DGAlgebra(_OnComplex):
    """Augmented chain algebra whose augmentation is the indicator of the unit.

    The algebra is given by one product function: product(a, b) on basis
    tokens returns the (token, coefficient) pairs of ab as a tuple, list or
    items view, unreduced (tokens may repeat, coefficients need not be
    reduced mod p), and () for zero.  multiply merges all products of two
    elements into one Element; mult(a, b) is the product of two tokens as
    an Element.  The basis must be aligned with the augmentation: it kills
    every basis token but the unit (fixtures are stated in such a basis).
    """

    def __init__(self, complex_, unit, product, name=""):
        self.complex = complex_
        self.unit = unit
        self.product = product
        self.name = name or complex_.name

    def augmentation(self, tok):
        return 1 if tok is self.unit else 0

    def mult(self, a, b):
        return Element(self.ring, self.product(a, b))

    def multiply(self, x, y):
        """Product of two elements (no Koszul signs: values, not maps)."""
        return x.bilinear(y, self.product)

    def multiply_all(self, elements):
        """The product x_1 ... x_k of a list of elements, folded by
        multiply_terms; x_1 itself for k = 1 and the unit for k = 0."""
        if elements[1:]:
            return self.multiply_terms([x.terms.items() for x in elements])
        return elements[0] if elements else Element.from_token(self.ring, self.unit)

    def multiply_terms(self, factors):
        """The product x_1 ... x_k (k >= 1) of term lists, each an iterable of
        (token, coefficient) pairs such as Element.terms.items() or
        ((token, 1),), as one Element.  The left fold merges after every
        product: one product in Z[S3]'s augmentation basis has 3 terms, so an
        unmerged fold would grow like 3^k."""
        ring, product = self.ring, self.product
        out = None
        for right in factors[1:]:
            left = factors[0] if out is None else out.terms.items()
            out = Element(ring, [(u, c1 * c2 * cu) for t1, c1 in left for t2, c2 in right
                                 for u, cu in product(t1, t2)])
        return Element(ring, factors[0]) if out is None else out

    def mult_on_pairs(self, x):
        """Apply multiplication to an element of binary tensor tokens."""
        product = self.product
        return Element(self.ring, [(u, c * cu) for t, c in x.items() for u, cu in product(*t.data)])

    def aug_ideal_basis(self, n):
        toks = self.complex.basis.basis(n)
        return [t for t in toks if t is not self.unit]

    def element(self, tok, c=1):
        return Element.from_token(self.ring, tok, c)

    def check_associativity(self, through_degree):
        """First triple (a, b, c) of augmentation-ideal tokens with
        |a| + |b| + |c| <= through_degree and (ab)c != a(bc), or None."""
        def ideal(top):
            return (t for t in self.complex.basis.through(top) if t is not self.unit)

        top, mult, multiply, element = through_degree, self.mult, self.multiply, self.element
        return next(((a, b, c) for a in ideal(top) for b in ideal(top - a.degree)
                     for c in ideal(top - a.degree - b.degree)
                     if multiply(mult(a, b), element(c)) != multiply(element(a), mult(b, c))), None)

    def check_mult_is_chain_map(self, through_degree):
        """First pair (a, b) of basis tokens with |a| + |b| <= through_degree
        and d(ab) != (da)b + (-1)^|a| a(db), or None."""
        d, multiply, element = self.d, self.multiply, self.element
        return next(((a, b) for a, b in _pairs(self.complex.basis, through_degree)
                     if d(self.mult(a, b)) != multiply(d(a), element(b)) +
                     multiply(element(a), d(b)).scale(parity_sign(a.degree))), None)


def _pairs(basis, top):
    """The pairs (a, b) of basis tokens with |a| + |b| <= top, a in degree order."""
    return ((a, b) for a in basis.through(top) for b in basis.through(top - a.degree))


class DGCoalgebra(_OnComplex):
    """Coaugmented chain coalgebra; connected when degree 0 is R*1.

    The comultiplication is a LinearMap, so it caches its image of a token;
    a comult that is already a LinearMap is used as it is.  The reduced
    comultiplication filters that cached image.  The counit defaults to the
    indicator of counit_token.
    """

    def __init__(self, complex_, counit_token, comult, counit=None, name=""):
        self.complex = complex_
        self.counit_token = counit_token
        self._comult = comult if isinstance(comult, LinearMap) else \
            LinearMap(complex_.ring, 0, comult, "Delta")
        self.counit = counit or (lambda tok: 1 if tok is counit_token else 0)
        self.name = name or complex_.name

    def comult(self, tok):
        return self._comult(tok)

    def reduced_comult(self, tok):
        """Drop terms with a degree-0 factor; valid for connected coalgebras."""
        if tok.degree == 0:
            return Element(self.ring)
        return Element(self.ring, [(t, c) for t, c in self._comult(tok).items()
                                   if t.data[0].degree > 0 and t.data[1].degree > 0])

    def comult_iterated(self, tok, k):
        """Full Delta^(k) as an element of k-fold tensor tokens; Delta^(2) is
        the cached Delta(tok) itself."""
        return _split_first_iterated(self.ring, tok, self._comult, k)

    def is_connected(self):
        return self.complex.basis.basis(0) == [self.counit_token]

    def _checked_tokens(self, through_degree):
        """The tokens the coalgebra checks below read: the basis through
        through_degree, in degree order."""
        return self.complex.basis.through(through_degree)

    def check_coassociativity(self, through_degree):
        """First checked token with (Delta (x) Id) Delta != (Id (x) Delta) Delta, or None."""
        return next((t for t in self._checked_tokens(through_degree)
                     if self.comult_iterated(t, 3) != _split_last(self.ring, t, self._comult)), None)

    def check_counitality(self, through_degree):
        """First checked token x with (eps (x) Id) Delta x != x or
        (Id (x) eps) Delta x != x, or None."""
        ring, counit = self.ring, self.counit

        def counital(x):
            pairs = [(t.data, c) for t, c in self._comult(x).items()]
            one = Element.from_token(ring, x)
            return Element(ring, [(v, c * counit(u)) for (u, v), c in pairs]) == one and \
                Element(ring, [(u, c * counit(v)) for (u, v), c in pairs]) == one

        return next((x for x in self._checked_tokens(through_degree) if not counital(x)), None)

    def check_comult_is_chain_map(self, through_degree):
        """First checked token with d Delta != Delta d, or None."""
        dT = _tensor_complex((self, self), None).d
        return next((t for t in self._checked_tokens(through_degree)
                     if dT(self._comult(t)) != self.d(t).apply(self._comult)), None)

    def check_cocommutativity(self, through_degree):
        """First checked token with tau Delta != Delta, or None."""
        return next((t for t in self._checked_tokens(through_degree)
                     if twist_tensor(self.ring, self._comult(t)) != self._comult(t)), None)


def _split_first_iterated(ring, tok, split, k):
    """(split (x) Id^(k-2)) ... (split (x) Id) split (tok): the left-iterated
    k-fold splitting of tok, in flat k-fold tensor tokens.  k = 2 returns
    split(tok) itself, k = 1 the one-fold tensor token of tok."""
    if k == 1:
        return Element.from_token(ring, tensor_token(tok))
    out = split(tok)
    for _ in range(k - 2):
        out = Element(ring, [(tensor_token(*(u.data + t.data[1:])), c * cu)
                             for t, c in out.items() for u, cu in split(t.data[0]).items()])
    return out


def _split_last(ring, tok, split):
    """(Id (x) split) split (tok) in flat 3-fold tensor tokens."""
    return Element(ring, [(tensor_token(t.data[0], *u.data), c * cu)
                          for t, c in split(tok).items() for u, cu in split(t.data[1]).items()])


def twist_tensor(ring, x):
    """Symmetry isomorphism on binary tensor tokens with Koszul sign."""
    return Element(ring, [(tensor_token(*t.data[::-1]),
                           c * parity_sign(t.data[0].degree * t.data[1].degree))
                          for t, c in x.items()])


class HopfAlgebra(DGAlgebra, DGCoalgebra):
    """Chain Hopf algebra built from its complex, unit, product and Delta
    (comult): one object that is both the DGAlgebra of the product and the
    DGCoalgebra of comult on that complex, counital at the unit.  Its counit
    is its augmentation.  A group ring R[G] declares its group as
    group_table, the dict (a, b) -> c of its basis tokens with
    (1 + a)(1 + b) = 1 + c; it is None for every other Hopf algebra."""

    group_table = None

    def __init__(self, complex_, unit, product, comult, name=""):
        DGAlgebra.__init__(self, complex_, unit, product, name)
        DGCoalgebra.__init__(self, complex_, unit, comult, counit=self.augmentation,
                             name=self.name)

    @property
    def algebra(self):
        """The underlying chain algebra: this structure itself."""
        return self

    def comult(self, tok):
        # defined here, not inherited, so that a profile counts the
        # comultiplications of Hopf algebras apart from those of coalgebras
        return self._comult(tok)

    def check_comult_is_algebra_map(self, through_degree):
        """First pair (a, b) of basis tokens with |a| + |b| <= through_degree
        and delta(ab) != delta(a)delta(b) in the Koszul-signed tensor square,
        or None."""
        sq = tensor_algebra(self, self, max_degree=through_degree)
        comult = self._comult
        return next(((a, b) for a, b in _pairs(self.complex.basis, through_degree)
                     if self.mult(a, b).apply(comult) != sq.multiply(comult(a), comult(b))), None)


# ---------------------------------------------------------------------------
# Twisting cochains


class TwistingCochain:
    """Degree -1 map from a connected coalgebra to an augmented algebra
    satisfying d t + t d = m (t (x) t) Delta, vanishing on the coaugmentation.

    cuts(y) returns (left, right), the cuts (u, v, c) of Delta(y) = sum c u (x) v
    on which t(v), and on which t(u), may be nonzero, each in the order of
    Delta(y).  d_t (hochschild_general) reads both lists and beta_t
    (coalgebra_realization) the left one.  By default both are every cut,
    with Delta(y) read once through the source's Delta fn, so its cache
    stays empty; t has degree -1, so it vanishes on C_0 and a y of degree 0
    has no cuts.  A t that knows where it vanishes passes a closed form as
    cuts.
    """

    def __init__(self, source, target, tmap, name="", cuts=None):
        self.source = source
        self.target = target
        self.map = tmap
        self.name = name
        if cuts is not None:
            self.cuts = cuts

    @property
    def ring(self):
        return self.source.ring

    def cuts(self, y):
        if not y.degree:
            return [], []
        every = [(*pair.data, c) for pair, c in self.source._comult.fn(y).items()]
        return every, every

    def brown_defect(self, tok):
        """d t(c) + t(d c) - m (t (x) t) Delta(c)."""
        t2 = tensor_map(self.map, self.map)
        lhs = self.target.d(self.map(tok)) + self.map(self.source.d(tok))
        rhs = self.target.mult_on_pairs(t2(self.source.comult(tok)))
        return lhs - rhs


def check_twisting(t, through_degree):
    """First source token of degree <= through_degree on which the twisting
    condition fails, or None."""
    return next((c for c in t.source.complex.basis.through(through_degree)
                 if not t.brown_defect(c).is_zero()), None)


# ---------------------------------------------------------------------------
# Bar construction


def _word_basis(letter_basis, words, n):
    """All words of letters (from letter_basis(d)) with total degree n, first
    letter outermost: each letter of degree d = 1..n, then each word of
    words(n - d), the lower degrees that the same GradedBasis has already
    built and cached (it then sorts degree n by sort_key)."""
    if n == 0:
        return [word_token(())]
    return [word_token((l,) + w.data) for d in range(1, n + 1) for l in letter_basis(d)
            for w in words(n - d)]


def _word_differential(ring, letters, merged=None):
    """The differential of a bar or cobar construction on words l_1|...|l_k:
    the sum over the letters l_j of the passage sign times the word with l_j
    replaced by each letter tuple w of letters[l_j] and, given merged, with
    l_j|l_(j+1) replaced by each letter tuple w of merged[l_j, l_(j+1)], each
    with the coefficient of w.  The passage sign (-1)^(degree before the
    letter) starts at 1 and flips after each odd letter."""
    def differential(tok):
        word = tok.data
        pairs = []
        passage = 1
        for j, letter in enumerate(word):
            head, tail = word[:j], word[j + 1:]
            pairs += [(word_token(head + w + tail), passage * c) for w, c in letters[letter]]
            if merged is not None and tail:
                pairs += [(word_token(head + w + tail[1:]), passage * c)
                          for w, c in merged[letter, tail[0]]]
            if letter.degree % 2:
                passage = -passage
        return Element(ring, pairs)

    return differential


def bar_construction(A, max_degree=None):
    """Tensor coalgebra on the suspended augmentation ideal with the
    two-term bar differential; comultiplication splits words.

    d_Bar is the _word_differential of two Tables, each filled once per key:
    internal[s(a)] holds the letters s(u) of da with the sign -1 of d passing
    s, read through A.d's cache; merged[s(a), s(b)] holds the letters s(u) of
    ab, read through A.product, with the merge sign (-1)^|s(a)|.  Both hold
    one-letter tuples; terms on the unit are dropped.  d_Bar does not read
    Delta."""
    ring = A.ring
    if max_degree is None:
        max_degree = A.max_degree + 1

    def letter_basis(d):
        # letters s(a), a in the augmentation ideal of degree d-1
        return [suspend(a) for a in A.aug_ideal_basis(d - 1)]

    basis = GradedBasis(ring, lambda n: _word_basis(letter_basis, basis.basis, n), max_degree,
                        name="Bar(%s)" % A.name)
    internal = Table(lambda letter: [((suspend(u),), -c) for u, c
                                     in A.d(desuspend(letter)).items() if u is not A.unit])
    merged = Table(lambda pair: [((suspend(u),), parity_sign(pair[0].degree) * c) for u, c
                                 in A.product(desuspend(pair[0]), desuspend(pair[1]))
                                 if u is not A.unit])
    d = LinearMap(ring, -1, _word_differential(ring, internal, merged), "d_Bar")
    cx = ChainComplex(basis, d, name="Bar(%s)" % A.name)

    def comult(tok):
        letters = tok.data
        return Element(ring, [(tensor_token(word_token(letters[:k]), word_token(letters[k:])), 1)
                              for k in range(len(letters) + 1)])

    return DGCoalgebra(cx, word_token(()), comult, name="Bar(%s)" % A.name)


def bar_word(ring, elements, unit):
    """s x_1 | ... | s x_k for algebra elements x_i, dropping unit terms."""
    letters = [Element(ring, [(suspend(u), c) for u, c in x.items() if u is not unit])
               for x in elements]
    return tensor_product(ring, letters, join=word_token)


def bar_map(g, Aprime):
    """Bar functor on an algebra map g: A -> Aprime, letterwise application."""
    ring = g.ring

    def fn(tok):
        return bar_word(ring, [g(desuspend(letter)) for letter in tok.data], Aprime.unit)

    return LinearMap(ring, 0, fn, "Bar(g)")


# ---------------------------------------------------------------------------
# Cobar construction


def cobar_construction(C, max_degree=None):
    """Tensor algebra on the desuspended coaugmentation coideal with the
    cobar differential; multiplication concatenates.

    d_Cobar is the _word_differential of one Table, filled once per letter:
    images[s^{-1}c] holds the letter tuples and coefficients of d on the
    one-letter word, -s^{-1}(dc) + sum (-1)^|c_i| s^{-1}c_i | s^{-1}c^i,
    reading dc through C.d and the reduced comultiplication through C's
    cached Delta."""
    ring = C.ring
    if not C.is_connected():
        raise ValueError("cobar needs a connected coalgebra, got %s" % C.name)
    if max_degree is None:
        max_degree = max(C.max_degree - 1, 0)
    try:
        degree_one = C.complex.basis.basis(1)
        problem = degree_one and InfiniteTypeError(
            "cobar of %s is not finite type per degree: C_1 != 0, it holds %r"
            % (C.name, degree_one[0]))
    except DegreeOverflowError:
        problem = DegreeOverflowError(
            "cobar of %s needs C_1 = 0, but %s is truncated below degree 1" % (C.name, C.name))

    if not problem:
        def letter_basis(d):
            return [desuspend(c) for c in C.complex.basis.basis(d + 1)]
        basis_fn = lambda n: _word_basis(letter_basis, basis.basis, n)
    else:
        def basis_fn(n):
            raise problem

    basis = GradedBasis(ring, basis_fn, max_degree, name="Cobar(%s)" % C.name)

    def letter_terms(letter):
        y = suspend(letter)
        return [((desuspend(u),), -c) for u, c in C.d(y).items() if u.degree > 0] + \
            [((desuspend(t.data[0]), desuspend(t.data[1])), parity_sign(t.data[0].degree) * c)
             for t, c in C.reduced_comult(y).items()]

    d = LinearMap(ring, -1, _word_differential(ring, Table(letter_terms)), "d_Cobar")
    cx = ChainComplex(basis, d, name="Cobar(%s)" % C.name)

    def product(u, v):
        return ((word_token(u.data + v.data), 1),)

    return DGAlgebra(cx, word_token(()), product, name="Cobar(%s)" % C.name)


def cobar_map(f):
    """Cobar functor on a coalgebra map f: letterwise application."""
    ring = f.ring

    def fn(tok):
        letters = [Element(ring, [(desuspend(u), c) for u, c in f(suspend(letter)).items()
                                  if u.degree > 0])
                   for letter in tok.data]
        return tensor_product(ring, letters, join=word_token)

    return LinearMap(ring, 0, fn, "Cobar(f)")


# ---------------------------------------------------------------------------
# Canonical twisting cochains, alpha/beta, adjunction maps


def universal_twisting(C, cobar=None):
    """t: C -> Cobar C, c |-> s^{-1}c (0 in degree 0)."""
    omega = cobar if cobar is not None else cobar_construction(C)
    ring = C.ring

    def fn(tok):
        if tok.degree == 0:
            return Element(ring)
        return Element.from_token(ring, word_token((desuspend(tok),)))

    return TwistingCochain(C, omega, LinearMap(ring, -1, fn, "t_univ"), "t_univ")


def couniversal_twisting(A, bar=None):
    """t: Bar A -> A, s a |-> a, longer words |-> 0.

    t is nonzero on one-letter words only, and Delta deconcatenates, so its
    cuts are closed: of the n + 1 cuts of an n-letter word y, left is the one
    that splits off the last letter and right the one that splits off the
    first, each with coefficient 1 (the first and last faces of Loday's b).
    A two-letter word's middle cut is in both lists, a one-letter word's
    are the two counit cuts, and the empty word has none.  Delta is not
    read, by d_t or by beta_t."""
    barA = bar if bar is not None else bar_construction(A)
    ring = A.ring

    def fn(tok):
        if len(tok.data) != 1:
            return Element(ring)
        return Element.from_token(ring, desuspend(tok.data[0]))

    def cuts(y):
        letters = y.data
        if not letters:
            return [], []
        return ([(word_token(letters[:-1]), word_token(letters[-1:]), 1)],
                [(word_token(letters[:1]), word_token(letters[1:]), 1)])

    return TwistingCochain(barA, A, LinearMap(ring, -1, fn, "t_couniv"), "t_couniv", cuts)


def algebra_realization(t):
    """alpha_t: Cobar C -> A, the multiplicative extension of t."""
    A = t.target

    def fn(tok):
        return A.multiply_all([t.map(suspend(letter)) for letter in tok.data])

    return LinearMap(t.ring, 0, fn, "alpha_t")


def coalgebra_realization(t):
    """beta_t: C -> Bar A, sum_k (s t)^{(x)k} Delta-bar^(k), in closed form.

    With Delta-bar^(k) = (Delta-bar^(k-1) (x) 1) Delta-bar, beta_t(y) is the
    sum of c beta_t(u) | s t(v) over the left cuts (u, v, c) of t.cuts(y),
    and beta_t(1) is the empty word: the counit cut (1, y) gives the
    one-letter term s t(y), and t vanishes on the other counit cut.  s t has
    degree 0, so no Koszul signs arise.  letters[v] holds the letters s t(v),
    unit terms dropped, and beta_t(u) is read only where they are nonzero.
    For the couniversal t the one left cut of a word splits off its last
    letter, so beta_t is the identity and reads no Delta.
    """
    ring = t.ring
    unit = t.target.unit
    letters = Table(lambda v: [(suspend(a), c) for a, c in t.map(v).items() if a is not unit])

    def fn(tok):
        if tok.degree == 0:
            return Element.from_token(ring, word_token(()))
        left, _ = t.cuts(tok)
        return Element(ring, [(word_token(w.data + (l,)), c * cl * cw) for u, v, c in left
                              for l, cl in letters[v] for w, cw in beta(u).items()])

    beta = LinearMap(ring, 0, fn, "beta_t")
    return beta


def bar_cobar_unit(C, cobar=None):
    """eta_C: C -> Bar Cobar C (= beta of the universal twisting cochain)."""
    return coalgebra_realization(universal_twisting(C, cobar))


def cobar_bar_counit(A, bar=None):
    """eps_A: Cobar Bar A -> A (= alpha of the couniversal twisting cochain)."""
    return algebra_realization(couniversal_twisting(A, bar))


def bar_cobar_retraction(C):
    """rho_C: Bar Cobar C -> C, s(s^{-1}c) |-> c, all other words |-> 0."""
    ring = C.ring

    def fn(tok):
        if tok.data == ():
            return Element.from_token(ring, C.counit_token)
        if len(tok.data) == 1:
            inner = desuspend(tok.data[0])  # a cobar word
            if inner.kind == "word" and len(inner.data) == 1:
                return Element.from_token(ring, suspend(inner.data[0]))
        return Element(ring)

    return LinearMap(ring, 0, fn, "rho_C")


def cobar_bar_section(A):
    """sigma_A: A -> Cobar Bar A, a |-> s^{-1}(s a)."""
    ring = A.ring

    def fn(tok):
        if tok is A.unit:
            return Element.from_token(ring, word_token(()))
        return Element.from_token(ring, word_token((desuspend(word_token((suspend(tok),))),)))

    return LinearMap(ring, 0, fn, "sigma_A")


# ---------------------------------------------------------------------------
# Tensor products of algebras and coalgebras


def _tensor_complex(factors, max_degree):
    """Basis of flat tensor tokens and the Koszul-signed Leibniz differential
    for the tensor product of the complexes of the given (co)algebras."""
    ring = factors[0].ring
    if max_degree is None:
        max_degree = min(f.max_degree for f in factors)
    n_factors = len(factors)

    def basis_fn(n):
        out = []

        def build(i, remaining, prefix):
            if i == n_factors:
                if remaining == 0:
                    out.append(tensor_token(*prefix))
                return
            for d in range(0, remaining + 1):
                if i == n_factors - 1 and d != remaining:
                    continue
                for t in factors[i].complex.basis.basis(d):
                    build(i + 1, remaining - d, prefix + [t])

        build(0, n, [])
        return out

    name = "(x)".join(f.name for f in factors)
    basis = GradedBasis(ring, basis_fn, max_degree, name)
    d = None
    for i in range(n_factors):
        slot = [identity_map(ring)] * n_factors
        slot[i] = factors[i].complex.d
        term = tensor_maps(slot)
        d = term if d is None else add_maps(d, term)
    return ChainComplex(basis, d, name)


def tensor_algebra(*algebras, max_degree=None):
    """Componentwise algebra on flat tensor tokens with Koszul signs."""
    cx = _tensor_complex(algebras, max_degree)
    unit = tensor_token(*[a.unit for a in algebras])
    products = [a.product for a in algebras]

    def product(s, t):
        # interleave a_1..a_n b_1..b_n: each b_i passes a_j for j > i
        later, exponent = s.degree, 0
        for a, b in zip(s.data, t.data):
            later -= a.degree
            exponent += b.degree * later
        partial = [((), parity_sign(exponent))]
        for prod, a, b in zip(products, s.data, t.data):
            factor = prod(a, b)
            partial = [(us + (u,), c * cu) for us, c in partial for u, cu in factor]
        return [(tensor_token(*us), c) for us, c in partial]

    return DGAlgebra(cx, unit, product, cx.name)


def _tensor_comult(coalgebras):
    """The componentwise comultiplication on flat tensor tokens of the given
    coalgebras, with the Koszul sign of the unshuffle."""
    ring = coalgebras[0].ring

    def unshuffle(pairs):
        return tensor_token(tensor_token(*[t.data[0] for t in pairs]),
                            tensor_token(*[t.data[1] for t in pairs]))

    def unshuffle_sign(tok):
        # unshuffle x_1 y_1..x_n y_n to x_1..x_n y_1..y_n: each y_i passes x_j for j > i
        left, right = tok.data
        later, exponent = left.degree, 0
        for x, y in zip(left.data, right.data):
            later -= x.degree
            exponent += y.degree * later
        return parity_sign(exponent)

    def comult(tok):
        expanded = tensor_product(ring, [c.comult(part) for c, part in zip(coalgebras, tok.data)],
                                  join=unshuffle)
        return Element(ring, [(t, c * unshuffle_sign(t)) for t, c in expanded.items()])

    return comult


def tensor_coalgebra(*coalgebras, max_degree=None):
    """Componentwise coalgebra on flat tensor tokens with Koszul signs."""
    cx = _tensor_complex(coalgebras, max_degree)

    def counit(tok):
        v = 1
        for c, part in zip(coalgebras, tok.data):
            v *= c.counit(part)
        return v

    return DGCoalgebra(cx, tensor_token(*[c.counit_token for c in coalgebras]),
                       _tensor_comult(coalgebras), counit, cx.name)


def hopf_tensor_power(H, r, max_degree=None):
    """H^{(x)r} with componentwise Hopf structure, on the complex of its
    tensor algebra."""
    algebra = tensor_algebra(*([H] * r), max_degree=max_degree)
    return HopfAlgebra(algebra.complex, algebra.unit, algebra.product, _tensor_comult([H] * r))


# ---------------------------------------------------------------------------
# Cartesian product of twisting cochains; Milgram splitting


def cartesian_product(t, tprime):
    """t * t' = t (x) eta' eps' + eta eps (x) t' on C (x) C' -> A (x) A'."""
    if t.ring != tprime.ring:
        raise ValueError("ring mismatch")
    ring = t.ring
    C = tensor_coalgebra(t.source, tprime.source)
    A = tensor_algebra(t.target, tprime.target)

    def fn(tok):
        c, cprime = tok.data
        pairs = []
        eps = tprime.source.counit(cprime) if cprime.degree == 0 else 0
        if eps:
            pairs += [(tensor_token(u, tprime.target.unit), coeff * eps)
                      for u, coeff in t.map(c).items()]
        eps = t.source.counit(c) if c.degree == 0 else 0
        if eps:
            pairs += [(tensor_token(t.target.unit, u), coeff * eps)
                      for u, coeff in tprime.map(cprime).items()]
        return Element(ring, pairs)

    return TwistingCochain(C, A, LinearMap(ring, -1, fn, "t*t'"), "%s*%s" % (t.name, tprime.name))


def cobar_tensor_splitting(C, Cprime):
    """Milgram's algebra map q: Cobar(C (x) C') -> Cobar C (x) Cobar C'."""
    t = cartesian_product(universal_twisting(C), universal_twisting(Cprime))
    return algebra_realization(t), t.target


# ---------------------------------------------------------------------------
# Convolution powers


def convolution(H, f, g):
    """f * g = mu (f (x) g) delta on a Hopf algebra."""
    fg = tensor_map(f, g)

    def fn(tok):
        return H.mult_on_pairs(fg(H.comult(tok)))

    return LinearMap(H.ring, f.shift + g.shift, fn, "%s*%s" % (f.name, g.name))


def convolution_power(H, r):
    """lambda_r = mu^(r) delta^(r); only positive powers are defined."""
    if r < 1:
        raise ValueError("convolution power requires r >= 1")

    def fn(tok):
        return H.comult_iterated(tok, r).apply(
            lambda t: H.multiply_terms([((u, 1),) for u in t.data]))

    return LinearMap(H.ring, 0, fn, "lambda_%d" % r)


# ---------------------------------------------------------------------------
# Hirsch coalgebras


class HirschCoalgebra(HopfAlgebra):
    """Connected coalgebra C with a coassociative loop comultiplication:
    an algebra map psi: Cobar C -> Cobar C (x) Cobar C, given on generators.
    It builds Cobar C itself and is the chain Hopf algebra (Cobar C, psi) on
    its complex, unit and product, so it is its own Cobar C (cobar) and its
    own loop Hopf algebra (loop_hopf).

    psi is the Hopf algebra's one comultiplication LinearMap, cached per
    cobar word; it is _gen on a letter.  As psi is an algebra map and Cobar C
    is free, psi(l_1|...|l_k) is the cached psi(l_1|...|l_{k-1}) times the
    cached psi(l_k) in the closed form (a (x) b)(a' (x) b') =
    (-1)^{|b||a'|} aa' (x) bb', each concatenation aa' read from one Table
    keyed by the word pair.  psi, comult and comult_iterated read one cache.

    The coalgebra checks (coassociativity, chain map, cocommutativity) read
    the generators s^{-1}c alone, c in C_1..C_{n+1} for a check through
    degree n, and name the one-letter word on which psi fails.
    """

    def __init__(self, C, generator_images, name=""):
        self.C = C
        self._gen = generator_images  # letter token -> Element in the square
        self._concat = Table(lambda pair: word_token(pair[0].data + pair[1].data))
        omega = cobar_construction(C)
        super().__init__(omega.complex, omega.unit, omega.product,
                         LinearMap(C.ring, 0, self._psi_image, "psi"),
                         name=name or "Hirsch(%s)" % C.name)

    @property
    def cobar(self):
        """Cobar C: this structure itself."""
        return self

    def psi(self, tok):
        """Algebra-map extension to cobar words."""
        return self._comult(tok)

    def _psi_image(self, tok):
        """psi(l_1|...|l_k) = psi(l_1|...|l_{k-1}) . psi(l_k) in closed form:
        the term pair a (x) b, a' (x) b' gives (-1)^{|b||a'|} aa' (x) bb', aa'
        and bb' read from the Table.  psi(l) = _gen(l); psi() = 1 (x) 1."""
        letters, concat = tok.data, self._concat
        if len(letters) < 2:
            return self._gen(letters[0]) if letters else \
                Element.from_token(self.ring, tensor_token(tok, tok))
        prefix, last = ([(t.data, c) for t, c in self._comult(word_token(w)).terms.items()]
                        for w in (letters[:-1], letters[-1:]))
        return Element(self.ring, [(tensor_token(concat[a, a2], concat[b, b2]),
                                    parity_sign(b.degree * a2.degree) * c * c2)
                                   for (a, b), c in prefix for (a2, b2), c2 in last])

    def loop_hopf(self):
        """The chain Hopf algebra (Cobar C, psi): this structure itself."""
        return self

    def _checked_tokens(self, through_degree):
        """The one-letter words s^{-1}c for c in C_1..C_min(through_degree + 1,
        C.max_degree): psi is an algebra map, so an identity between algebra
        maps built from psi holds on Cobar C if it holds on these generators."""
        top = min(through_degree + 1, self.C.max_degree)
        return (word_token((desuspend(c),)) for c in self.C.complex.basis.through(top, 1))


def hirsch_primitive(C, overrides=None, name=""):
    """Hirsch structure with primitive generators, with optional overrides.

    Covers double-suspension chains (trivial reduced comultiplication) and
    explicitly given loop comultiplications like hand-built fixtures.  Like
    every HirschCoalgebra it builds its own Cobar C.
    """
    ring = C.ring
    overrides = overrides or {}
    empty = word_token(())

    def gen(letter):
        if letter in overrides:
            return overrides[letter]
        w = word_token((letter,))
        return Element(ring, [(tensor_token(w, empty), 1), (tensor_token(empty, w), 1)])

    return HirschCoalgebra(C, gen, name=name)
