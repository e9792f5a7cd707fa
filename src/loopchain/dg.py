"""Differential graded algebras, coalgebras, Hopf algebras, and twisting cochains.

Includes the bar and cobar constructions, the canonical twisting cochains
and their induced maps, bar/cobar adjunction maps, cartesian products of
twisting cochains, tensor products of (co)algebras, convolution powers,
and Hirsch coalgebra structures on cobar constructions.
"""

from .chains import (
    ChainComplex, DegreeOverflowError, Element, GradedBasis, InfiniteTypeError, LinearMap,
    add_maps, identity_map, koszul_sign, parity_sign, suspend, desuspend,
    tensor_map, tensor_maps, tensor_product, tensor_token, word_token,
)


def unit_augmentation(ring, unit_token):
    def aug(tok):
        return 1 if tok is unit_token else 0
    return aug


class DGAlgebra:
    """Augmented chain algebra with a basis-aligned augmentation.

    mult(tok, tok) returns an Element; non-unit basis tokens must be
    killed by the augmentation (fixtures are stated in such a basis).
    """

    def __init__(self, complex_, unit, mult, augmentation=None, name=""):
        self.complex = complex_
        self.unit = unit
        self._mult = mult
        self.augmentation = augmentation or unit_augmentation(complex_.ring, unit)
        self.name = name or complex_.name

    @property
    def ring(self):
        return self.complex.ring

    @property
    def d(self):
        return self.complex.d

    @property
    def max_degree(self):
        return self.complex.max_degree

    def mult(self, a, b):
        return self._mult(a, b)

    def multiply(self, x, y):
        """Product of two elements (no Koszul signs: values, not maps)."""
        return x.bilinear(y, self._mult)

    def multiply_all(self, elements):
        out = Element.from_token(self.ring, self.unit)
        for e in elements:
            out = self.multiply(out, e)
        return out

    def mult_on_pairs(self, x):
        """Apply multiplication to an element of binary tensor tokens."""
        return x.apply(lambda t: self._mult(*t.data))

    def aug_ideal_basis(self, n):
        toks = self.complex.basis.basis(n)
        return [t for t in toks if t is not self.unit]

    def is_connected(self):
        return self.complex.basis.basis(0) == [self.unit]

    def element(self, tok, c=1):
        return Element.from_token(self.ring, tok, c)

    def check_associativity(self, through_degree):
        """First violating triple, or None."""
        toks = []
        for n in range(through_degree + 1):
            toks.extend(self.aug_ideal_basis(n))
        for a in toks:
            for b in toks:
                for c in toks:
                    if a.degree + b.degree + c.degree > through_degree:
                        continue
                    lhs = self.multiply(self.mult(a, b), self.element(c))
                    rhs = self.multiply(self.element(a), self.mult(b, c))
                    if lhs != rhs:
                        return (a, b, c)
        return None

    def check_mult_is_chain_map(self, through_degree):
        """d(ab) = (da)b + (-1)^|a| a(db) on basis pairs."""
        for n in range(through_degree + 1):
            for m in range(through_degree + 1 - n):
                for a in self.complex.basis.basis(n):
                    for b in self.complex.basis.basis(m):
                        lhs = self.d(self._mult(a, b))
                        rhs = self.multiply(self.d(a), self.element(b)) + \
                            self.multiply(self.element(a), self.d(b)).scale(parity_sign(n))
                        if lhs != rhs:
                            return (a, b)
        return None


class DGCoalgebra:
    """Coaugmented chain coalgebra; connected when degree 0 is R*1.

    The comultiplication and the reduced comultiplication are LinearMaps,
    so each caches its image of a token; a comult that is already a
    LinearMap is used as it is.
    """

    def __init__(self, complex_, counit_token, comult, counit=None, name=""):
        self.complex = complex_
        self.counit_token = counit_token
        ring = complex_.ring
        self._comult = comult if isinstance(comult, LinearMap) else \
            LinearMap(ring, 0, comult, "Delta")
        self._reduced = LinearMap(ring, 0, self._reduced_image, "Delta-bar")
        self.counit = counit or unit_augmentation(ring, counit_token)
        self.name = name or complex_.name

    @property
    def ring(self):
        return self.complex.ring

    @property
    def d(self):
        return self.complex.d

    @property
    def max_degree(self):
        return self.complex.max_degree

    def comult(self, tok):
        return self._comult(tok)

    def reduced_comult(self, tok):
        """Drop terms with a degree-0 factor; valid for connected coalgebras."""
        return self._reduced(tok)

    def _reduced_image(self, tok):
        if tok.degree == 0:
            return Element(self.ring)
        return Element(self.ring, [(t, c) for t, c in self._comult(tok).items()
                                   if t.data[0].degree > 0 and t.data[1].degree > 0])

    def reduced_comult_iterated(self, tok, k):
        """Delta-bar^(k): element with k-fold tensor tokens (left-iterated)."""
        if tok.degree == 0:
            return Element(self.ring)
        return _split_first_iterated(self.ring, tok, self._reduced, k)

    def comult_iterated(self, tok, k):
        """Full Delta^(k) as an element of k-fold tensor tokens."""
        return _split_first_iterated(self.ring, tok, self._comult, k)

    def is_connected(self):
        return self.complex.basis.basis(0) == [self.counit_token]

    def element(self, tok, c=1):
        return Element.from_token(self.ring, tok, c)

    def check_coassociativity(self, through_degree):
        for n in range(through_degree + 1):
            for tok in self.complex.basis.basis(n):
                if self.comult_iterated(tok, 3) != _split_last(self.ring, tok, self._comult):
                    return tok
        return None

    def check_comult_is_chain_map(self, through_degree):
        dT = add_maps(tensor_map(self.d, identity_map(self.ring)),
                      tensor_map(identity_map(self.ring), self.d))
        for n in range(through_degree + 1):
            for tok in self.complex.basis.basis(n):
                if dT(self._comult(tok)) != self.d(tok).apply(self._comult):
                    return tok
        return None

    def is_cocommutative(self, through_degree):
        for n in range(through_degree + 1):
            for tok in self.complex.basis.basis(n):
                if twist_tensor(self.ring, self._comult(tok)) != self._comult(tok):
                    return False
        return True


def _split_first_iterated(ring, tok, split, k):
    """(split (x) Id^(k-2)) ... (split (x) Id) split (tok): the left-iterated
    k-fold splitting of tok, in flat k-fold tensor tokens."""
    out = Element.from_token(ring, tensor_token(tok))
    for _ in range(k - 1):
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


class HopfAlgebra:
    """Chain Hopf algebra: a DGAlgebra with a comultiplication."""

    def __init__(self, algebra, comult, counit=None, name=""):
        self.algebra = algebra
        self._comult = comult
        self.counit = counit or unit_augmentation(algebra.ring, algebra.unit)
        self.name = name or algebra.name

    @property
    def ring(self):
        return self.algebra.ring

    @property
    def complex(self):
        return self.algebra.complex

    @property
    def unit(self):
        return self.algebra.unit

    @property
    def d(self):
        return self.algebra.d

    def comult(self, tok):
        return self._comult(tok)

    def as_coalgebra(self):
        return DGCoalgebra(self.complex, self.unit, self._comult, self.counit, self.name)

    def comult_power(self, tok, r):
        """Full Delta^(r) with values in flat r-fold tensor tokens."""
        return _split_first_iterated(self.ring, tok, self._comult, r)

    def is_cocommutative(self, through_degree):
        return self.as_coalgebra().is_cocommutative(through_degree)

    def check_comult_is_algebra_map(self, through_degree):
        """delta(ab) = delta(a)delta(b) in the Koszul-signed tensor square."""
        A = self.algebra
        sq = tensor_algebra(A, A, max_degree=through_degree)
        for n in range(through_degree + 1):
            for m in range(through_degree + 1 - n):
                for a in A.complex.basis.basis(n):
                    for b in A.complex.basis.basis(m):
                        lhs = A.mult(a, b).apply(self._comult)
                        rhs = sq.multiply(self._comult(a), self._comult(b))
                        if lhs != rhs:
                            return (a, b)
        return None


# ---------------------------------------------------------------------------
# Twisting cochains


class TwistingCochain:
    """Degree -1 map from a connected coalgebra to an augmented algebra
    satisfying d t + t d = m (t (x) t) Delta, vanishing on the coaugmentation.
    """

    def __init__(self, source, target, tmap, name=""):
        self.source = source
        self.target = target
        self.map = tmap
        self.name = name

    @property
    def ring(self):
        return self.source.ring

    def __call__(self, x):
        return self.map(x)

    def brown_defect(self, tok):
        """d t(c) + t(d c) - m (t (x) t) Delta(c)."""
        t2 = tensor_map(self.map, self.map)
        lhs = self.target.d(self.map(tok)) + self.map(self.source.d(tok))
        rhs = self.target.mult_on_pairs(t2(self.source.comult(tok)))
        return lhs - rhs


def check_twisting(t, through_degree):
    """Verify the twisting condition on source tokens <= through_degree.

    Returns (True, None) or (False, first counterexample token).
    """
    for n in range(through_degree + 1):
        for tok in t.source.complex.basis.basis(n):
            if not t.brown_defect(tok).is_zero():
                return False, tok
    return True, None


# ---------------------------------------------------------------------------
# Bar construction


def _word_basis(letter_basis, n, min_letter_degree=1):
    """All words of letters (from letter_basis(d)) with total degree n."""
    if n == 0:
        return [word_token(())]
    out = []

    def extend(prefix, remaining):
        if remaining == 0:
            out.append(word_token(tuple(prefix)))
            return
        for d in range(min_letter_degree, remaining + 1):
            for letter in letter_basis(d):
                prefix.append(letter)
                extend(prefix, remaining - d)
                prefix.pop()

    extend([], n)
    return out


def bar_construction(A, max_degree=None):
    """Tensor coalgebra on the suspended augmentation ideal with the
    two-term bar differential; comultiplication splits words."""
    ring = A.ring
    if max_degree is None:
        max_degree = A.max_degree + 1

    def letter_basis(d):
        # letters s(a), a in the augmentation ideal of degree d-1
        return [suspend(a) for a in A.aug_ideal_basis(d - 1)]

    basis = GradedBasis(ring, lambda n: _word_basis(letter_basis, n), max_degree,
                        name="Bar(%s)" % A.name)

    def differential(tok):
        letters = tok.data
        pairs = []
        prefix_deg = 0
        for j, letter in enumerate(letters):
            a = desuspend(letter)
            passage = parity_sign(prefix_deg)
            # internal part: s(da_j), entering with operator degree -1
            pairs += [(word_token(letters[:j] + (suspend(u),) + letters[j + 1:]), -passage * c)
                      for u, c in A.d(a).items() if u is not A.unit]
            # merge part: s(a_j a_{j+1})
            if j + 1 < len(letters):
                b = desuspend(letters[j + 1])
                merge_sign = passage * parity_sign(letter.degree)
                pairs += [(word_token(letters[:j] + (suspend(u),) + letters[j + 2:]),
                           merge_sign * c)
                          for u, c in A.mult(a, b).items() if u is not A.unit]
            prefix_deg += letter.degree
        return Element(ring, pairs)

    d = LinearMap(ring, -1, differential, "d_Bar")
    cx = ChainComplex(basis, d, name="Bar(%s)" % A.name)
    empty = word_token(())

    def comult(tok):
        letters = tok.data
        return Element(ring, [(tensor_token(word_token(letters[:k]), word_token(letters[k:])), 1)
                              for k in range(len(letters) + 1)])

    return DGCoalgebra(cx, empty, comult, name="Bar(%s)" % A.name)


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
    cobar differential; multiplication concatenates."""
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
        basis_fn = lambda n: _word_basis(letter_basis, n)
    else:
        def basis_fn(n):
            raise problem

    basis = GradedBasis(ring, basis_fn, max_degree, name="Cobar(%s)" % C.name)

    def letter_image(letter):
        """d on a generator: -s^{-1}(dc) + sum +- s^{-1}c_i | s^{-1}c^i."""
        c = suspend(letter)
        return Element(ring, [(word_token((desuspend(u),)), -coeff)
                              for u, coeff in C.d(c).items() if u.degree > 0] +
                       [(word_token((desuspend(t.data[0]), desuspend(t.data[1]))),
                         parity_sign(t.data[0].degree) * coeff)
                        for t, coeff in C.reduced_comult(c).items()])

    def differential(tok):
        letters = tok.data
        pairs = []
        prefix_deg = 0
        for j, letter in enumerate(letters):
            passage = parity_sign(prefix_deg)
            pairs += [(word_token(letters[:j] + w.data + letters[j + 1:]), passage * c)
                      for w, c in letter_image(letter).items()]
            prefix_deg += letter.degree
        return Element(ring, pairs)

    d = LinearMap(ring, -1, differential, "d_Cobar")
    cx = ChainComplex(basis, d, name="Cobar(%s)" % C.name)
    empty = word_token(())

    def mult(u, v):
        return Element.from_token(ring, word_token(u.data + v.data))

    return DGAlgebra(cx, empty, mult, name="Cobar(%s)" % C.name)


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
    """t: Bar A -> A, s a |-> a, longer words |-> 0."""
    barA = bar if bar is not None else bar_construction(A)
    ring = A.ring

    def fn(tok):
        if len(tok.data) != 1:
            return Element(ring)
        return Element.from_token(ring, desuspend(tok.data[0]))

    return TwistingCochain(barA, A, LinearMap(ring, -1, fn, "t_couniv"), "t_couniv")


def algebra_realization(t):
    """alpha_t: Cobar C -> A, the multiplicative extension of t."""
    ring = t.ring
    A = t.target

    def fn(tok):
        out = Element.from_token(ring, A.unit)
        for letter in tok.data:
            out = A.multiply(out, t.map(suspend(letter)))
        return out

    return LinearMap(ring, 0, fn, "alpha_t")


def coalgebra_realization(t):
    """beta_t: C -> Bar A via iterated reduced comultiplications.

    beta(c) = sum_k (s t)^{(x)k} applied to Delta-bar^(k)(c); the operator
    s t has degree 0 so no Koszul signs arise.
    """
    ring = t.ring
    C = t.source
    A = t.target

    def word(tens):
        return bar_word(ring, [t.map(factor) for factor in tens.data], A.unit)

    def fn(tok):
        if tok.degree == 0:
            return Element.from_token(ring, word_token(()))
        return Element(ring, [term for k in range(1, tok.degree + 1)
                              for term in C.reduced_comult_iterated(tok, k).apply(word).items()])

    return LinearMap(ring, 0, fn, "beta_t")


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
    ring = algebras[0].ring
    n_factors = len(algebras)
    cx = _tensor_complex(algebras, max_degree)
    unit = tensor_token(*[a.unit for a in algebras])
    order = [k for i in range(n_factors) for k in (i, n_factors + i)]

    def mult(s, t):
        a_parts, b_parts = s.data, t.data
        sign = koszul_sign([x.degree for x in a_parts + b_parts], order)
        return tensor_product(ring, [algebras[i].mult(a_parts[i], b_parts[i])
                                     for i in range(n_factors)], sign)

    def aug(tok):
        v = 1
        for a, part in zip(algebras, tok.data):
            v *= a.augmentation(part)
        return v

    return DGAlgebra(cx, unit, mult, aug, cx.name)


def tensor_coalgebra(*coalgebras, max_degree=None):
    """Componentwise coalgebra on flat tensor tokens with Koszul signs."""
    ring = coalgebras[0].ring
    n_factors = len(coalgebras)
    cx = _tensor_complex(coalgebras, max_degree)
    counit_tok = tensor_token(*[c.counit_token for c in coalgebras])
    # the unshuffle (x1,y1,...,xn,yn) -> (x1..xn, y1..yn)
    order = list(range(0, 2 * n_factors, 2)) + list(range(1, 2 * n_factors, 2))

    def unshuffle(pairs):
        return tensor_token(tensor_token(*[t.data[0] for t in pairs]),
                            tensor_token(*[t.data[1] for t in pairs]))

    def unshuffle_sign(tok):
        left, right = tok.data
        return koszul_sign([u.degree for xy in zip(left.data, right.data) for u in xy], order)

    def comult(tok):
        expanded = tensor_product(ring, [c.comult(part) for c, part in zip(coalgebras, tok.data)],
                                  join=unshuffle)
        return Element(ring, [(t, c * unshuffle_sign(t)) for t, c in expanded.items()])

    def counit(tok):
        v = 1
        for c, part in zip(coalgebras, tok.data):
            v *= c.counit(part)
        return v

    return DGCoalgebra(cx, counit_tok, comult, counit, cx.name)


def hopf_tensor_power(H, r, max_degree=None):
    """H^{(x)r} with componentwise Hopf structure."""
    algebra = tensor_algebra(*([H.algebra] * r), max_degree=max_degree)
    coalgebra = tensor_coalgebra(*([H.as_coalgebra()] * r), max_degree=max_degree)
    return HopfAlgebra(algebra, coalgebra.comult, coalgebra.counit, name=algebra.name)


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
    ring = H.ring
    fg = tensor_map(f, g)

    def fn(tok):
        return H.algebra.mult_on_pairs(fg(H.comult(tok)))

    return LinearMap(ring, f.shift + g.shift, fn, "%s*%s" % (f.name, g.name))


def convolution_power(H, r):
    """lambda_r = mu^(r) delta^(r); only positive powers are defined."""
    if r < 1:
        raise ValueError("convolution power requires r >= 1")
    ring = H.ring

    def fn(tok):
        return H.comult_power(tok, r).apply(
            lambda t: H.algebra.multiply_all([Element.from_token(ring, u) for u in t.data]))

    return LinearMap(ring, 0, fn, "lambda_%d" % r)


# ---------------------------------------------------------------------------
# Hirsch coalgebras


class HirschCoalgebra:
    """Connected coalgebra C with a coassociative loop comultiplication:
    an algebra map psi: Cobar C -> Cobar C (x) Cobar C, given on generators.

    psi is one LinearMap, cached per cobar word.  Because psi is an algebra
    map, the image of l_1|...|l_k is the cached image of its prefix
    l_1|...|l_{k-1} times the generator image of l_k in the tensor square,
    so each distinct nonempty word asks for one generator image.  psi,
    psi_map, iterated_psi and loop_hopf all read this one cache, and
    loop_hopf returns the same HopfAlgebra on every call.
    """

    def __init__(self, C, cobar, generator_images, name=""):
        self.C = C
        self.cobar = cobar
        self.square = tensor_algebra(cobar, cobar)
        self._gen = generator_images  # letter token -> Element in the square
        self.name = name or "Hirsch(%s)" % C.name
        self._psi = LinearMap(C.ring, 0, self._psi_image, "psi")
        self._hopf = HopfAlgebra(cobar, self._psi, name="(Cobar %s, psi)" % C.name)

    @property
    def ring(self):
        return self.C.ring

    def psi(self, tok):
        """Algebra-map extension to cobar words."""
        return self._psi(tok)

    def _psi_image(self, tok):
        """psi(l_1|...|l_k) = psi(l_1|...|l_{k-1}) . psi(l_k), the prefix read
        from the cache."""
        letters = tok.data
        if not letters:
            return Element.from_token(self.ring, self.square.unit)
        if len(letters) == 1:
            return self._gen(letters[0])
        return self.square.multiply(self._psi(word_token(letters[:-1])), self._gen(letters[-1]))

    def psi_map(self):
        return self._psi

    def iterated_psi(self, tok, r):
        """psi^(r)(word) as an element of flat r-fold tensor tokens."""
        return _split_first_iterated(self.ring, tok, self._psi, r)

    def loop_hopf(self):
        """The chain Hopf algebra (Cobar C, psi)-with values through pairs."""
        return self._hopf

    def is_balanced(self, through_degree):
        """tau psi = psi on generators through the given degree."""
        for n in range(1, min(through_degree + 2, self.C.max_degree + 1)):
            for c in self.C.complex.basis.basis(n):
                letter = desuspend(c)
                img = self._gen(letter)
                if twist_tensor(self.ring, img) != img:
                    return False
        return True

    def check_chain_algebra_map(self, through_degree):
        """psi d = d psi on generators (algebra-map extension handles words)."""
        dsq = self.square.complex.d
        for n in range(1, min(through_degree + 2, self.C.max_degree + 1)):
            for c in self.C.complex.basis.basis(n):
                w = word_token((desuspend(c),))
                if dsq(self._psi(w)) != self._psi(self.cobar.d(w)):
                    return c
        return None

    def check_coassociative(self, through_degree):
        for n in range(1, min(through_degree + 2, self.C.max_degree + 1)):
            for c in self.C.complex.basis.basis(n):
                w = word_token((desuspend(c),))
                if self.iterated_psi(w, 3) != _split_last(self.ring, w, self._psi):
                    return c
        return None


def hirsch_primitive(C, cobar=None, overrides=None, name=""):
    """Hirsch structure with primitive generators, with optional overrides.

    Covers double-suspension chains (trivial reduced comultiplication) and
    explicitly given loop comultiplications like hand-built fixtures.
    """
    ring = C.ring
    omega = cobar if cobar is not None else cobar_construction(C)
    overrides = overrides or {}
    empty = word_token(())

    def gen(letter):
        if letter in overrides:
            return overrides[letter]
        w = word_token((letter,))
        return Element(ring, [(tensor_token(w, empty), 1), (tensor_token(empty, w), 1)])

    return HirschCoalgebra(C, omega, gen, name=name)


def suspension_hirsch(EL_chains, lower_comult, cobar=None, name=""):
    """Hirsch structure on the chains of a simplicial suspension.

    lower_comult maps a positive-degree token c to the part of the loop
    comultiplication coming one level down: an Element of binary tensor
    tokens (u, v) of C-tokens with |u| + |v| = |c| + 1, to be read as
    s^{-1}u (x) s^{-1}v.  Primitive terms are added automatically.
    """
    ring = EL_chains.ring
    omega = cobar if cobar is not None else cobar_construction(EL_chains)
    empty = word_token(())

    def gen(letter):
        w = word_token((letter,))
        return Element(ring, [(tensor_token(w, empty), 1), (tensor_token(empty, w), 1)] +
                       [(tensor_token(word_token((desuspend(t.data[0]),)),
                                      word_token((desuspend(t.data[1]),))), coeff)
                        for t, coeff in lower_comult(suspend(letter)).items()])

    return HirschCoalgebra(EL_chains, omega, gen, name=name)
