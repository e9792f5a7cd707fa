"""The Hochschild complex of a twisting cochain and its power maps.

For a twisting cochain t: C -> A the twisted complex (C (x) A, d_t)
interpolates between the classical Hochschild complex of an algebra and
the coHochschild complex of a coalgebra.  This module provides the
construction, strict and strong-homotopy functoriality, the monoidal
isomorphism, the induced (co)multiplications, and the r-th power maps with
their homology action.
d_t reads the cuts of Delta that meet t from the twisting cochain: for the
couniversal t of the classical complex these are the first and last faces
of Loday's b, in closed form, and for every other t all of Delta.
sh_map and power_concatenation are one formula, the extended naturality of
the paper: keep one piece of c and multiply the t-images of the others
cyclically around the coefficient.  _rotations is that formula, given the
pieces and the list of their images.  sh_map_dual is its transpose, in
closed form: one sum over Delta^(3)(c), the outer pieces read through
beta_t, which takes the cuts of Delta from the twisting cochain as d_t does.
Each map checks its hypothesis on a degree of C when it first reads a token
of it; a check_degree checks C_lowest..C_check_degree when it is built.
"""

from .chains import (
    ChainComplex, Element, GradedBasis, LinearMap, Table, identity_map,
    parity_sign, suspend, desuspend, tensor_map, tensor_product, tensor_token, word_token,
)
from .dg import (
    TwistingCochain, algebra_realization, bar_cobar_unit, bar_construction,
    cartesian_product, cobar_bar_counit, cobar_construction,
    coalgebra_realization, couniversal_twisting, hopf_tensor_power, twist_tensor,
    universal_twisting,
)
from .snf import HomologyBasis, boundary_reader


class CompatibilityError(ValueError):
    """A morphism's commuting square fails on a witness token."""

    def __init__(self, message, token):
        super().__init__("%s at %r" % (message, token))
        self.token = token


def _hypothesis(C, lowest, failure, check_degree):
    """check(n) runs failure on each token of C_lowest..C_n not checked yet and
    raises CompatibilityError at the first one it names a broken hypothesis
    for.  A map on H(t) calls check(|c|) before it reads c, whose image needs
    only C-tokens of degree <= |c|.  C_lowest..C_check_degree are checked now."""
    checked = lowest - 1

    def check(n):
        nonlocal checked
        if n <= checked:
            return
        for c in C.complex.basis.through(n, checked + 1):
            message = failure(c)
            if message is not None:
                checked = c.degree - 1  # a degree counts once all its tokens pass
                raise CompatibilityError(message, c)
        checked = n

    if check_degree is not None:
        check(check_degree)
    return check


def _rotations(pieces, images, middle, middle_degree):
    """The cyclic rotations of p_1 ... p_k around a middle of degree middle_degree.

    images lists the images of the pieces.  For each kept piece p_j returns
    (j - 1, sign, factors) with factors images[j:] + middle + images[:j - 1]
    and sign the Koszul sign of moving p_1 ... p_{j-1} past the rest,
    (-1)^(P (D - P)) for P = |p_1| + ... + |p_{j-1}| and D the degree of the
    pieces and the middle.  The images have degree 0 on the native letters,
    so they add no sign.  A one-piece word gives [(0, 1, middle)]."""
    if len(pieces) == 1:
        return [(0, 1, middle)]
    total = sum(p.degree for p in pieces) + middle_degree
    out = []
    before = 0
    for i, p in enumerate(pieces):
        out.append((i, parity_sign(before * (total - before)),
                    images[i + 1:] + middle + images[:i]))
        before += p.degree
    return out


class HochschildComplex:
    """The twisted complex (C (x) A, d_t) of t: C -> A; N = C and M = A."""

    def __init__(self, t, complex_, name=""):
        self.t = t
        self.N = t.source
        self.M = t.target
        self.complex = complex_
        self.name = name

    @property
    def ring(self):
        return self.complex.ring

    def include_fiber(self, x):
        """A -> H, x |-> counit (x) x."""
        return Element(self.ring, [(tensor_token(self.N.counit_token, tok), c)
                                   for tok, c in x.items()])

    def project_base(self, x):
        """H -> C, unit-augmentation component of the A factor."""
        return Element(self.ring, [(tok.data[0], c) for tok, c in x.items()
                                   if tok.data[1] is self.M.unit])


def hochschild_general(t, max_degree=None, name=""):
    """Hochschild complex of t: C -> A with coefficients in C and A over
    themselves.

    d_t(y (x) x) = dy (x) x + (-1)^|y| y (x) dx
                   - (-1)^|y_j| y_j (x) t(c^j).x
                   + (-1)^((|c_i|-1)(|y^i|+|x|)) y^i (x) x.t(c_i).

    Each structure is read once per token, into a Table: twisted[y] holds,
    per C-token y, the terms of dy, (-1)^|y| and the two twisted term lists,
    the terms a of (Id (x) t)Delta(y) and of (t (x) Id)Delta(y) where t is
    nonzero, with their signs except the factor (-1)^(|a||x|) of the last
    term.  The cuts (u, v, c) of Delta(y) come from t.cuts(y): the left cuts,
    whose v may be in t's support, give the first list, and the right cuts,
    whose u may be, the second.  By default these are every cut, read once
    through C's Delta fn; the couniversal t of the classical Hochschild
    complex gives the two cuts at the ends of a bar word in closed form
    (dg.couniversal_twisting) and Delta is not read.  Either way H(t) leaves
    C's Delta cache empty.  tc[c] holds the terms of t(c) for each C-token c
    on a side of a cut ({} where t vanishes), and dA[x] those of dx.  dy, t
    and dx are read through their cached LinearMaps, and the tables hold the
    terms of the Elements these return, not copies.  Each token y (x) x then
    only multiplies by x and applies that factor.
    """
    ring = t.ring
    C, A = t.source, t.target
    if max_degree is None:
        max_degree = min(C.complex.max_degree, A.complex.max_degree)
    label = name or "H(%s)" % t.name

    def basis_fn(n):
        out = []
        for i in range(n + 1):
            for y in C.complex.basis.basis(i):
                for x in A.complex.basis.basis(n - i):
                    out.append(tensor_token(y, x))
        return out

    basis = GradedBasis(ring, basis_fn, max_degree, label)
    tc = Table(lambda c: t.map(c).terms)
    dA = Table(lambda x: A.complex.d(x).terms)

    def twisted_entry(y):
        """(dy, (-1)^|y|, left, right) with left and right lists (y_j, a,
        coefficient) for t(c^j) over the left cuts and (y^i, a, coefficient)
        for t(c_i) over the right cuts, in the order of Delta(y); shared,
        never mutated."""
        left_cuts, right_cuts = t.cuts(y)
        left = [(u, a, -parity_sign(u.degree) * c * ca)
                for u, v, c in left_cuts for a, ca in tc[v].items()]
        right = [(v, a, parity_sign(a.degree * v.degree) * c * ca)
                 for u, v, c in right_cuts for a, ca in tc[u].items()]
        return C.complex.d(y).terms, parity_sign(y.degree), left, right

    twisted = Table(twisted_entry)
    product = A.product

    def differential(tok):
        y, x = tok.data
        dy, sign, left, right = twisted[y]
        pairs = [(tensor_token(u, x), c) for u, c in dy.items()]
        pairs += [(tensor_token(y, u), sign * c) for u, c in dA[x].items()]
        for u, a, c in left:
            pairs += [(tensor_token(u, m), c * cm) for m, cm in product(a, x)]
        for u, a, c in right:
            c *= parity_sign(a.degree * x.degree)
            pairs += [(tensor_token(u, m), c * cm) for m, cm in product(x, a)]
        return Element(ring, pairs)

    cx = ChainComplex(basis, LinearMap(ring, -1, differential, "d_t"), label)
    return HochschildComplex(t, cx, label)


def cohochschild_complex(C, cobar=None, max_degree=None):
    """The coHochschild complex: H of the universal twisting cochain."""
    t = universal_twisting(C, cobar)
    return hochschild_general(t, max_degree=max_degree,
                              name="coHoch(%s)" % C.name)


def hochschild_of_algebra(A, bar=None, max_degree=None):
    """The classical Hochschild complex: H of the couniversal cochain."""
    t = couniversal_twisting(A, bar)
    return hochschild_general(t, max_degree=max_degree,
                              name="Hoch(%s)" % A.name)


# ---------------------------------------------------------------------------
# Functoriality


def induced_map(f, g, t, tprime, check_degree=None):
    """H(f, g) for a Twist morphism (f, g); checks g t = t' f on the C-degrees read, from C_0."""
    ring = t.ring
    check = _hypothesis(t.source, 0, lambda c: "g t != t' f"
                        if g(t.map(c)) != tprime.map(f(c)) else None, check_degree)

    def fn(tok):
        c, a = tok.data
        check(c.degree)
        return tensor_product(ring, [f(c), g(a)])

    return LinearMap(ring, 0, fn, "H(f,g)")


def cohoch_to_hoch(t):
    """beta_t (x) alpha_t: coHoch(C) -> Hoch(A) for a twisting cochain t."""
    return induced_map(coalgebra_realization(t), algebra_realization(t),
                       universal_twisting(t.source), couniversal_twisting(t.target))


def sh_map(phi, g, t, tprime, check_degree=None):
    """Extended functoriality for (phi, g) with phi: Cobar C -> Cobar C'
    an algebra map and g an algebra map satisfying g alpha_t = alpha_t' phi.

    On c (x) a the image is the _rotations sum over the word expansion
    of phi(s^{-1}c), with the kept letter in C' and the t'-images of the
    others multiplied around g(a).  Checks the hypothesis on the C-degrees read, from C_1."""
    ring = t.ring
    A2 = tprime.target
    alpha2 = algebra_realization(tprime)
    # alpha_t(s^{-1}c) = t(c)
    check = _hypothesis(t.source, 1, lambda c: "g alpha_t != alpha_t' phi"
                        if g(t.map(c)) != alpha2(phi(word_token((desuspend(c),)))) else None,
                        check_degree)

    def fn(tok):
        c, a = tok.data
        check(c.degree)
        ga = g(Element.from_token(ring, a))
        if c.degree == 0:
            return Element(ring, [(tensor_token(tprime.source.counit_token, v), cv)
                                  for v, cv in ga.items()])
        pairs = []
        for wtok, kappa in phi(word_token((desuspend(c),))).items():
            letters = wtok.data
            images = [tprime.map(suspend(l)) for l in letters]
            for i, sign, factors in _rotations(letters, images, [ga], a.degree):
                kept = suspend(letters[i])
                pairs += [(tensor_token(kept, v), kappa * sign * cv)
                          for v, cv in A2.multiply_all(factors).items()]
        return Element(ring, pairs)

    return LinearMap(ring, 0, fn, "Hsh")


def cohoch_retraction(C, cobar=None):
    """rho-hat: Hoch(Cobar C) -> coHoch(C), a retraction of eta (x) Id."""
    omega = cobar if cobar is not None else cobar_construction(C)
    bar_omega = bar_construction(omega)
    t = couniversal_twisting(omega, bar_omega)
    tprime = universal_twisting(C, omega)
    eps = cobar_bar_counit(omega, bar_omega)
    return sh_map(eps, identity_map(C.ring), t, tprime)


def sh_map_dual(f, gamma, t, tprime, check_degree=None):
    """Extended functoriality for (f, gamma) with gamma: Bar A -> Bar A'
    a coalgebra map satisfying gamma beta_t = beta_t' f.

    The transposed formula keeps one piece p_i of each term of Delta^(k)(c),
    k >= 1, through f and sends s t(p_{i+1}) | ... | s t(p_k) | s a |
    s t(p_1) | ... | s t(p_{i-1}) through Gamma, the desuspended one-letter
    part of gamma.  Its sign (-1)^(|c| + |p_i| + P (D - P)), with
    P = |p_1| + ... + |p_{i-1}| and D = |c| + |a| + 1, is that of the
    suspension over a passing everything before it, of the final
    desuspension passing the kept piece, and of the rotation.

    Coassociativity and counitality give Delta^(m+1+n) =
    (Delta^(m) (x) 1 (x) Delta^(n)) Delta^(3), with Delta^(0) = eps, so
    the kept pieces are the middles p of the terms kappa x (x) p (x) z of
    Delta^(3)(c), and P = |x|.  t vanishes on the counit pieces, so the
    words of t-images before p sum to beta_t(x) (the empty word for x = 1)
    and those after it to beta_t(z).  Hence, as s 1 = 0 in Bar A,

        c (x) a |-> [a = 1] f(c) (x) 1 + sum kappa (-1)^(|c| + |p| + |x| (D - |x|))
                        f(p) (x) Gamma(beta_t(z) | s a | beta_t(x)).

    Checks the hypothesis on the C-degrees read, from C_0."""
    ring = t.ring
    beta = coalgebra_realization(t)
    beta2 = coalgebra_realization(tprime)
    check = _hypothesis(t.source, 0, lambda c: "gamma beta_t != beta_t' f"
                        if gamma(beta(c)) != beta2(f(c)) else None, check_degree)

    def Gamma(words):
        """t_Bar' gamma on an element of bar words."""
        return Element(ring, [(desuspend(w.data[0]), cw) for w, cw in gamma(words).items()
                              if len(w.data) == 1])

    def fn(tok):
        c, a = tok.data
        check(c.degree)
        if a is t.target.unit:
            unit2 = tprime.target.unit
            return Element(ring, [(tensor_token(u, unit2), cu) for u, cu in f(c).items()])
        sa = suspend(a)
        total = c.degree + a.degree + 1
        pairs = []
        for piece, kappa in t.source.comult_iterated(c, 3).items():
            x, p, z = piece.data
            words = Element(ring, [(word_token(wz.data + (sa,) + wx.data), cz * cx)
                                   for wz, cz in beta(z).items() for wx, cx in beta(x).items()])
            sign = kappa * parity_sign(c.degree + p.degree + x.degree * (total - x.degree))
            pairs += tensor_product(ring, [f(p), Gamma(words)], sign).items()
        return Element(ring, pairs)

    return LinearMap(ring, 0, fn, "Hsh_dual")


def hoch_section(A, bar=None):
    """sigma-hat: Hoch(A) -> coHoch(Bar A), a section of Id (x) eps."""
    barA = bar if bar is not None else bar_construction(A)
    omega_barA = cobar_construction(barA)
    t = couniversal_twisting(A, barA)
    tprime = universal_twisting(barA, omega_barA)
    eta = bar_cobar_unit(barA, omega_barA)
    return sh_map_dual(identity_map(A.ring), eta, t, tprime)


# ---------------------------------------------------------------------------
# Monoidal structure


def monoidal_iso(t, tprime):
    """H(t * t') = H(t) (x) H(t'), both ways, by the Koszul middle-four swap
    (x (x) y) (x) (z (x) w) |-> (-1)^(|y||z|) (x (x) z) (x) (y (x) w).  The
    swap is an involution, so it is its own inverse: the two maps returned,
    named monoidal and monoidal_inv, are the one swap."""
    ring = t.ring

    def swap(tok):
        (x, y), (z, w) = tok.data[0].data, tok.data[1].data
        return Element.from_token(ring, tensor_token(tensor_token(x, z), tensor_token(y, w)),
                                  parity_sign(y.degree * z.degree))

    return LinearMap(ring, 0, swap, "monoidal"), LinearMap(ring, 0, swap, "monoidal_inv")


def hochschild_comultiplication(t, omega, H, check_degree=None):
    """delta-hat: H(t) -> H(t) (x) H(t) for t: C -> H with omega realizing
    the DCSH structure of the comultiplication of C.

    Hypothesis: (alpha_t (x) alpha_t) q omega = delta alpha_t, that is
    delta alpha_t = alpha_{t*t} omega, which sh_map checks from C_1."""
    ring = t.ring
    hs = sh_map(omega, H._comult, t, cartesian_product(t, t), check_degree=check_degree)
    fwd, _ = monoidal_iso(t, t)

    def fn(tok):
        return fwd(hs(tok))

    return LinearMap(ring, 0, fn, "delta-hat")


def hochschild_multiplication(t, nu, H, check_degree=None):
    """mu-hat: H(t) (x) H(t) -> H(t) for t: H -> A with nu realizing the
    DASH structure of the multiplication of H.

    Computed through the transposed extended functoriality applied to
    (mu, nu): t*t -> t, which checks nu beta_{t*t} = beta_t mu from degree 0."""
    ring = t.ring
    tt = cartesian_product(t, t)

    def mu_fn(tok):
        u, v = tok.data
        return H.mult(u, v)

    mu = LinearMap(ring, 0, mu_fn, "mu")
    hs = sh_map_dual(mu, nu, tt, t, check_degree=check_degree)
    _, bwd = monoidal_iso(t, t)

    def fn(tok):
        return hs(bwd(tok))

    return LinearMap(ring, 0, fn, "mu-hat")


# ---------------------------------------------------------------------------
# Power maps


def _check_power(r):
    if r < 1:
        raise ValueError("power maps require r >= 1, got %r" % (r,))


def check_power_hypotheses(t, hirsch, H, alpha2, c):
    """Hypotheses of the power-map theorem on a token c of C: alpha_t is a
    coalgebra map from (Cobar C, psi) to (H, delta) on s^{-1}c, and
    delta t(c) is symmetric; alpha2 is alpha_t (x) alpha_t on one tensor
    token.  Returns the message naming a broken hypothesis, or None."""
    dt = t.map(c).apply(H.comult)  # delta alpha_t(s^{-1}c) = delta t(c)
    if hirsch.psi(word_token((desuspend(c),))).apply(alpha2) != dt:
        return "alpha_t is not a coalgebra map"
    if twist_tensor(t.ring, dt) != dt:
        return "delta t is not symmetric"


def power_domain(t, H, r, max_degree=None):
    """H(delta^(r) t): the Hochschild complex of the composed twisting
    cochain delta^(r) t: C -> H^(x)r."""
    _check_power(r)
    ring = t.ring
    Hr = hopf_tensor_power(H, r, max_degree=max_degree)

    def fn(tok):
        return t.map(tok).apply(lambda a: H.comult_iterated(a, r))

    tr = TwistingCochain(t.source, Hr, LinearMap(ring, -1, fn, "d(r)t"),
                         "delta^%d %s" % (r, t.name))
    return tr, Hr


def _concatenation_table(t, hirsch, H, r, check_degree):
    """The Table behind mu-tilde_r and lambda-tilde_r, keyed (c, wbar); see
    power_concatenation."""
    _check_power(r)
    ring = t.ring
    alpha = algebra_realization(t)
    alpha2 = tensor_map(alpha, alpha).fn  # uncached: each term of psi(s^{-1}c) is read once
    check = _hypothesis(t.source, 1, lambda c: check_power_hypotheses(t, hirsch, H, alpha2, c),
                        check_degree)
    letter = Table(lambda l: t.map(suspend(l)).terms.items())
    word = Table(lambda u: alpha(u).terms.items())

    def expansion(c):
        check(c.degree)
        out = []
        for tens, kappa in hirsch.comult_iterated(word_token((desuspend(c),)), r).items():
            u1, us = tens.data[0], tens.data[1:]
            if u1.data:
                out.append((u1.data, [letter[l] for l in u1.data], [suspend(l) for l in u1.data],
                            [word[u] for u in us], [u.degree for u in us],
                            c.degree - 1 - u1.degree, kappa))
        return out

    psi = Table(expansion)

    def concatenate(key):
        c, wbar = key
        ws = [((w, 1),) for w in wbar.data]
        if c.degree == 0:
            return {tensor_token(c, v): cv for v, cv in H.multiply_terms(ws).items()}.items()
        w_degrees = [w.degree for w in wbar.data]
        pairs = []
        for letters, images, kept, alpha_us, u_degrees, rest, kappa in psi[c]:
            # w_1 . alpha(u_2) . w_2 ... alpha(u_r) . w_r, each u_i moved past w_1 ... w_{i-1}
            middle, exponent, before = ws[:1], 0, w_degrees[0]
            for a, du, w, dw in zip(alpha_us, u_degrees, ws[1:], w_degrees[1:]):
                middle += [a, w]
                exponent += du * before
                before += dw
            coeff = kappa * parity_sign(exponent)
            for i, sign, factors in _rotations(letters, images, middle, rest + wbar.degree):
                pairs += [(tensor_token(kept[i], v), coeff * sign * cv)
                          for v, cv in H.multiply_terms(factors).items()]
        return Element(ring, pairs).terms.items()

    return Table(concatenate)


def power_concatenation(t, hirsch, H, r, check_degree=None):
    """mu-tilde_r: H(delta^(r) t) -> H(t), the loop-concatenation map.

    On c (x) (w_1 (x) ... (x) w_r), for each term of the iterated loop
    comultiplication psi^(r)(s^{-1}c) = u_1 (x) ... (x) u_r with u_1 the
    word l_1|...|l_k, sums the cyclic rotations

        s(l_j) (x) alpha(l_{j+1})...alpha(l_k) . w_1 . alpha(u_2) . w_2
                   ... alpha(u_r) . w_r . alpha(l_1)...alpha(l_{j-1}),

    that is the _rotations of the letters of u_1 around w_1 . alpha(u_2) ...
    w_r, each signed also by the Koszul sign of interleaving the u's and w's,
    (-1)^(sum_i |u_i| (|w_1| + ... + |w_{i-1}|)).

    Each structure is read once per token, into a Table: concatenation[c,
    wbar] holds the terms of mu-tilde_r(c (x) wbar).  psi[c] holds, per
    C-token c, each term of psi^(r)(s^{-1}c) with u_1 nonempty: the letters
    of u_1, their images and suspensions, the images of u_2, ..., u_r, their
    degrees and the sum of those, and kappa.  It is filled after
    check_power_hypotheses has run on the C-degrees through |c|, from C_1.
    letter[l] holds the terms of alpha(l) = t(s l), and word[u] those of
    alpha(u), read through alpha_t's cache and shared by all c.  The
    products are folded by H.multiply_terms over term lists, each w_i as
    ((w_i, 1),).  This map reads concatenation as a LinearMap.
    """
    ring = t.ring
    concatenation = _concatenation_table(t, hirsch, H, r, check_degree)
    return LinearMap(ring, 0, lambda tok: Element(ring, concatenation[tok.data]),
                     "mu-tilde_%d" % r)


def power_map(t, hirsch, H, r, check_degree=None):
    """lambda-tilde_r = mu-tilde_r (Id (x) delta^(r)): H(t) -> H(t), checked as mu-tilde_r.

    fn reads, for each term u of delta^(r)(w) on c (x) w, the terms of
    mu-tilde_r(c (x) u) from power_concatenation's Table concatenation[c, u],
    not through a LinearMap."""
    ring = t.ring
    concatenation = _concatenation_table(t, hirsch, H, r, check_degree)

    def fn(tok):
        c, w = tok.data
        return Element(ring, [(v, cu * cv) for u, cu in H.comult_iterated(w, r).items()
                              for v, cv in concatenation[c, u]])

    return LinearMap(ring, 0, fn, "lambda-tilde_%d" % r)


def power_map_on_homology(hoch, lam, degrees):
    """Matrices of a chain self-map on homology, in each degree's HomologyBasis.

    Returns a list of {degree, generators, matrix} with matrix columns the
    coordinates of the image of each homology representative.  ValueError if
    lam's shift is not 0 or an image leaves the degree-n basis."""
    if lam.shift != 0:
        raise ValueError("power_map_on_homology expects shift 0, got %+d" % lam.shift)
    rows = boundary_reader(hoch.complex)
    out = []
    for n in degrees:
        hb = HomologyBasis(hoch.complex, n, rows)
        idx = hoch.complex.basis.index(n)
        toks = hoch.complex.basis.basis(n)
        cols = []
        for rep in hb.representatives:
            img = lam(Element(hoch.ring, [(toks[i], c) for i, c in enumerate(rep) if c]))
            vec = [0] * len(toks)
            for tok, c in img.items():
                if tok not in idx:
                    raise ValueError("image token %r of degree %d is not in the degree-%d basis"
                                     % (tok, tok.degree, n))
                vec[idx[tok]] = c
            cols.append(hb.coordinates(vec))
        matrix = [[cols[j][i] for j in range(len(cols))]
                  for i in range(len(hb.generators))]
        out.append({"degree": n, "generators": list(hb.generators), "matrix": matrix})
    return out
