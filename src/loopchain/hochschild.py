"""The Hochschild complex of a twisting cochain and its power maps.

For a twisting cochain t: C -> A the twisted complex (C (x) A, d_t)
interpolates between the classical Hochschild complex of an algebra and
the coHochschild complex of a coalgebra.  This module provides the
construction, strict and strong-homotopy functoriality, the monoidal
isomorphism, the induced (co)multiplications, and the r-th power maps with
their homology action.
Each map checks its hypothesis on a degree of C when it first reads a token
of it; a check_degree checks C_lowest..C_check_degree when it is built.
"""

from .chains import (
    ChainComplex, Element, GradedBasis, LinearMap, identity_map, koszul_sign,
    operator_application_sign, parity_sign, suspend, desuspend, tensor_map,
    tensor_product, tensor_token, word_token,
)
from .dg import (
    TwistingCochain, algebra_realization, bar_cobar_unit, bar_construction,
    bar_word, cartesian_product, cobar_bar_counit, cobar_construction,
    coalgebra_realization, couniversal_twisting, hopf_tensor_power, twist_tensor,
    universal_twisting,
)
from .snf import HomologyBasis


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
        while checked < n:
            for c in C.complex.basis.basis(checked + 1):
                message = failure(c)
                if message is not None:
                    raise CompatibilityError(message, c)
            checked += 1

    if check_degree is not None:
        check(check_degree)
    return check


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
                   + (-1)^((|c_i|-1)(|y^i|+|x|)) y^i (x) x.t(c_i),
    all signs produced by the Koszul engine.
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

    def differential(tok):
        y, x = tok.data
        sign = parity_sign(y.degree)
        pairs = [(tensor_token(u, x), c) for u, c in C.complex.d(y).items()]
        pairs += [(tensor_token(y, u), sign * c) for u, c in A.complex.d(x).items()]
        coproduct = C.comult(y).items()
        # - (Id (x) m(t (x) Id)) (Delta (x) Id): t passes y_j
        for pair, c in coproduct:
            yj, cj = pair.data
            tv = t.map(cj)
            if tv.is_zero():
                continue
            coeff = -operator_application_sign([0, -1], [yj.degree, cj.degree]) * c
            pairs += [(tensor_token(yj, m), coeff * ca * cm)
                      for a, ca in tv.items() for m, cm in A.mult(a, x).items()]
        # + move c_i to the end, then apply t there
        for pair, c in coproduct:
            ci, yi = pair.data
            tv = t.map(ci)
            if tv.is_zero():
                continue
            rot = koszul_sign([ci.degree, yi.degree, x.degree], [1, 2, 0])
            app = operator_application_sign([0, 0, -1], [yi.degree, x.degree, ci.degree])
            pairs += [(tensor_token(yi, m), rot * app * c * ca * cm)
                      for a, ca in tv.items() for m, cm in A.mult(x, a).items()]
        return Element(ring, pairs)

    cx = ChainComplex(basis, LinearMap(ring, -1, differential, "d_t"), label)
    return HochschildComplex(t, cx, label)


def hochschild_complex(t, max_degree=None):
    """H(t) = (C (x) A, d_t)."""
    return hochschild_general(t, max_degree=max_degree)


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

    On c (x) a the image is the cyclic-rotation sum over the word expansion
    of phi(s^{-1}c), with the kept piece in C' and the t'-images of the
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
        expansion = phi(word_token((desuspend(c),)))
        pairs = []
        for wtok, kappa in expansion.items():
            # work on the native cobar letters: alpha_t' on a single letter
            # is t' of its suspension (degree 0), the kept letter is
            # re-suspended at the front, so the cyclic reorder is the only
            # sign source
            letters = wtok.data
            k = len(letters)
            if k == 0:
                continue
            degs = [l.degree for l in letters] + [a.degree]
            for i in range(1, k + 1):
                order = list(range(i - 1, k)) + [k] + list(range(0, i - 1))
                coeff = kappa * koszul_sign(degs, order)
                factors = [tprime.map(suspend(letters[j])) for j in range(i, k)] + \
                          [ga] + \
                          [tprime.map(suspend(letters[j])) for j in range(0, i - 1)]
                kept = suspend(letters[i - 1])
                pairs += [(tensor_token(kept, v), coeff * cv)
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

    Computed by the transposed formula: split c by iterated comultiplication,
    keep one piece through f, and feed the t-images of the others, cyclically
    arranged around a, to the DASH family of gamma.  Checks the hypothesis
    on the C-degrees read, from C_0."""
    ring = t.ring
    A, A2 = t.target, tprime.target
    beta = coalgebra_realization(t)
    beta2 = coalgebra_realization(tprime)
    check = _hypothesis(t.source, 0, lambda c: "gamma beta_t != beta_t' f"
                        if gamma(beta(c)) != beta2(f(c)) else None, check_degree)

    def evaluate_family(elements):
        """t_Bar' gamma on the bar word of suspensions of the elements."""
        return Element(ring, [(desuspend(wt.data[0]), cw)
                              for wt, cw in bar_word(ring, elements, A.unit).apply(gamma).items()
                              if len(wt.data) == 1])

    def fn(tok):
        c, a = tok.data
        check(c.degree)
        pairs = []
        if a is A.unit:
            # the counit-covector term of the transposed formula
            pairs += [(tensor_token(u, A2.unit), cu)
                      for u, cu in f(Element.from_token(ring, c)).items()]
        a_el = Element.from_token(ring, a)
        src = t.source
        # native-letter discipline: the slot operators s t (degree 0) and f
        # (degree 0) are sign-free; the suspension over the a slot passes
        # everything before it, the cyclic reorder acts on the resulting
        # letter degrees, and the final desuspension passes the kept piece.
        for k in range(1, c.degree + 2):
            for tens, cd in src.comult_iterated(c, k).items():
                pieces = tens.data
                degs = [p.degree for p in pieces] + [a.degree + 1]
                base = parity_sign(c.degree)
                for i in range(1, k + 1):
                    tail = [t.map(pieces[j]) for j in range(i, k)] + [a_el] + \
                           [t.map(pieces[j]) for j in range(0, i - 1)]
                    if any(e.is_zero() for e in tail):
                        continue
                    fc = f(Element.from_token(ring, pieces[i - 1]))
                    if fc.is_zero():
                        continue
                    order = list(range(i - 1, k)) + [k] + list(range(0, i - 1))
                    rot = koszul_sign(degs, order)
                    gk = evaluate_family(tail)
                    if gk.is_zero():
                        continue
                    kept_sign = parity_sign(pieces[i - 1].degree)
                    pairs += tensor_product(ring, [fc, gk], cd * base * rot * kept_sign).items()
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
    """H(t * t') = H(t) (x) H(t'): the Koszul middle swap, both ways."""
    ring = t.ring

    def fwd(tok):
        cc, aa = tok.data
        c, cp = cc.data
        a, ap = aa.data
        sign = parity_sign(cp.degree * a.degree)
        return Element.from_token(
            ring, tensor_token(tensor_token(c, a), tensor_token(cp, ap)), sign)

    def bwd(tok):
        ca, cpap = tok.data
        c, a = ca.data
        cp, ap = cpap.data
        sign = parity_sign(cp.degree * a.degree)
        return Element.from_token(
            ring, tensor_token(tensor_token(c, cp), tensor_token(a, ap)), sign)

    return (LinearMap(ring, 0, fwd, "monoidal"),
            LinearMap(ring, 0, bwd, "monoidal_inv"))


def hochschild_comultiplication(t, omega, H, check_degree=None):
    """delta-hat: H(t) -> H(t) (x) H(t) for t: C -> H with omega realizing
    the DCSH structure of the comultiplication of C.

    Hypothesis: (alpha_t (x) alpha_t) q omega = delta alpha_t, that is
    delta alpha_t = alpha_{t*t} omega, which sh_map checks from C_1."""
    ring = t.ring
    tt = cartesian_product(t, t)
    delta = LinearMap(ring, 0, lambda tok: H.comult(tok), "delta")
    hs = sh_map(omega, delta, t, tt, check_degree=check_degree)
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
        return H.algebra.mult(u, v)

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
    delta t(c) is symmetric; alpha2 is alpha_t (x) alpha_t.  Returns the
    message naming a broken hypothesis, or None."""
    dt = t.map(c).apply(H.comult)  # delta alpha_t(s^{-1}c) = delta t(c)
    if alpha2(hirsch.psi(word_token((desuspend(c),)))) != dt:
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
        return t.map(tok).apply(lambda a: H.comult_power(a, r))

    tr = TwistingCochain(t.source, Hr.algebra, LinearMap(ring, -1, fn, "d(r)t"),
                         "delta^%d %s" % (r, t.name))
    return tr, Hr


def power_concatenation(t, hirsch, H, r, check_degree=None):
    """mu-tilde_r: H(delta^(r) t) -> H(t), the loop-concatenation map.

    On c (x) (w_1 (x) ... (x) w_r), for each term of the iterated loop
    comultiplication psi^(r)(s^{-1}c) = u_1 (x) ... (x) u_r with u_1 the
    word l_1|...|l_k, sums the cyclic rotations

        s(l_j) (x) alpha(l_{j+1})...alpha(l_k) . w_1 . alpha(u_2) . w_2
                   ... alpha(u_r) . w_r . alpha(l_1)...alpha(l_{j-1}),

    with signs from the Koszul engine on the symbol rearrangement.
    Runs check_power_hypotheses on the C-degrees read, from C_1; the
    expansion psi^(r)(s^{-1}c) is computed once per c, after that check."""
    _check_power(r)
    ring = t.ring
    alpha = algebra_realization(t)
    alpha2 = tensor_map(alpha, alpha)
    check = _hypothesis(t.source, 1, lambda c: check_power_hypotheses(t, hirsch, H, alpha2, c),
                        check_degree)
    A = H.algebra
    expansions = LinearMap(ring, -1, lambda c: hirsch.iterated_psi(word_token((desuspend(c),)), r),
                           "psi^(%d) s^-1" % r)

    def fn(tok):
        c, wbar = tok.data
        check(c.degree)
        ws = wbar.data
        if c.degree == 0:
            prod = A.multiply_all([Element.from_token(ring, w) for w in ws])
            return Element(ring, [(tensor_token(c, v), cv) for v, cv in prod.items()])
        pairs = []
        for tens, kappa in expansions(c).items():
            u1 = tens.data[0]
            us = tens.data[1:]
            letters = u1.data
            k = len(letters)
            if k == 0:
                continue
            ldegs = [l.degree for l in letters]
            udegs = [u.degree for u in us]
            wdegs = [w.degree for w in ws]
            degrees = ldegs + udegs + wdegs
            u_idx = [k + q for q in range(r - 1)]
            w_idx = [k + (r - 1) + q for q in range(r)]
            for j in range(1, k + 1):
                order = [j - 1] + list(range(j, k)) + [w_idx[0]]
                for q in range(r - 1):
                    order.append(u_idx[q])
                    order.append(w_idx[q + 1])
                order += list(range(0, j - 1))
                coeff = kappa * koszul_sign(degrees, order)
                factors = [alpha(word_token((l,))) for l in letters[j:]]
                factors.append(Element.from_token(ring, ws[0]))
                for q in range(r - 1):
                    factors.append(alpha(us[q]))
                    factors.append(Element.from_token(ring, ws[q + 1]))
                factors += [alpha(word_token((l,))) for l in letters[:j - 1]]
                kept = suspend(letters[j - 1])
                pairs += [(tensor_token(kept, v), coeff * cv)
                          for v, cv in A.multiply_all(factors).items()]
        return Element(ring, pairs)

    return LinearMap(ring, 0, fn, "mu-tilde_%d" % r)


def power_map(t, hirsch, H, r, check_degree=None):
    """lambda-tilde_r = mu-tilde_r (Id (x) delta^(r)): H(t) -> H(t), checked as mu-tilde_r."""
    ring = t.ring
    mu = power_concatenation(t, hirsch, H, r, check_degree=check_degree)

    def fn(tok):
        c, w = tok.data
        return H.comult_power(w, r).apply(lambda u: mu(tensor_token(c, u)))

    return LinearMap(ring, 0, fn, "lambda-tilde_%d" % r)


def power_map_on_homology(hoch, lam, degrees):
    """Matrices of a chain self-map on homology, in the SNF-lifted basis.

    Returns a list of {degree, generators, matrix} with matrix columns the
    coordinates of the image of each homology representative."""
    out = []
    for n in degrees:
        hb = HomologyBasis(hoch.complex, n)
        idx = hoch.complex.basis.index(n)
        toks = hoch.complex.basis.basis(n)
        cols = []
        for rep in hb.representatives:
            img = lam(Element(hoch.ring, [(toks[i], c) for i, c in enumerate(rep) if c]))
            vec = [0] * len(toks)
            for tok, c in img.items():
                vec[idx[tok]] = c
            cols.append(hb.coordinates(vec))
        matrix = [[cols[j][i] for j in range(len(cols))]
                  for i in range(len(hb.generators))]
        out.append({"degree": n, "generators": list(hb.generators), "matrix": matrix})
    return out
