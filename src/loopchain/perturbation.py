"""Strong deformation retract data on bar constructions and the
transferred twisting cochain it induces.

The inclusion is the shuffle embedding Bar A (x) Bar A' -> Bar(A (x) A'),
the retraction is the front/back splitting, and the homotopy is the
explicit recursive shuffle formula.  Feeding these to the perturbation
construction F = sum F_k yields an algebra map Cobar Bar(A (x) A') ->
Cobar(Bar A (x) Bar A') realizing the splitting up to strong homotopy,
and from it the loop comultiplication on Cobar Bar H for a Hopf algebra H.
"""

from itertools import combinations

from .chains import (
    Element, LinearMap, desuspend, koszul_sign, parity_sign, suspend,
    tensor_map, tensor_product, tensor_token, word_token,
)
from .dg import (
    DGAlgebra, HirschCoalgebra, HopfAlgebra, TwistingCochain,
    algebra_realization, bar_construction, bar_map, cobar_construction,
    cobar_map, cobar_bar_counit, cobar_tensor_splitting, tensor_algebra,
    tensor_coalgebra,
)


class SDRData:
    """X <--(f)-- Y --(nabla)--> with homotopy h on Y.

    X and Y are DGCoalgebras; nabla is a coalgebra chain map, f a chain
    retraction, h a degree +1 homotopy satisfying the five identities
    f nabla = Id, dh + hd = nabla f - Id, h nabla = 0, f h = 0, h h = 0.
    """

    def __init__(self, X, Y, nabla, f, h, zeta=None, name=""):
        self.X = X
        self.Y = Y
        self.nabla = nabla
        self.f = f
        self.h = h
        self.zeta = zeta  # filtration count certifying perturbation decay
        self.name = name


def check_sdr(sdr, through_degree):
    """Verify the five SDR identities tokenwise; returns list of failures."""
    failures = []
    X, Y = sdr.X, sdr.Y
    ring = Y.ring
    for n in range(through_degree + 1):
        for tok in X.complex.basis.basis(n):
            if sdr.f(sdr.nabla(tok)) != Element.from_token(ring, tok):
                failures.append(("f nabla = Id", tok))
        for tok in Y.complex.basis.basis(n):
            e = Element.from_token(ring, tok)
            lhs = Y.d(sdr.h(tok)) + sdr.h(Y.d(tok))
            rhs = sdr.nabla(sdr.f(tok)) - e
            if lhs != rhs:
                failures.append(("dh + hd = nabla f - Id", tok))
            if not sdr.f(sdr.h(tok)).is_zero():
                failures.append(("f h = 0", tok))
            if not sdr.h(sdr.h(tok)).is_zero():
                failures.append(("h h = 0", tok))
        for tok in X.complex.basis.basis(n):
            if not sdr.h(sdr.nabla(tok)).is_zero():
                failures.append(("h nabla = 0", tok))
    return failures


# ---------------------------------------------------------------------------
# The Eilenberg-Mac Lane SDR on bar constructions


def _letter_parts(letter):
    pair = desuspend(letter)
    return pair.data  # (a, a')


def bar_eilenberg_zilber(A, Aprime):
    """nabla: Bar A (x) Bar A' -> Bar(A (x) A'): Koszul-signed shuffles of
    s(a_i (x) 1) and s(1 (x) a'_j)."""
    ring = A.ring
    one_a, one_ap = A.unit, Aprime.unit

    def fn(tok):
        wa, wb = tok.data
        m, n = len(wa.data), len(wb.data)
        us = [suspend(tensor_token(desuspend(l), one_ap)) for l in wa.data]
        vs = [suspend(tensor_token(one_a, desuspend(l))) for l in wb.data]
        degrees = [u.degree for u in us] + [v.degree for v in vs]
        pairs = []
        for positions in combinations(range(m + n), m):
            order = [None] * (m + n)
            ai = 0
            bi = 0
            rest = [k for k in range(m + n) if k not in positions]
            for k, p in enumerate(positions):
                order[p] = k
            for k, p in enumerate(rest):
                order[p] = m + k
            letters = [us[i] if i < m else vs[i - m] for i in order]
            pairs.append((word_token(letters), koszul_sign(degrees, order)))
        return Element(ring, pairs)

    return LinearMap(ring, 0, fn, "nabla")


def bar_alexander_whitney(A, Aprime):
    """f: Bar(A (x) A') -> Bar A (x) Bar A': nonzero only on words that are
    a block of s(a (x) 1)'s followed by a block of s(1 (x) a')'s."""
    ring = A.ring
    one_a, one_ap = A.unit, Aprime.unit

    def fn(tok):
        letters = tok.data
        split = None
        for j, letter in enumerate(letters):
            a, ap = _letter_parts(letter)
            if ap is one_ap and a is not one_a:
                if split is not None:
                    return Element(ring)
                continue
            if a is one_a and ap is not one_ap:
                if split is None:
                    split = j
                continue
            return Element(ring)
        if split is None:
            split = len(letters)
        front = tuple(suspend(_letter_parts(l)[0]) for l in letters[:split])
        back = tuple(suspend(_letter_parts(l)[1]) for l in letters[split:])
        return Element.from_token(ring, tensor_token(word_token(front), word_token(back)))

    return LinearMap(ring, 0, fn, "f")


def bar_em_homotopy(A, Aprime):
    """The Eilenberg-Mac Lane homotopy on Bar(A (x) A').

    Vanishes on words of s(1 (x) a')'s; otherwise, with r the last position
    whose first coordinate is not the unit, sums over m < r the words

        prefix | s(1 (x) a'_{m+1}...a'_r) | shuffles(sa_*, sa'_*)

    with every sign produced by the Koszul engine from the symbol
    rearrangement (the homotopy's own suspension enters from the left).
    """
    ring = A.ring
    one_a, one_ap = A.unit, Aprime.unit

    def fn(tok):
        letters = tok.data
        n = len(letters)
        parts = [_letter_parts(l) for l in letters]
        r = 0
        for j in range(n, 0, -1):
            if parts[j - 1][0] is not one_a:
                r = j
                break
        if r == 0:
            return Element(ring)
        # symbol indices: eta -> 0; sigma_j -> 3j-2, a_j -> 3j-1, a'_j -> 3j
        degrees = [1]
        for a, ap in parts:
            degrees.extend([1, a.degree, ap.degree])

        def sigma(j):
            return 3 * j - 2

        def apos(j):
            return 3 * j - 1

        def appos(j):
            return 3 * j

        pairs = []
        for m in range(r):
            if any(parts[j - 1][0] is one_a for j in range(m + 1, r + 1)):
                continue  # the shuffle block would contain s(1)
            # product a'_{m+1} ... a'_r in A'
            prod = Element.from_token(ring, one_ap)
            for j in range(m + 1, r + 1):
                prod = Aprime.multiply(prod, Element.from_token(ring, parts[j - 1][1]))
            merged_terms = [(b, c) for b, c in prod.items() if b is not one_ap]
            if not merged_terms:
                continue
            a_block = list(range(m + 1, r + 1))
            ap_block = list(range(r + 1, n + 1))
            la, lb = len(a_block), len(ap_block)
            for positions in combinations(range(la + lb), la):
                order = []
                for j in range(1, m + 1):
                    order.extend([sigma(j), apos(j), appos(j)])
                order.append(0)  # eta: the new suspension
                for j in range(m + 1, r + 1):
                    order.append(appos(j))
                rest = [k for k in range(la + lb) if k not in positions]
                slot_of = {}
                for k, p in enumerate(positions):
                    slot_of[p] = ("A", a_block[k])
                for k, p in enumerate(rest):
                    slot_of[p] = ("B", ap_block[k])
                shuffle_letters = []
                for p in range(la + lb):
                    side, j = slot_of[p]
                    if side == "A":
                        order.extend([sigma(j), apos(j)])
                        shuffle_letters.append(suspend(tensor_token(parts[j - 1][0], one_ap)))
                    else:
                        order.extend([sigma(j), appos(j)])
                        shuffle_letters.append(suspend(tensor_token(one_a, parts[j - 1][1])))
                # dead unit symbols close the permutation (degree 0: sign-neutral)
                for j in range(r + 1, n + 1):
                    order.append(apos(j))
                sign = koszul_sign(degrees, order)
                pairs += [(word_token(letters[:m] + (suspend(tensor_token(one_a, b)),)
                                      + tuple(shuffle_letters)), sign * c)
                          for b, c in merged_terms]
        return Element(ring, pairs)

    return LinearMap(ring, 1, fn, "h")


def bar_sdr(A, Aprime, max_degree=None):
    """The Eilenberg-Mac Lane SDR on Bar(A (x) A'), as SDRData."""
    AxA = tensor_algebra(A, Aprime, max_degree=max_degree)
    Y = bar_construction(AxA, max_degree=None if max_degree is None else max_degree + 1)
    BA = bar_construction(A, max_degree=None if max_degree is None else max_degree + 1)
    BAp = bar_construction(Aprime, max_degree=None if max_degree is None else max_degree + 1)
    X = tensor_coalgebra(BA, BAp)

    def zeta(tok):
        count = 0
        for letter in tok.data:
            a, ap = _letter_parts(letter)
            count += (1 if a is A.unit else 0) + (1 if ap is Aprime.unit else 0)
        return count

    return SDRData(
        X, Y,
        bar_eilenberg_zilber(A, Aprime),
        bar_alexander_whitney(A, Aprime),
        bar_em_homotopy(A, Aprime),
        zeta=zeta,
        name="EM(%s,%s)" % (A.name, Aprime.name),
    )


# ---------------------------------------------------------------------------
# The transferred twisting cochain F = sum_k F_k


class PerturbationDivergence(Exception):
    """Raised when the iterated insertions are not certified to vanish."""


def transferred_twisting(sdr):
    """Twisting cochain F: Y -> Cobar X from SDR data.

    F_1 = s^{-1} f and, for k >= 2,
        F_k = - sum_{i+j=k} (F_i (x) F_j) Delta-bar h,
    each F_k landing in the word-length-k part.  The SDR's zeta count
    certifies F_k = 0 for k > wordlength - zeta + 1.  An SDR without the
    certificate, or a nonzero component at k = bound + 1, raises
    PerturbationDivergence.
    """
    Y, X = sdr.Y, sdr.X
    ring = Y.ring
    omega_x = cobar_construction(X)

    def ds_f(tok):
        return Element(ring, [(word_token((desuspend(t),)), c)
                              for t, c in sdr.f(tok).items() if t.degree > 0])

    f1 = LinearMap(ring, -1, ds_f, "s-1f")
    # Delta-bar h(tok), split once per token and shared by every k
    split_h = LinearMap(ring, 1, lambda tok: _reduced_of_element(Y, sdr.h(tok)), "Delta-bar h")
    cache = {}

    def F_k(tok, k):
        key = (tok, k)
        if key in cache:
            return cache[key]
        if k == 1:
            out = f1(tok)
        else:
            pairs = []
            for t, c in split_h(tok).items():
                u, v = t.data
                # (F_i (x) F_j)(u (x) v): F_j has degree -1
                coeff = -parity_sign(u.degree) * c
                for j in range(1, k):
                    left = F_k(u, k - j)
                    if left.is_zero():
                        continue
                    pairs += tensor_product(ring, [left, F_k(v, j)], coeff, _concat_words).items()
            out = Element(ring, pairs)
        cache[key] = out
        return out

    def F(tok):
        if tok.degree == 0:
            return Element(ring)
        if sdr.zeta is None or tok.kind != "word":
            raise PerturbationDivergence("no termination certificate for %r" % (tok,))
        bound = max(len(tok.data) - sdr.zeta(tok) + 1, 1)
        out = Element(ring, [term for k in range(1, bound + 1)
                             for term in F_k(tok, k).items()])
        if not F_k(tok, bound + 1).is_zero():
            raise PerturbationDivergence(
                "component violates the filtration bound at %r (k=%d)" % (tok, bound + 1))
        return out

    return TwistingCochain(Y, omega_x, LinearMap(ring, -1, F, "F"), "F")


def _concat_words(words):
    return word_token(words[0].data + words[1].data)


def _reduced_of_element(Y, x):
    return x.apply(Y.reduced_comult)


def dcsh_realization(sdr):
    """alpha_F: Cobar Y -> Cobar X realizing f's strong homotopy structure."""
    F = transferred_twisting(sdr)
    return algebra_realization(F), F


def bar_shuffle_hopf(A, max_degree=None):
    """For commutative A: Bar A as a Hopf algebra under the shuffle product
    Bar(m) o nabla, with the word-splitting comultiplication.

    Returns (HopfAlgebra, the bar coalgebra, nu = Bar(m))."""
    barA = bar_construction(A, max_degree)
    ring = A.ring
    nabla = bar_eilenberg_zilber(A, A)
    mmap = LinearMap(ring, 0, lambda tok: A.mult(*tok.data), "m")
    nu = bar_map(mmap, A)

    def mult(u, v):
        return nu(nabla(tensor_token(u, v)))

    algebra = DGAlgebra(barA.complex, word_token(()), mult,
                        name="Bar(%s)-shuffle" % A.name)
    hopf = HopfAlgebra(algebra, barA.comult, name="Bar(%s)-shuffle" % A.name)
    return hopf, barA, nu


# ---------------------------------------------------------------------------
# The loop comultiplication on Cobar Bar H


class BarHopfStructure:
    """omega = alpha_F o Cobar Bar delta and psi = q o omega on Cobar Bar H."""

    def __init__(self, H, max_degree=None):
        self.H = H
        A = H.algebra
        ring = A.ring
        self.sdr = bar_sdr(A, A, max_degree=max_degree)
        self.barH = bar_construction(A, max_degree=None if max_degree is None else max_degree + 1)
        self.cobar_barH = cobar_construction(self.barH)
        alpha_F, F = dcsh_realization(self.sdr)
        self.F = F
        self.alpha_F = alpha_F
        AxA = tensor_algebra(A, A)

        def delta_fn(tok):
            return H.comult(tok)

        bar_delta = bar_map(LinearMap(ring, 0, delta_fn, "delta"), AxA)
        cobar_bar_delta = cobar_map(bar_delta)
        self._omega = LinearMap(ring, 0, lambda t: alpha_F(cobar_bar_delta(t)), "omega")
        q, square = cobar_tensor_splitting(self.barH, self.barH)
        self.square = square
        self._psi = LinearMap(ring, 0, lambda t: q(self._omega(t)), "psi_H")
        self.counit = cobar_bar_counit(A, self.barH)

    @property
    def ring(self):
        return self.H.ring

    def psi(self, x):
        return self._psi(x)

    def hirsch(self):
        """The bar construction as a Hirsch coalgebra with this psi."""
        def gen(letter):
            return self._psi(word_token((letter,)))
        return HirschCoalgebra(self.barH, self.cobar_barH, gen,
                               name="Hirsch(Bar %s)" % self.H.name)

    def counit_pair(self, x):
        """(eps (x) eps) applied to an element of the tensor square.

        eps has degree 0, so no Koszul signs arise.
        """
        return tensor_map(self.counit, self.counit)(x)
