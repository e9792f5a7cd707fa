"""Strong deformation retract data on bar constructions and the
transferred twisting cochain it induces.

The inclusion nabla is the shuffle embedding Bar A (x) Bar A' ->
Bar(A (x) A'), the retraction f is the front/back splitting, and the
homotopy h is the Eilenberg-Mac Lane formula

    h(L_1...L_n) = sum_m e_m L_1...L_m | s(1 (x) a'_{m+1}...a'_r)
                              | nabla(sa_{m+1}...sa_r ; sa'_{r+1}...sa'_n)

on letters L_j = s(a_j (x) a'_j), with the sign e_m of bar_em_homotopy.
nabla and h take their shuffles and Koszul signs from one kernel,
_shuffles.  The perturbation construction, the one recursion per token
F = s^{-1} f - mu (F (x) F) Delta-bar h checked against the SDR's
filtration bound, with Delta-bar read as deconcatenation of h's words and
only F's images cached, yields a twisting cochain Bar(A (x) A') ->
Cobar(Bar A (x) Bar A').

The loop comultiplication psi on Cobar Bar H (BarHopfStructure) takes one
of two paths.  A group ring Z[G] in the augmentation basis, which declares
its group as its group_table and whose bar construction is the normalized
chains of the nerve NG, gets Baues' closed form (Compositio Math. 43, 1981;
Invent. Math. 132, 1998): psi(s^{-1}y) is a signed sum over blocks of y of
inner letters (x) outer face, the sign the Koszul sign of moving each inner
letter past the outer entries before it.
Any other H gets Milgram's q of the merged F-images of Bar(delta)(y); only
F and psi cache images of bar words.
"""

from itertools import combinations

from .chains import (
    Element, LinearMap, desuspend, parity_sign, suspend,
    tensor_map, tensor_token, word_token,
)
from .dg import (
    HirschCoalgebra, HopfAlgebra, TwistingCochain,
    bar_construction, bar_map, bar_word, cobar_construction, cobar_bar_counit,
    cobar_tensor_splitting, tensor_algebra, tensor_coalgebra,
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
    """The first (identity, token) on which one of the five SDR identities
    fails, or None: the identities in the order listed, each on the tokens
    of degree <= through_degree in degree order."""
    X, Y, f, nabla, h = sdr.X, sdr.Y, sdr.f, sdr.nabla, sdr.h
    one = lambda tok: Element.from_token(Y.ring, tok)
    identities = [
        ("f nabla = Id", X, lambda tok: f(nabla(tok)) != one(tok)),
        ("dh + hd = nabla f - Id", Y, lambda tok: Y.d(h(tok)) + h(Y.d(tok)) != nabla(f(tok)) - one(tok)),
        ("f h = 0", Y, lambda tok: not f(h(tok)).is_zero()),
        ("h h = 0", Y, lambda tok: not h(h(tok)).is_zero()),
        ("h nabla = 0", X, lambda tok: not h(nabla(tok)).is_zero()),
    ]
    return next(((name, tok) for name, Z, fails in identities
                 for tok in Z.complex.basis.through(through_degree) if fails(tok)), None)


# ---------------------------------------------------------------------------
# The Eilenberg-Mac Lane SDR on bar constructions


def _letter_parts(letter):
    pair = desuspend(letter)
    return pair.data  # (a, a')


def _shuffles(us, vs):
    """Every shuffle of the letter sequences us and vs, as (letters, sign).

    The sign is the Koszul sign of the shuffle, built up as it is placed:
    each v passes the us not yet placed, which costs |v| times their degrees.
    """
    m, n = len(us), len(vs)
    rest = [0] * (m + 1)  # rest[i] = |us[i]| + ... + |us[m-1]|
    for i in range(m - 1, -1, -1):
        rest[i] = rest[i + 1] + us[i].degree
    out = []
    for positions in combinations(range(m + n), m):
        letters, i, exponent = [], 0, 0
        for k in range(m + n):
            if i < m and positions[i] == k:
                letters.append(us[i])
                i += 1
            else:
                v = vs[k - i]
                letters.append(v)
                exponent += v.degree * rest[i]
        out.append((tuple(letters), parity_sign(exponent)))
    return out


def bar_eilenberg_zilber(A, Aprime):
    """nabla: Bar A (x) Bar A' -> Bar(A (x) A'): Koszul-signed shuffles of
    s(a_i (x) 1) and s(1 (x) a'_j)."""
    ring = A.ring
    one_a, one_ap = A.unit, Aprime.unit

    def fn(tok):
        wa, wb = tok.data
        us = [suspend(tensor_token(desuspend(l), one_ap)) for l in wa.data]
        vs = [suspend(tensor_token(one_a, desuspend(l))) for l in wb.data]
        return Element(ring, [(word_token(w), sign) for w, sign in _shuffles(us, vs)])

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

    Write the letters of a word as L_j = s(a_j (x) a'_j), j = 1..n, and let r
    be the last j with a_j not the unit (h = 0 if there is none).  Then

        h(L_1...L_n) = sum_m e_m L_1...L_m | s(1 (x) a'_{m+1}...a'_r)
                                  | nabla(sa_{m+1}...sa_r ; sa'_{r+1}...sa'_n),

    summed over the m < r with a_{m+1}, ..., a_r all non-units, dropping
    the unit term of the product a'_{m+1}...a'_r, where

        e_m = (-1)^(|L_1| + ... + |L_m|
                    + sum_{j=m+1..r} |a'_j| (sum_{i=m+1..j} (1 + |a_i|))):

    the new suspension passes L_1...L_m, and each a'_j passes s a_{m+1}, ...,
    s a_j on its way to the new letter.
    """
    ring = A.ring
    one_a, one_ap = A.unit, Aprime.unit

    def fn(tok):
        letters = tok.data
        parts = [_letter_parts(l) for l in letters]
        r = len(letters)
        while r and parts[r - 1][0] is one_a:
            r -= 1
        vs = letters[r:]  # s(1 (x) a'_j) for j > r: the unit a_j drop out
        # walk m down from r - 1, growing the block a_{m+1}...a_r; exponent
        # is the block's part of e_m and primes = |a'_{m+1}| + ... + |a'_r|
        us, prod, pairs = [], None, []
        suffix = sum([l.degree for l in vs])  # |L_{m+1}| + ... + |L_n|
        primes = exponent = 0
        for m in range(r - 1, -1, -1):
            a, ap = parts[m]
            if a is one_a:
                break
            us.insert(0, suspend(tensor_token(a, one_ap)))
            factor = Element.from_token(ring, ap)
            prod = factor if prod is None else Aprime.multiply(factor, prod)
            suffix += letters[m].degree
            primes += ap.degree
            exponent += (1 + a.degree) * primes
            terms = [(b, c) for b, c in prod.items() if b is not one_ap]
            if not terms:
                continue
            sign = parity_sign(tok.degree - suffix + exponent)
            shuffles = _shuffles(us, vs)
            pairs += [(word_token(letters[:m] + (suspend(tensor_token(one_a, b)),) + w),
                       sign * s * c) for b, c in terms for w, s in shuffles]
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
# The transferred twisting cochain F = s^{-1} f - mu (F (x) F) Delta-bar h


class PerturbationDivergence(Exception):
    """Raised when the perturbation series is not certified to terminate."""


def transferred_twisting(sdr):
    """Twisting cochain F: Y -> Cobar X from SDR data: the one recursion

        F = s^{-1} f - mu (F (x) F) Delta-bar h,

    mu concatenating cobar words, computed once per token.  Its
    word-length-k part is F_k = - sum_{i+j=k} (F_i (x) F_j) Delta-bar h,
    which the SDR's zeta count certifies to vanish for k > wordlength -
    zeta + 1.  Every word of every image is checked against that bound; a
    word past it, an SDR without the certificate, or a recursion that
    re-enters a token raises PerturbationDivergence.  Y is a bar construction
    (the certificate needs word tokens), so Delta-bar h is read off h(tok)'s
    words as sign-free deconcatenation.  f and h are read once per token
    through f.fn and h.fn: the caches of f, h and Y's Delta and Delta-bar
    stay empty, and F's is the only one filled.
    """
    Y, X = sdr.Y, sdr.X
    ring = Y.ring
    omega_x = cobar_construction(X)
    pending = set()

    def F_k(tok):
        if tok.degree == 0:
            return Element(ring)
        if sdr.zeta is None or tok.kind != "word":
            raise PerturbationDivergence("no termination certificate for %r" % (tok,))
        if tok in pending:
            raise PerturbationDivergence("the recursion for F re-enters %r" % (tok,))
        pending.add(tok)
        try:
            pairs = [(word_token((desuspend(t),)), c)
                     for t, c in sdr.f.fn(tok).items() if t.degree > 0]
            pairs += _reduced_of_element(F, sdr.h.fn(tok))
        finally:
            pending.discard(tok)
        out = Element(ring, pairs)
        bound = max(len(tok.data) - sdr.zeta(tok) + 1, 1)
        for word, _ in out.items():
            if len(word.data) > bound:
                raise PerturbationDivergence(
                    "F(%r) has a word of length %d, past the filtration bound %d"
                    % (tok, len(word.data), bound))
        return out

    F = LinearMap(ring, -1, F_k, "F")
    return TwistingCochain(Y, omega_x, F, "F")


def _reduced_of_element(F, x):
    """The pairs of -mu (F (x) F) Delta-bar x, x in a bar construction: each cut u|v
    of a term c*w of x into nonempty words gives -(-1)^|u| c F(u)F(v), skipped if F(u) = 0."""
    pairs = []
    for w, c in x.items():
        letters = w.data
        for k in range(1, len(letters)):
            u = word_token(letters[:k])
            left = F(u).items()
            if left:
                right = F(word_token(letters[k:])).items()
                sign = -parity_sign(u.degree) * c
                pairs += [(word_token(a.data + b.data), sign * ca * cb)
                          for a, ca in left for b, cb in right]
    return pairs


def bar_shuffle_hopf(A, max_degree=None):
    """For commutative A: Bar A as a Hopf algebra under the shuffle product
    Bar(m) o nabla, with the word-splitting comultiplication.

    Returns (HopfAlgebra, the bar coalgebra, nu = Bar(m))."""
    barA = bar_construction(A, max_degree)
    ring = A.ring
    nabla = bar_eilenberg_zilber(A, A)
    mmap = LinearMap(ring, 0, lambda tok: A.mult(*tok.data), "m")
    nu = bar_map(mmap, A)

    def product(u, v):
        return nu(nabla(tensor_token(u, v))).items()

    hopf = HopfAlgebra(barA.complex, word_token(()), product, barA._comult,
                       name="Bar(%s)-shuffle" % A.name)
    return hopf, barA, nu


# ---------------------------------------------------------------------------
# The loop comultiplication on Cobar Bar H


def _nerve_psi(ring, table, unit):
    """BarHopfStructure's generator map for a group ring whose group_table is table:
    Baues' closed form, read off y = [g_1|...|g_n] with the blocks chosen left
    to right.  partial[p] holds each choice of blocks inside g_1...g_p as its
    inner letters, outer entries, sign exponent sum_m d_m e_m and sum of d_m
    (p minus that sum is the number of outer entries)."""
    empty = word_token(())

    def gen(letter):
        y = suspend(letter).data
        n = len(y)
        partial = [[((), (), 0, 0)]] + [[] for _ in range(n)]
        for p in range(n):
            states = partial[p]
            partial[p + 1] += [(inner, outer + (y[p],), e, D) for inner, outer, e, D in states]
            prod = unit
            for q in range(p + 1, n + 1):
                prod = table[prod, desuspend(y[q - 1])]
                if prod is unit:  # a degenerate face
                    continue
                block, entry, d = desuspend(word_token(y[p:q])), suspend(prod), q - p - 1
                partial[q] += [(inner + (block,), outer + (entry,), e + d * (p - D), D + d)
                               for inner, outer, e, D in states]
        s_y = word_token((letter,))
        pairs = [(tensor_token(s_y, empty), 1), (tensor_token(empty, s_y), 1)]
        pairs += [(tensor_token(word_token(inner), word_token((desuspend(word_token(outer)),))),
                   parity_sign(e)) for inner, outer, e, _ in partial[n] if inner]
        return Element(ring, pairs)

    return gen


class BarHopfStructure(HirschCoalgebra):
    """Bar H as a Hirsch coalgebra for a Hopf algebra H, with psi on the
    generators s^{-1}y of Cobar Bar H built on one of two paths.

    If H is a group ring, declaring its group as H.group_table (as
    fixtures.group_ring_hopf does), [g_1|...|g_n] is the simplex
    (g_1, ..., g_n) of the nerve NG and psi is Baues' closed form

        psi(s^{-1}y) = s^{-1}y (x) 1 + 1 (x) s^{-1}y + sum eps s^{-1}[g_{i_1+1}|...|g_{j_1}]
                           ... s^{-1}[g_{i_k+1}|...|g_{j_k}] (x) s^{-1}[outer]

    over k >= 1 and 0 <= i_1 < j_1 <= i_2 < ... < j_k <= n, where outer is y
    with each block g_{i_m+1}...g_{j_m} replaced by its product, and a term
    whose face is degenerate (a product is e) is dropped.  The sign
    eps = (-1)^(sum_m d_m e_m), with d_m = j_m - i_m - 1 the degree of the m-th
    inner letter and e_m = i_m - sum_{l<m} d_l the number of outer entries
    before block m, is the Koszul sign of moving each inner letter left past
    the degree-1 entries in front of it.  It is matched to the perturbation
    path, not derived here: tests compare the two paths on Z[S3], Z[C4],
    F2[C2] and F3[S3], and psi d = d psi on Z[C4] and Z[S3]
    (test_bar_hopf_psi_is_coassociative_on_generators) fails with every
    sign set to +1.

    Any other H takes the perturbation path: psi(s^{-1}y) is Milgram's q
    (read through q.fn, uncached) of the sum of c F(w) over the terms c w of
    Bar(delta)(y), merged into one element first, F being the transferred
    twisting cochain of sdr.  Besides F's cache and psi's, psi fills only
    H's Delta and the one-term images per letter of q's twisting cochain.

    epsilon is the counit map Cobar Bar H -> H; counit is the inherited
    DGCoalgebra.counit of the Hopf algebra Cobar Bar H, the indicator of the
    empty word."""

    def __init__(self, H, max_degree=None):
        self.H = H
        ring = H.ring
        self.barH = bar_construction(H, max_degree=None if max_degree is None else max_degree + 1)
        self.epsilon = cobar_bar_counit(H, self.barH)
        if H.group_table is not None:
            gen = _nerve_psi(ring, H.group_table, H.unit)
        else:
            self.sdr = bar_sdr(H, H, max_degree=max_degree)
            self.F = transferred_twisting(self.sdr)
            q, _ = cobar_tensor_splitting(self.barH, self.barH)
            F = self.F.map
            unit = tensor_token(H.unit, H.unit)

            def gen(letter):
                bar_delta = bar_word(ring, [H.comult(desuspend(l)) for l in suspend(letter).data],
                                     unit)
                return Element(ring, [(u, c * cu) for w, c in bar_delta.items()
                                      for u, cu in F(w).items()]).apply(q.fn)

        super().__init__(self.barH, gen,
                         name="Hirsch(Bar %s)" % H.name)

    def hirsch(self):
        """This structure: Bar H with psi is its own Hirsch coalgebra."""
        return self

    def counit_pair(self, x):
        """(eps (x) eps) applied to an element of the tensor square.

        eps has degree 0, so no Koszul signs arise.
        """
        return tensor_map(self.epsilon, self.epsilon)(x)
