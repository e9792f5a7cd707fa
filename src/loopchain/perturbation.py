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

The loop comultiplication psi on Cobar Bar H (BarHopfStructure) is one
closed form for every chain Hopf algebra H: Baues' formula (Compositio Math.
43, 1981; Invent. Math. 132, 1998) with each entry split by Delta,
psi(s^{-1}y) a signed sum over blocks of y of inner letters (x) outer word,
the sign derived in BarHopfStructure, which also shows why d on H does not
enter it.  On a group ring it is Baues' nerve formula on NG.  The SDR and
F give a second model of psi, q o alpha_F o Cobar(Bar Delta) with
Milgram's q.
"""

from itertools import combinations

from .chains import (
    SIGNS, Element, LinearMap, Table, desuspend, parity_sign, suspend,
    tensor_token, word_token,
)
from .dg import (
    HirschCoalgebra, HopfAlgebra, TwistingCochain,
    bar_construction, bar_map, cobar_construction, cobar_bar_counit,
    tensor_algebra, tensor_coalgebra,
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

    def shuffle(pair):
        return nu(nabla(tensor_token(*pair))).items()

    hopf = HopfAlgebra(barA.complex, word_token(()), Table(shuffle), barA._comult,
                       name="Bar(%s)-shuffle" % A.name)
    return hopf, barA, nu


# ---------------------------------------------------------------------------
# The loop comultiplication on Cobar Bar H


def _closed_form_psi(H):
    """BarHopfStructure's generator map, in closed form; see BarHopfStructure
    for the formula, its sign and why it reads no differential.

    halves[s a] holds the terms a' (x) a'' of Delta a with a' != 1 as
    (s a', |a''|, the a'' terms), grouped by a'.  blocks[s a_1|...|s a_k]
    holds the block's states, one per choice of a' for each entry, as
    (s a' letters, coefficient with the unshuffle sign, |a''| so far, the
    a'' product terms), each extending a state of the block without its
    last entry (blocks[()] holds the one empty state, with no product), and
    the block's terms (inner letter, outer entry, coefficient), the
    product's unit term dropped.  A one-entry block takes its a'' terms as
    its product, so no product with the unit is formed; a longer block is
    filled once, from H's products.  partial[p] holds
    each choice of blocks inside the first p entries of y as its inner
    letters, outer entries, coefficient with the sign, and total degree X
    of the outer entries."""
    ring, unit = H.ring, H.unit
    empty = word_token(())

    def split(letter):
        a = desuspend(letter)
        groups = {}
        for t, c in H.comult(a).items():
            a1, a2 = t.data
            if a1 is not unit:
                groups.setdefault(a1, []).append((a2, c))
        return [(suspend(a1), a.degree - a1.degree, pairs) for a1, pairs in groups.items()]

    halves = Table(split)

    def block(letters):
        states = [(inner + (sa1,), c * SIGNS[P * sa1.degree], P + d2,
                   H.multiply_terms([prod, pairs]).terms.items() if inner else pairs)
                  for inner, c, P, prod in blocks[letters[:-1]][0]
                  for sa1, d2, pairs in halves[letters[-1]]]
        return states, [(desuspend(word_token(inner)), suspend(u), c * cu)
                        for inner, c, _, prod in states for u, cu in prod if u is not unit]

    blocks = Table(block)
    blocks[()] = [((), 1, 0, None)], []

    def gen(letter):
        y = suspend(letter).data
        n = len(y)
        partial = [[((), (), 1, 0)]] + [[] for _ in range(n)]
        for p in range(n):
            states, entry = partial[p], y[p]
            partial[p + 1] += [(inner, outer + (entry,), c, X + entry.degree)
                               for inner, outer, c, X in states]
            for q in range(p + 1, n + 1):
                terms = blocks[y[p:q]][1]
                if terms:
                    partial[q] += [(inner + (b,), outer + (o,), c * k * SIGNS[b.degree * X],
                                    X + o.degree)
                                   for inner, outer, c, X in states for b, o, k in terms]
        s_y = word_token((letter,))
        pairs = [(tensor_token(s_y, empty), 1), (tensor_token(empty, s_y), 1)]
        pairs += [(tensor_token(word_token(inner), word_token((desuspend(word_token(outer)),))), c)
                  for inner, outer, c, _ in partial[n] if inner]
        return Element(ring, pairs)

    return gen


class BarHopfStructure(HirschCoalgebra):
    """Bar H as a Hirsch coalgebra for a chain Hopf algebra H, with psi on
    the generators s^{-1}y of Cobar Bar H in closed form.

    psi is Baues' formula with each entry split by Delta.  For
    y = [s a_1|...|s a_n],

        psi(s^{-1}y) = s^{-1}y (x) 1 + 1 (x) s^{-1}y
                       + sum eps s^{-1}b_1 ... s^{-1}b_k (x) s^{-1}[outer]

    over k >= 1 blocks 0 <= i_1 < j_1 <= i_2 < ... < j_k <= n and, for each
    entry l inside a block, a term a'_l (x) a''_l of Delta a_l with a'_l != 1.
    Block m gives the inner letter s^{-1}b_m, b_m = [s a'_{i_m+1}|...|s a'_{j_m}],
    and the outer entry s pi(a''_{i_m+1} ... a''_{j_m}), where pi drops the
    unit component; outer is y with each block replaced by its outer entry,
    and a term vanishes when pi kills an outer entry.  The sign is

        eps = (-1)^(sum_m d_m X_m + sum_m sum_{l < l' in block m} |a''_l| (1 + |a'_l'|)),

    d_m the degree of s^{-1}b_m and X_m the total degree of the outer
    entries before block m.  Derivation: Delta has degree 0, and splitting
    the entries of a block puts s a'_l a''_l in place of s a_l; moving each
    a''_l right past the s a'_l' after it in its block gives the second sum
    and leaves [s a'_{i+1}|...|s a'_j] a''_{i+1} ... a''_j.  Insert s s^{-1}
    in front of it, outer suspension first: the block reads s (s^{-1}b_m)
    (a'' product), and s with the product is the outer entry.  Then move
    s^{-1}b_1, ..., s^{-1}b_k in turn to the front of s^{-1}y.  s^{-1}b_m
    passes the s^{-1} of the generator (degree -1), the outer entries before
    its block (degree X_m) and its own block's s (degree +1), so the Koszul
    rule gives (-1)^(d_m X_m); what is left is the inner letters (x)
    s^{-1}[outer].  Cocommutativity is not used.  On a group ring R[G] in
    the augmentation basis, Delta[g] = [g] (x) [g] + [g] (x) 1 + 1 (x) [g]
    gives a' = [g] of degree 0, so the second sum vanishes and X_m is the
    number of outer entries before block m; the choices of a'' sum to
    pi((1 + [g_{i+1}]) ... (1 + [g_j])) = [g_{i+1} ... g_j], and the formula
    is the nerve formula on the simplex (g_1, ..., g_n) of NG, a term
    dropped when its face is degenerate.

    The formula serves an H with a nonzero differential as it stands.  It
    reads only H's product, Delta and basis, and so does the perturbation
    composite q o alpha_F o Cobar(Bar Delta): F = s^{-1}f - mu (F (x) F)
    Delta-bar h reads f, h (built from products alone) and the filtration
    count zeta, and never d.  So psi of H equals psi of the graded Hopf
    algebra H with d forgotten.  That algebra has d = 0, where the
    derivation above holds, so the closed form is psi for H too.  It is a
    chain map for H's d because the composite is one.

    Tests compare psi term for term with the perturbation composite on
    every generator of Z[S3], Z[C4], F2[C2], F3[S3], T(x_1), T(x_2),
    E(a,b), E(x)P'(y), the functions Z^{S3}, which is not cocommutative,
    and, with dy = x, E(x) (x) Z[y] and Z[C2] (x) E(x) (x) Z[y]; a sign
    flip in either sum, or s^{-1} inserted before s, fails them.  On
    E(x) (x) Z[y] and E(x) (x) F2[y]/y^2 they also compare psi with psi of
    the same algebra without its differential.

    epsilon is the counit map Cobar Bar H -> H; counit is the inherited
    DGCoalgebra.counit of the Hopf algebra Cobar Bar H, the indicator of the
    empty word."""

    def __init__(self, H, max_degree=None):
        self.H = H
        self.barH = bar_construction(H, max_degree=None if max_degree is None else max_degree + 1)
        self.epsilon = cobar_bar_counit(H, self.barH)
        super().__init__(self.barH, _closed_form_psi(H),
                         name="Hirsch(Bar %s)" % H.name)

    def hirsch(self):
        """This structure: Bar H with psi is its own Hirsch coalgebra."""
        return self
