"""Graded free modules, the Koszul sign engine, and chain complexes.

Everything downstream (bar/cobar constructions, Hochschild complexes, the
simplicial chain functor) is built out of four values defined here: rings,
basis tokens, sparse elements, and graded linear maps.  All arithmetic is
exact: integers are Python ints, prime fields are ints reduced mod p.

Tokens are interned (hash-consed): one object per token, built on first
request and returned again on every later one, so tokens compare and hash
by identity.  A token's sort key is computed on its first sort and kept;
it is built from its children's kept keys, read by attribute.

Memoisation has one home, Table: a dict that fills a key on its first
read.  A LinearMap caches the image of every token in a Table filled by
its _image, so a cached image is read by a subscript, not a call.

Sums have one home, Element: its constructor is the one loop that merges
(token, coefficient) pairs, reduces them mod p and drops zero terms.  Every
sum in the library is built through it, by the constructor on a list of
pairs or by the combinators on top of it: Element.apply (linear extension
of a token -> Element map), Element.bilinear (bilinear extension of a
function returning unreduced (token, coefficient) pairs) and
tensor_product (the tensor fold into tensor or word tokens).  Functions
that only feed a sum return pairs, not an Element, so a product of two
elements merges into one Element, not one per term pair.

Every identity check (d^2 = 0, chain maps, the twisting condition, the
(co)algebra laws, the SDR identities, the simplicial identities) returns
its first witness, the token or tuple on which the identity fails, or None
when it holds.  A check walks its basis lazily in degree order, through
GradedBasis.through, so it stops at its first witness and builds no degree
beyond it.
"""

from itertools import chain


class Ring:
    """The integers, or a prime field F_p."""

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None:
            if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
                raise ValueError("modulus must be prime, got %r" % (p,))
        self.p = p

    def __eq__(self, other):
        return isinstance(other, Ring) and self.p == other.p

    def __hash__(self):
        return hash(("Ring", self.p))

    def __repr__(self):
        return "Z" if self.p is None else "F%d" % self.p


ZZ = Ring()
F2 = Ring(2)
F3 = Ring(3)
F5 = Ring(5)

RINGS = {"Z": ZZ, "F2": F2, "F3": F3, "F5": F5}


# ---------------------------------------------------------------------------
# Tokens


class Token:
    """Immutable structured basis symbol with a fixed degree.

    kind is one of 'atom', 'susp', 'desusp', 'tensor', 'word'.
    Tokens are interned: the five constructors below (generator, suspend,
    desuspend, tensor_token, word_token) build at most one Token
    for each (kind, data, degree) and return it on every later request, so
    equal tokens are the same object.  Tokens therefore compare and hash by
    identity.  Build tokens only through those constructors.
    _sort_key is None until sort_key first keys the token: only tokens that
    are sorted pay for a key.
    """

    __slots__ = ("kind", "data", "degree", "_sort_key")

    def __init__(self, kind, data, degree):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_sort_key", None)

    def __setattr__(self, *a):
        raise AttributeError("Token is immutable")

    def __eq__(self, other):
        return self is other

    __hash__ = object.__hash__

    def __repr__(self):
        return token_repr(self)


# The intern table.  Only atoms need their degree in the key: every other
# kind's degree is a function of its data, so (kind, data) names the same
# token, and a hit skips summing the factor degrees.  Each constructor
# builds and records its Token inline on a miss, summing a degree in a
# plain loop: a hit is one call, a miss two (the constructor and
# Token.__init__).
_TOKENS = {}


def generator(name, degree):
    """Atomic generator token."""
    try:
        return _TOKENS["atom", name, degree]
    except KeyError:
        tok = _TOKENS["atom", name, degree] = Token("atom", name, degree)
        return tok


def suspend(tok):
    if tok.kind == "desusp":
        return tok.data
    try:
        return _TOKENS["susp", tok]
    except KeyError:
        out = _TOKENS["susp", tok] = Token("susp", tok, tok.degree + 1)
        return out


def desuspend(tok):
    if tok.kind == "susp":
        return tok.data
    try:
        return _TOKENS["desusp", tok]
    except KeyError:
        out = _TOKENS["desusp", tok] = Token("desusp", tok, tok.degree - 1)
        return out


def tensor_token(*factors):
    try:
        return _TOKENS["tensor", factors]
    except KeyError:
        degree = 0
        for f in factors:
            degree += f.degree
        tok = _TOKENS["tensor", factors] = Token("tensor", factors, degree)
        return tok


def word_token(letters):
    letters = tuple(letters)
    try:
        return _TOKENS["word", letters]
    except KeyError:
        degree = 0
        for letter in letters:
            degree += letter.degree
        tok = _TOKENS["word", letters] = Token("word", letters, degree)
        return tok


def token_repr(tok):
    k = tok.kind
    if k == "atom":
        return str(tok.data)
    if k == "susp":
        return "s(%s)" % token_repr(tok.data)
    if k == "desusp":
        return "s'(%s)" % token_repr(tok.data)
    if k == "tensor":
        return "(" + " (x) ".join(token_repr(t) for t in tok.data) + ")"
    if k == "word":
        return "[" + "|".join(token_repr(t) for t in tok.data) + "]" if tok.data else "[]"
    raise ValueError(k)


_KIND_RANK = {"atom": 0, "susp": 1, "desusp": 2, "tensor": 3, "word": 4}


def sort_key(tok):
    """Total deterministic order on tokens (lexicographic on structure).

    Each token computes its key once, on its first sort, and keeps it in
    _sort_key.  The key is built from the children's kept keys, read by
    attribute; sort_key calls itself only for a child not yet keyed.
    """
    key = tok._sort_key
    if key is not None:
        return key
    k = tok.kind
    if k == "atom":
        key = (tok.degree, 0, repr(tok.data))
    elif k in ("susp", "desusp"):
        key = (tok.degree, _KIND_RANK[k], tok.data._sort_key or sort_key(tok.data))
    else:
        key = (tok.degree, _KIND_RANK[k], len(tok.data),
               tuple([t._sort_key or sort_key(t) for t in tok.data]))
    object.__setattr__(tok, "_sort_key", key)
    return key


# ---------------------------------------------------------------------------
# Koszul sign engine

# Every sign in this library is (-1)^e for an exponent e; koszul_sign and
# operator_application_sign compute e from the symbol reordering a formula
# performs, and parity_sign turns an exponent into the sign.  No
# construction calls koszul_sign: each writes its reordering exponent in
# closed form, and the tests check those forms against koszul_sign.


def parity_sign(exponent):
    """(-1)^exponent."""
    return -1 if exponent % 2 else 1


def koszul_sign(degrees, permutation):
    """Sign of rearranging graded symbols.

    permutation lists old indices in their new order: new[k] = old[permutation[k]].
    Swapping two adjacent symbols of degrees a, b contributes (-1)^(a*b).
    """
    n = len(degrees)
    if sorted(permutation) != list(range(n)):
        raise ValueError("malformed permutation %r" % (permutation,))
    exponent = 0
    for q in range(n):
        for p in range(q):
            if permutation[p] > permutation[q]:
                exponent += degrees[permutation[p]] * degrees[permutation[q]]
    return parity_sign(exponent)


def operator_application_sign(op_degrees, symbol_degrees):
    """Koszul sign of applying (f_1 (x) ... (x) f_m) to x_1 (x) ... (x) x_m.

    Each f_q passes the symbols x_1..x_{q-1}: sign (-1)^(|f_q|*(|x_1|+..)).
    """
    exponent = 0
    left = 0
    for fq, xq in zip(op_degrees, symbol_degrees):
        exponent += fq * left
        left += xq
    return parity_sign(exponent)


# ---------------------------------------------------------------------------
# Elements


class Element:
    """Sparse formal sum of tokens with nonzero ring coefficients.

    terms maps each token to its coefficient, reduced mod p over F_p; zero
    terms are dropped.  The constructor is the one loop that writes terms:
    it merges (token, coefficient) pairs, or a dict's items, by in,
    subscript and del alone, with no call per term and no call for a pair
    list, and apply, bilinear and tensor_product build their sums through
    it.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None):
        self.ring = ring
        self.terms = out = {}
        if terms:
            if terms.__class__ is not list and isinstance(terms, dict):
                terms = terms.items()
            p = ring.p
            for tok, c in terms:
                if tok in out:
                    c += out[tok]
                if p:
                    c %= p
                if c:
                    out[tok] = c
                elif tok in out:
                    del out[tok]

    def _accumulate(self, tok, c):
        """Add c * tok in place, merged by the constructor."""
        self.terms = Element(self.ring, [*self.terms.items(), (tok, c)]).terms

    @classmethod
    def zero(cls, ring):
        return cls(ring)

    @classmethod
    def from_token(cls, ring, tok, coeff=1):
        e = cls(ring)
        e._accumulate(tok, coeff)
        return e

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if self.ring.p != other.ring.p:
            raise ValueError("cannot add elements over %r and %r" % (self.ring, other.ring))
        return Element(self.ring, [*self.terms.items(), *other.terms.items()])

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return Element(self.ring, [(t, c * v) for t, v in self.terms.items()])

    def items(self):
        return self.terms.items()

    def apply(self, fn):
        """Linear extension: the sum of c * fn(t) over the terms c*t, where
        fn maps a token to an Element."""
        return Element(self.ring, [(u, c * cu) for t, c in self.terms.items()
                                   for u, cu in fn(t).terms.items()])

    def bilinear(self, other, fn):
        """Bilinear extension: the sum of c1 * c2 * fn(t1, t2) over the terms
        c1*t1 of self and c2*t2 of other, where fn returns (token,
        coefficient) pairs, unreduced: tokens may repeat and coefficients
        need not be reduced mod p."""
        right = other.terms.items()
        return Element(self.ring, [(u, c1 * c2 * cu) for t1, c1 in self.terms.items()
                                   for t2, c2 in right for u, cu in fn(t1, t2)])

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for t in sorted(self.terms, key=sort_key):
            c = self.terms[t]
            bits.append("%+d*%s" % (c, token_repr(t)))
        return " ".join(bits)


def _flat_tensor(tokens):
    return tensor_token(*tokens)


def tensor_product(ring, factors, coeff=1, join=_flat_tensor):
    """coeff * (x_1 (x) ... (x) x_k) for Elements x_i, with no signs.

    Each choice of a term c_i*t_i from every factor contributes
    coeff * c_1...c_k * join((t_1, ..., t_k)).  join defaults to the flat
    tensor token; word_token makes the product a word of letters.  Callers
    pass the Koszul sign of their rearrangement in coeff.
    """
    partial = [((), coeff)]
    for x in factors:
        items = x.terms.items()
        partial = [(ts + (t,), c * ct) for ts, c in partial for t, ct in items]
    return Element(ring, [(join(ts), c) for ts, c in partial])


# ---------------------------------------------------------------------------
# Graded linear maps


class Table(dict):
    """A dict that fills a key with fill(key) on its first read, table[key]:
    each key is computed once, and a later read is one lookup, not a call."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


# SIGNS[e] = parity_sign(e), filled once per exponent: a sign read per term
# is one subscript, not a call.
SIGNS = Table(parity_sign)


class LinearMap:
    """Degree-shifting map given by images of basis tokens.

    fn maps a token to an Element; linear extension over elements is
    implicit.  tensor_maps carries the Koszul sign of passing a map over
    the factors before it.
    Maps are pure, so each map caches fn's image of every token it is
    applied to in a Table filled by _image, once per (interned) token, for
    as long as the map lives: a token is mapped by one subscript of the
    cache and an element by one subscript per term, with no call per cached
    term.  Cached images are shared Elements, so callers must not mutate
    them.
    """

    __slots__ = ("ring", "shift", "fn", "name", "_cache")

    def __init__(self, ring, shift, fn, name=""):
        self.ring = ring
        self.shift = shift
        self.fn = fn
        self.name = name
        self._cache = Table(self._image)

    def _image(self, tok):
        return self.fn(tok)

    def __call__(self, x):
        cache = self._cache
        if x.__class__ is Token:
            return cache[x]
        return Element(self.ring, [(u, c * img[u]) for t, c in x.terms.items()
                                   for img in [cache[t].terms] for u in img])

    def __repr__(self):
        return "LinearMap(%s, shift=%+d)" % (self.name or "?", self.shift)


def identity_map(ring):
    return LinearMap(ring, 0, lambda t: Element.from_token(ring, t), "id")


def zero_map(ring, shift=0):
    return LinearMap(ring, shift, lambda t: Element.zero(ring), "0")


def add_maps(f, g):
    if f.shift != g.shift:
        raise ValueError("cannot add maps of different shifts")
    if f.ring.p != g.ring.p:
        raise ValueError("cannot add maps over %r and %r" % (f.ring, g.ring))
    return LinearMap(f.ring, f.shift, lambda t: f(t) + g(t), "%s+%s" % (f.name, g.name))


def map_from_table(ring, shift, table, name=""):
    """LinearMap defined by a dict token -> Element; zero off the table."""

    def fn(tok):
        return table.get(tok, Element.zero(ring))

    return LinearMap(ring, shift, fn, name)


def tensor_map(f, g):
    """Koszul-signed tensor of two maps, acting on binary tensor tokens."""
    return tensor_maps([f, g])


def tensor_maps(maps):
    """(f_1 (x) ... (x) f_m) on m-fold tensor tokens with Koszul signs."""
    ring = maps[0].ring
    other = next((m.ring for m in maps if m.ring != ring), None)
    if other is not None:
        raise ValueError("cannot tensor maps over %r and %r" % (ring, other))
    shift = sum(m.shift for m in maps)
    op_degrees = [m.shift for m in maps]

    def fn(tok):
        if tok.kind != "tensor" or len(tok.data) != len(maps):
            raise ValueError("expected %d-fold tensor token, got %r" % (len(maps), tok))
        sign = operator_application_sign(op_degrees, [t.degree for t in tok.data])
        return tensor_product(ring, [m(t) for m, t in zip(maps, tok.data)], sign)

    return LinearMap(ring, shift, fn, "(x)".join(m.name for m in maps))


# ---------------------------------------------------------------------------
# Graded bases and chain complexes


class GradedBasis:
    """Per-degree ordered basis, eager or generated, hard-truncated.

    Each degree is built once and sorted by sort_key.  Requesting a degree
    above max_degree raises: silent truncation would corrupt d^2 = 0 checks
    at the boundary.
    """

    def __init__(self, ring, source, max_degree, name=""):
        self.ring = ring
        self.max_degree = max_degree
        self.name = name
        if isinstance(source, dict):
            self._fn = lambda n: source.get(n, [])
        else:
            self._fn = source
        self._cache = Table(lambda n: sorted(self._fn(n), key=sort_key))
        self._index = Table(lambda n: {t: i for i, t in enumerate(self.basis(n))})

    def basis(self, n):
        if n < 0:
            return []
        if n > self.max_degree:
            raise DegreeOverflowError(
                "%s: degree %d exceeds max_degree %d" % (self.name or "basis", n, self.max_degree)
            )
        return self._cache[n]

    def through(self, top, bottom=0):
        """The tokens of degrees bottom..top in degree order, built lazily:
        each degree is built when the walk reaches it (no Python frame per token)."""
        return chain.from_iterable(map(self.basis, range(bottom, top + 1)))

    def dimension(self, n):
        return len(self.basis(n))

    def index(self, n):
        return self._index[n]


class DegreeOverflowError(Exception):
    pass


class InfiniteTypeError(Exception):
    pass


class ChainComplex:
    """A graded basis with a differential (shift -1); ring and max_degree are the basis's."""

    def __init__(self, basis, differential, name=""):
        self.basis = basis
        self.ring = basis.ring
        self.max_degree = basis.max_degree
        self.d = differential
        self.name = name

    def check_d_squared(self, through_degree):
        """First token with d(d(token)) != 0, or None."""
        d = self.d
        return next((t for t in self.basis.through(through_degree) if not d(d(t)).is_zero()), None)


def verify_chain_map(f, src, dst, through_degree):
    """First basis token of src of degree <= through_degree on which
    d o f != (-1)^shift f o d, or None."""
    sign = parity_sign(f.shift)
    return next((t for t in src.basis.through(through_degree)
                 if dst.d(f(t)) != f(src.d(t)).scale(sign)), None)

