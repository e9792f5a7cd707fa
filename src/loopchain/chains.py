"""Graded free modules, the Koszul sign engine, and chain complexes.

Everything downstream (bar/cobar constructions, Hochschild complexes, the
simplicial chain functor) is built out of four values defined here: rings,
basis tokens, sparse elements, and graded linear maps.  All arithmetic is
exact: integers are Python ints, prime fields are ints reduced mod p.

Tokens are interned (hash-consed): one object per token, built on first
request and returned again on every later one, so tokens compare and hash
by identity and each keeps its sort key once computed.

Sums have one home, Element: its constructor is the one loop that merges
(token, coefficient) pairs, reduces them mod p and drops zero terms.  Every
sum in the library is built through it, by the constructor on a list of
pairs or by the combinators on top of it: Element.apply (linear extension),
Element.bilinear (bilinear extension) and tensor_product (the tensor fold
into tensor or word tokens).
"""


class Ring:
    """The integers, or a prime field F_p."""

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None:
            if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
                raise ValueError("modulus must be prime, got %r" % (p,))
        self.p = p

    @property
    def is_field(self):
        return self.p is not None

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

    kind is one of 'atom', 'susp', 'desusp', 'tensor', 'word', 'dual'.
    Tokens are interned: the six constructors below (generator, suspend,
    desuspend, tensor_token, word_token, dual_token) build at most one Token
    for each (kind, data, degree) and return it on every later request, so
    equal tokens are the same object.  Tokens therefore compare and hash by
    identity.  Build tokens only through those constructors.
    """

    __slots__ = ("kind", "data", "degree", "_sort_key")

    def __init__(self, kind, data, degree):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "degree", degree)

    def __setattr__(self, *a):
        raise AttributeError("Token is immutable")

    def __eq__(self, other):
        return self is other

    __hash__ = object.__hash__

    def __repr__(self):
        return token_repr(self)


# The intern table.  Only atoms need their degree in the key: every other
# kind's degree is a function of its data, so (kind, data) names the same
# token, and a hit skips summing the factor degrees.
_TOKENS = {}


def _intern(key, degree):
    """Build, record and return the token for key = (kind, data, ...);
    called on a miss only."""
    tok = _TOKENS[key] = Token(key[0], key[1], degree)
    return tok


def generator(name, degree):
    """Atomic generator token."""
    try:
        return _TOKENS["atom", name, degree]
    except KeyError:
        return _intern(("atom", name, degree), degree)


def suspend(tok):
    if tok.kind == "desusp":
        return tok.data
    try:
        return _TOKENS["susp", tok]
    except KeyError:
        return _intern(("susp", tok), tok.degree + 1)


def desuspend(tok):
    if tok.kind == "susp":
        return tok.data
    try:
        return _TOKENS["desusp", tok]
    except KeyError:
        return _intern(("desusp", tok), tok.degree - 1)


def tensor_token(*factors):
    try:
        return _TOKENS["tensor", factors]
    except KeyError:
        return _intern(("tensor", factors), sum([f.degree for f in factors]))


def word_token(letters):
    letters = tuple(letters)
    try:
        return _TOKENS["word", letters]
    except KeyError:
        return _intern(("word", letters), sum([l.degree for l in letters]))


def dual_token(tok):
    if tok.kind == "dual":
        return tok.data
    try:
        return _TOKENS["dual", tok]
    except KeyError:
        return _intern(("dual", tok), tok.degree)


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
    if k == "dual":
        return "%s*" % token_repr(tok.data)
    raise ValueError(k)


_KIND_RANK = {"atom": 0, "susp": 1, "desusp": 2, "tensor": 3, "word": 4, "dual": 5}


def sort_key(tok):
    """Total deterministic order on tokens (lexicographic on structure).

    Each token computes its key once and keeps it, so the recursion stops
    at children already keyed.
    """
    try:
        return tok._sort_key
    except AttributeError:
        pass
    k = tok.kind
    if k == "atom":
        key = (tok.degree, 0, repr(tok.data))
    elif k in ("susp", "desusp", "dual"):
        key = (tok.degree, _KIND_RANK[k], sort_key(tok.data))
    else:
        key = (tok.degree, _KIND_RANK[k], len(tok.data), tuple([sort_key(t) for t in tok.data]))
    object.__setattr__(tok, "_sort_key", key)
    return key


# ---------------------------------------------------------------------------
# Koszul sign engine

# Every sign in this library is (-1)^e for an exponent e; koszul_sign and
# operator_application_sign compute e from the symbol reordering a formula
# performs, and parity_sign turns an exponent into the sign.


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
    terms are dropped.  _add is the one loop that writes terms: the
    constructor feeds it (token, coefficient) pairs, and apply, bilinear
    and tensor_product build their sums through the constructor.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None):
        self.ring = ring
        self.terms = {}
        if terms:
            self._add(terms.items() if isinstance(terms, dict) else terms)

    def _add(self, pairs):
        terms = self.terms
        get = terms.get
        p = self.ring.p
        for tok, c in pairs:
            c += get(tok, 0)
            if p:
                c %= p
            if c:
                terms[tok] = c
            else:
                terms.pop(tok, None)

    def _accumulate(self, tok, c):
        self._add(((tok, c),))

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

    def degree(self):
        """Common degree of all terms; None for 0, error if mixed."""
        degs = {t.degree for t in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("mixed-degree element: %r" % sorted(degs))
        return degs.pop()

    def __add__(self, other):
        return Element(self.ring, [*self.terms.items(), *other.terms.items()])

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return Element(self.ring, [(t, c * v) for t, v in self.terms.items()])

    def items(self):
        return self.terms.items()

    def coefficient(self, tok):
        return self.terms.get(tok, 0)

    def apply(self, fn):
        """Linear extension: the sum of c * fn(t) over the terms c*t, where
        fn maps a token to an Element."""
        return Element(self.ring, [(u, c * cu) for t, c in self.terms.items()
                                   for u, cu in fn(t).terms.items()])

    def bilinear(self, other, fn):
        """Bilinear extension: the sum of c1 * c2 * fn(t1, t2) over the terms
        c1*t1 of self and c2*t2 of other, where fn returns an Element."""
        right = other.terms.items()
        return Element(self.ring, [(u, c1 * c2 * cu) for t1, c1 in self.terms.items()
                                   for t2, c2 in right for u, cu in fn(t1, t2).terms.items()])

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

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


class LinearMap:
    """Degree-shifting map given by images of basis tokens.

    fn maps a token to an Element; linear extension over elements is
    implicit.  Composition and tensoring carry the Koszul discipline.
    Maps are pure, so each map caches fn's image of every token it is
    applied to, keyed by the (interned) token, for as long as the map lives;
    an element is mapped through the cached images of its tokens.  Cached
    images are shared Elements, so callers must not mutate them.
    """

    __slots__ = ("ring", "shift", "fn", "name", "_cache")

    def __init__(self, ring, shift, fn, name=""):
        self.ring = ring
        self.shift = shift
        self.fn = fn
        self.name = name
        self._cache = {}

    def _image(self, tok):
        img = self._cache.get(tok)
        if img is None:
            img = self.fn(tok)
            self._cache[tok] = img
        return img

    def __call__(self, x):
        if isinstance(x, Token):
            return self._image(x)
        return x.apply(self._image)

    def then(self, g):
        """g o self (apply self first)."""
        return compose(g, self)

    def __repr__(self):
        return "LinearMap(%s, shift=%+d)" % (self.name or "?", self.shift)


def identity_map(ring):
    return LinearMap(ring, 0, lambda t: Element.from_token(ring, t), "id")


def zero_map(ring, shift=0):
    return LinearMap(ring, shift, lambda t: Element.zero(ring), "0")


def compose(f, g):
    """f o g."""
    return LinearMap(g.ring, f.shift + g.shift, lambda t: f(g(t)), "%s.%s" % (f.name, g.name))


def add_maps(f, g):
    if f.shift != g.shift:
        raise ValueError("cannot add maps of different shifts")
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
    if any(m.ring != ring for m in maps):
        raise ValueError("ring mismatch in tensor of maps")
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

    Requesting a degree above max_degree raises: silent truncation would
    corrupt d^2 = 0 checks at the boundary.
    """

    def __init__(self, ring, source, max_degree, name=""):
        self.ring = ring
        self.max_degree = max_degree
        self.name = name
        if isinstance(source, dict):
            self._fn = lambda n: source.get(n, [])
        else:
            self._fn = source
        self._cache = {}

    def basis(self, n):
        if n < 0:
            return []
        if n > self.max_degree:
            raise DegreeOverflowError(
                "%s: degree %d exceeds max_degree %d" % (self.name or "basis", n, self.max_degree)
            )
        if n not in self._cache:
            toks = list(self._fn(n))
            toks.sort(key=sort_key)
            self._cache[n] = toks
        return self._cache[n]

    def dimension(self, n):
        return len(self.basis(n))

    def index(self, n):
        return {t: i for i, t in enumerate(self.basis(n))}


class DegreeOverflowError(Exception):
    pass


class InfiniteTypeError(Exception):
    pass


class ChainComplex:
    """A graded basis with a differential (shift -1; +1 for duals)."""

    def __init__(self, basis, differential, name=""):
        self.basis = basis
        self.d = differential
        self.name = name

    @property
    def ring(self):
        return self.basis.ring

    @property
    def max_degree(self):
        return self.basis.max_degree

    def check_d_squared(self, through_degree):
        """First token with d(d(token)) != 0, or None."""
        for n in range(through_degree + 1):
            for tok in self.basis.basis(n):
                if not self.d(self.d(tok)).is_zero():
                    return tok
        return None

    def matrix(self, n):
        """Matrix of d out of degree n: rows indexed by target basis."""
        target = n + self.d.shift
        rows = self.basis.basis(target) if 0 <= target <= self.max_degree else []
        idx = {t: i for i, t in enumerate(rows)}
        cols = self.basis.basis(n)
        mat = [[0] * len(cols) for _ in rows]
        for j, tok in enumerate(cols):
            for t, c in self.d(tok).items():
                mat[idx[t]][j] = c
        return mat


def verify_chain_map(f, src, dst, through_degree):
    """Check d o f = (-1)^shift f o d on all basis tokens <= through_degree.

    Returns (True, None) or (False, first offending token).
    """
    sign = parity_sign(f.shift)
    for n in range(through_degree + 1):
        for tok in src.basis.basis(n):
            lhs = dst.d(f(tok))
            rhs = f(src.d(tok)).scale(sign)
            if lhs != rhs:
                return False, tok
    return True, None


def dualize(x, through_degree=None):
    """Degreewise dual with transposed differential (shift +1).

    Dual of a dual complex recovers the original tokens (dual_token is an
    involution); requires finite type through the requested degree.
    """
    n_max = x.max_degree if through_degree is None else through_degree
    ring = x.ring

    def dual_basis(n):
        return [dual_token(t) for t in x.basis.basis(n)]

    basis = GradedBasis(ring, dual_basis, n_max, name="dual(%s)" % x.name)

    def dfn(tok):
        inner = tok.data if tok.kind == "dual" else dual_token(tok)
        n = tok.degree
        src_deg = n - x.d.shift
        if src_deg > n_max or src_deg < 0:
            return Element(ring)
        # Koszul transpose; the +1 twist on shift +1 inputs encodes the
        # signed evaluation identification, making dualize an involution.
        sign = parity_sign(n if x.d.shift == -1 else n + 1)
        column = [(y, x.d(y).coefficient(inner)) for y in x.basis.basis(src_deg)]
        return Element(ring, [(dual_token(y), sign * c) for y, c in column if c])

    shift = -x.d.shift
    return ChainComplex(basis, LinearMap(ring, shift, dfn, "d*"), name="dual(%s)" % x.name)
