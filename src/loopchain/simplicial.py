"""Finite simplicial sets with explicit degeneracy bookkeeping.

A simplex is encoded as (core id, phi) where core is a nondegenerate
simplex and phi is a monotone surjection onto its vertex set, stored as a
tuple of values; the encoding is the Eilenberg-Zilber normal form, so
degeneracy is decidable syntactically (phi is the identity iff the simplex
is nondegenerate).  Spaces provide face tables on nondegenerate simplices
only; the operator algebra extends them to all encodings.

The spaces are standard simplices, spheres, nerves of finite groups,
reduced suspensions, and the cyclic nerve of a finite group, a model of the
free loop space LBG whose power maps act on its normalized chains.  The
double suspension K = Sigma^2 M is two reduced suspensions; it has C_1 = 0,
so with hirsch_primitive the power maps of hochschild.power_map on the
coHochschild complex of its normalized chains model those of LK.
"""

from functools import cached_property, reduce
from itertools import combinations, product

from .chains import (
    ChainComplex, Element, GradedBasis, LinearMap, Table, generator, parity_sign, tensor_token, ZZ,
)
from .dg import DGCoalgebra
from .groups import BUILTIN_GROUPS


def identity_phi(n):
    return tuple(range(n + 1))


def encode_nondegenerate(core, dim):
    return (core, identity_phi(dim))


def simplex_dim(enc):
    return len(enc[1]) - 1


def is_degenerate(enc):
    core, phi = enc
    return len(phi) != phi[-1] + 1 if phi else False


class SimplicialSet:
    """Base: subclasses provide nondegenerate simplex ids and their faces."""

    name = "K"

    def nondegenerate(self, n):
        raise NotImplementedError

    def face_core(self, core, dim, i):
        """i-th face of a nondegenerate simplex, as an encoding."""
        raise NotImplementedError

    # -- operator algebra on encodings --

    @cached_property
    def _face_cores(self):
        """face_core(core, dim, i) keyed (core, dim, i), each built once per space."""
        return Table(lambda key: self.face_core(*key))

    def face(self, n, i, enc):
        core, phi = enc
        psi = phi[:i] + phi[i + 1:]
        dropped = phi[i]
        if dropped in psi:
            return (core, psi)
        # the face reaches into the core: face_core, memoised on this space
        core2, phiF = self._face_cores[core, len(set(phi)) - 1, dropped]
        collapsed = tuple(v if v < dropped else v - 1 for v in psi)
        return (core2, tuple(phiF[v] for v in collapsed))

    def degen(self, n, i, enc):
        core, phi = enc
        return (core, phi[:i + 1] + (phi[i],) + phi[i + 1:])

    def simplices(self, n):
        """All n-simplices (including degenerate) of a finite space."""
        out = []
        for m in range(n + 1):
            for core in self.nondegenerate(m):
                for phi in _surjections(n, m):
                    out.append((core, phi))
        return out


def _surjections(n, m):
    """Monotone surjections [n] -> [m] as value tuples."""
    if m > n:
        return []
    out = []

    def build(prefix, last):
        if len(prefix) == n + 1:
            if last == m:
                out.append(tuple(prefix))
            return
        remaining = n + 1 - len(prefix)
        for v in (last, last + 1):
            if v > m or m - v > remaining - 1:
                continue
            build(prefix + [v], v)

    build([0], 0)
    return out


class StandardSimplex(SimplicialSet):
    """Delta[n]: nondegenerate simplices are vertex subsets."""

    def __init__(self, n):
        self.n = n
        self.name = "delta:%d" % n

    def nondegenerate(self, k):
        if k > self.n:
            return []
        return [tuple(c) for c in combinations(range(self.n + 1), k + 1)]

    def face_core(self, core, dim, i):
        return encode_nondegenerate(core[:i] + core[i + 1:], dim - 1)


class Sphere(SimplicialSet):
    """S^n with one nondegenerate simplex in degrees 0 and n."""

    def __init__(self, n):
        self.n = n
        self.name = "sphere:%d" % n

    def nondegenerate(self, k):
        if k == 0:
            return ["*", "top"] if self.n == 0 else ["*"]
        if k == self.n:
            return ["top"]
        return []

    def face_core(self, core, dim, i):
        return ("*", (0,) * dim)


class Nerve(SimplicialSet):
    """Nerve of a finite group: one nondegenerate simplex per tuple of
    non-identity elements."""

    def __init__(self, group):
        self.group = group
        self.name = "nerve-%s" % group.name.lower()

    def nondegenerate(self, n):
        if n == 0:
            return [()]
        nontrivial = [g for g in self.group.elements if g != self.group.unit]
        return [tup for tup in product(nontrivial, repeat=n)]

    def encode(self, entries):
        """Encoding of a possibly-degenerate nerve simplex."""
        core = tuple(g for g in entries if g != self.group.unit)
        phi = [0]
        v = 0
        for g in entries:
            if g != self.group.unit:
                v += 1
            phi.append(v)
        return (core, tuple(phi))

    def face_core(self, core, dim, i):
        if i == 0:
            return encode_nondegenerate(core[1:], dim - 1)
        if i == dim:
            return encode_nondegenerate(core[:-1], dim - 1)
        merged = core[:i - 1] + (self.group.mul(core[i - 1], core[i]),) + core[i + 1:]
        return self.encode(merged)


class CyclicNerve(Nerve):
    """Cyclic nerve Z^cy G of a finite group, a model of the free loop
    space LBG: an n-simplex is (a_1, ..., a_n, b), nondegenerate iff no a_i
    is the unit.  Degeneracies insert units among the a_i and keep b."""

    def __init__(self, group):
        super().__init__(group)
        self.name = "cyclic-%s" % group.name.lower()

    def nondegenerate(self, n):
        return [a + (b,) for a in super().nondegenerate(n) for b in self.group.elements]

    def encode(self, entries):
        """Encoding of a possibly-degenerate simplex (a_1, ..., a_n, b)."""
        core, phi = super().encode(entries[:-1])
        return (core + entries[-1:], phi)

    def face_core(self, core, dim, i):
        mul = self.group.mul
        a, b = core[:-1], core[-1]
        if i == 0:
            return self.encode(a[1:] + (mul(b, a[0]),))
        if i == dim:
            return self.encode(a[:-1] + (mul(a[-1], b),))
        return self.encode(a[:i - 1] + (mul(a[i - 1], a[i]),) + a[i + 1:] + (b,))

    def power_map(self, r, ring=ZZ):
        """lambda_r(a, b) = (a, b (a_1...a_n b)^(r-1)) on the normalized
        chains over ring: the r-th power map of LBG.  It keeps every a_i, so
        it maps nondegenerate simplices to nondegenerate ones."""
        mul = self.group.mul

        def fn(tok):
            core = tok.data[2]
            loop = reduce(mul, core)
            power = core[-1]
            for _ in range(r - 1):
                power = mul(power, loop)
            image = encode_nondegenerate(core[:-1] + (power,), tok.degree)
            return Element.from_token(ring, simplex_token(self, image))

        return LinearMap(ring, 0, fn, "lambda_%d" % r)


class ReducedSuspension(SimplicialSet):
    """Reduced suspension of L at a vertex basepoint: the cone on L with L and
    the cone on the basepoint collapsed to the one vertex a0.  Its
    nondegenerate n-simplices are ("up", x) for x in L_{n-1} other than the
    basepoint, with the cone vertex first."""

    def __init__(self, L, basepoint):
        self.L = L
        self.basepoint = basepoint
        self.name = "E(%s)" % L.name

    def nondegenerate(self, n):
        if n == 0:
            return ["a0"]
        return [("up", core) for core in self.L.nondegenerate(n - 1)
                if core != self.basepoint]

    def lift(self, k, enc_l):
        """Encoding of the cone vertex k times followed by the simplex enc_l of
        L; on the basepoint it is the degenerate a0."""
        core_l, phi_l = enc_l
        if core_l == self.basepoint:
            return ("a0", (0,) * (k + len(phi_l)))
        return (("up", core_l), (0,) * k + tuple(v + 1 for v in phi_l))

    def face_core(self, core, dim, i):
        if i == 0 or dim == 1:
            return ("a0", (0,) * dim)
        return self.lift(1, self.L.face_core(core[1], dim - 1, i - 1))


def double_suspension(M):
    """Sigma^2 M as two reduced suspensions, pointed at M's first vertex.  It
    has one vertex and no nondegenerate 1-simplex, so its cobar construction
    is of finite type."""
    S = ReducedSuspension(ReducedSuspension(M, M.nondegenerate(0)[0]), "a0")
    S.name = "SS(%s)" % M.name
    return S


# ---------------------------------------------------------------------------
# Normalized chains


def simplex_token(K, enc):
    core, phi = enc
    return generator(("sx", K.name, core), len(phi) - 1)


def normalized_chains(K, ring=ZZ, max_degree=10):
    """Free module on nondegenerate simplices with the alternating-sum
    differential and the front/back-face diagonal."""

    def basis_fn(n):
        return [generator(("sx", K.name, core), n) for core in K.nondegenerate(n)]

    basis = GradedBasis(ring, basis_fn, max_degree, "C(%s)" % K.name)

    def differential(tok):
        core = tok.data[2]
        n = tok.degree
        if n == 0:
            return Element(ring)
        pairs = []
        for i in range(n + 1):
            enc = K.face_core(core, n, i)
            if not is_degenerate(enc):
                pairs.append((generator(("sx", K.name, enc[0]), n - 1), parity_sign(i)))
        return Element(ring, pairs)

    cx = ChainComplex(basis, LinearMap(ring, -1, differential, "d"),
                      "C(%s)" % K.name)
    vertices = K.nondegenerate(0)
    counit_tok = generator(("sx", K.name, vertices[0]), 0)

    def comult(tok):
        core = tok.data[2]
        n = tok.degree
        pairs = []
        enc = encode_nondegenerate(core, n)
        for i in range(n + 1):
            front = enc
            for j in range(n, i, -1):
                front = K.face(simplex_dim(front), j, front)
            back = enc
            for _ in range(i):
                back = K.face(simplex_dim(back), 0, back)
            if is_degenerate(front) or is_degenerate(back):
                continue
            pairs.append((tensor_token(simplex_token(K, front), simplex_token(K, back)), 1))
        return Element(ring, pairs)

    def counit(tok):
        return 1 if tok.degree == 0 else 0

    return DGCoalgebra(cx, counit_tok, comult, counit, "C(%s)" % K.name)


def check_simplicial_set(K, max_degree):
    """The first failure of the simplicial identities on all simplices of
    degree <= max_degree, as (identity, n, i, j, simplex), or None: "dd" is
    d_i d_j = d_{j-1} d_i (i < j), "ds" the face of a degeneracy and "ss" is
    s_{j+1} s_i = s_i s_j (i <= j), each on n-simplices."""
    face, degen = K.face, K.degen

    def ds(n, i, j, enc):
        if i < j:
            want = degen(n - 1, j - 1, face(n, i, enc))
        elif i > j + 1:
            want = degen(n - 1, j, face(n, i - 1, enc))
        else:
            want = enc
        return face(n + 1, i, degen(n, j, enc)) == want

    identities = [
        ("dd", range(2, max_degree + 1), lambda n, j: range(j),
         lambda n, i, j, enc: face(n - 1, i, face(n, j, enc)) == face(n - 1, j - 1, face(n, i, enc))),
        ("ds", range(max_degree), lambda n, j: range(n + 2), ds),
        ("ss", range(max_degree), lambda n, j: range(j + 1),
         lambda n, i, j, enc: degen(n + 1, j + 1, degen(n, i, enc)) == degen(n + 1, i, degen(n, j, enc))),
    ]
    return next(((name, n, i, j, enc) for name, degrees, indices, holds in identities
                 for n in degrees for enc in K.simplices(n) for j in range(n + 1)
                 for i in indices(n, j) if not holds(n, i, j, enc)), None)


def get_space(name):
    """Fixture registry: delta:n, sphere:n, circle, nerve-z2 (RP^infinity
    = BC2), sigma-rpinfty (its suspension Sigma RP^infinity), cyclic-c2,
    cyclic-s3.  double_suspension(get_space(name)) gives the double
    suspensions whose coHochschild power maps model LSigma^2 M."""
    if name.startswith("delta:"):
        return StandardSimplex(int(name.split(":")[1]))
    if name.startswith("sphere:"):
        return Sphere(int(name.split(":")[1]))
    if name == "circle":
        return ReducedSuspension(Sphere(0), "*")
    if name == "nerve-z2":
        return Nerve(BUILTIN_GROUPS["c2"])
    if name in ("cyclic-c2", "cyclic-s3"):
        return CyclicNerve(BUILTIN_GROUPS[name.split("-")[1]])
    if name == "sigma-rpinfty":
        K = ReducedSuspension(Nerve(BUILTIN_GROUPS["c2"]), ())
        K.name = "sigma-rpinfty"
        return K
    raise KeyError("unknown space fixture %r" % name)
