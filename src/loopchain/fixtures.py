"""Shipped algebraic fixtures and the declarative fixture-file parser.

The Hopf fixtures exercise the commutative/cocommutative flags
independently: free algebra on one primitive (even and odd generator),
exterior algebra on two generators, truncated polynomial algebras, and
group rings of C_2 and S_3 in an augmentation-aligned basis.
"""

from .chains import (
    ChainComplex, Element, GradedBasis, LinearMap, Table, generator, parity_sign,
    tensor_token, word_token, desuspend, zero_map, RINGS, ZZ, F2,
)
from .dg import (
    DGAlgebra, DGCoalgebra, HopfAlgebra, hirsch_primitive,
    tensor_algebra, cobar_construction,
)
from .groups import BUILTIN_GROUPS


# ---------------------------------------------------------------------------
# Coalgebra fixtures


def _primitive_comult(ring, one):
    """The comultiplication with every token other than one primitive."""
    def comult(tok):
        if tok is one:
            return Element(ring, [(tensor_token(one, one), 1)])
        return Element(ring, [(tensor_token(one, tok), 1), (tensor_token(tok, one), 1)])
    return comult


def sphere_coalgebra(n, ring=ZZ, max_degree=None):
    """Chains model of an n-sphere: unit and one primitive generator."""
    if n < 1:
        raise ValueError("sphere_coalgebra needs n >= 1, got %r" % (n,))
    if max_degree is None:
        max_degree = 2 * n + 10
    one = generator("1", 0)
    y = generator("y", n)
    basis = GradedBasis(ring, {0: [one], n: [y]}, max_degree, "C(S%d)" % n)
    cx = ChainComplex(basis, zero_map(ring, -1), "C(S%d)" % n)

    return DGCoalgebra(cx, one, _primitive_comult(ring, one), name="C(S%d)" % n)


def nonreal_aw_coalgebra(ring=ZZ, max_degree=16):
    """Five-generator coalgebra with dy = 2x, dy' = 3x and a non-primitive
    top class; cocommutative only up to homotopy."""
    u = generator("u", 0)
    x = generator("x", 3)
    y = generator("y", 4)
    yp = generator("y'", 4)
    z = generator("z", 7)
    basis = GradedBasis(ring, {0: [u], 3: [x], 4: [y, yp], 7: [z]}, max_degree, "Cnaw")
    dtable = {y: Element.from_token(ring, x, 2), yp: Element.from_token(ring, x, 3)}

    def dfn(tok):
        return dtable.get(tok, Element(ring))

    cx = ChainComplex(basis, LinearMap(ring, -1, dfn, "d"), "Cnaw")

    def comult(tok):
        if tok is u:
            return Element(ring, [(tensor_token(u, u), 1)])
        pairs = [(tensor_token(u, tok), 1), (tensor_token(tok, u), 1)]
        if tok is z:
            pairs += [(tensor_token(x, y), 3), (tensor_token(x, yp), -2)]
        return Element(ring, pairs)

    return DGCoalgebra(cx, u, comult, name="Cnaw")


def nonreal_aw_hirsch(ring=ZZ, max_degree=16):
    """The balanced Hirsch structure on the five-generator coalgebra:
    primitive on all cobar generators except the top one."""
    C = nonreal_aw_coalgebra(ring, max_degree)
    omega = cobar_construction(C)
    toks = {t.data: t for t in [C.complex.basis.basis(3)[0]] + C.complex.basis.basis(4) + C.complex.basis.basis(7)}
    x, y, yp, z = toks["x"], toks["y"], toks["y'"], toks["z"]
    empty = word_token(())

    def w(tok):
        return word_token((desuspend(tok),))

    img = Element(ring, [(tensor_token(w(z), empty), 1), (tensor_token(w(yp), w(y)), 1),
                         (tensor_token(w(y), w(yp)), -1), (tensor_token(empty, w(z)), 1)])
    return C, hirsch_primitive(C, omega, overrides={desuspend(z): img}, name="Hirsch(Cnaw)")


def rp_suspension_coalgebra(ring=F2, max_degree=8):
    """Chains of the suspension of the infinite real projective space model:
    one primitive generator y_k in each degree k+1, zero differential.

    It models Sigma RP^infinity over F2 only.  Over Z the zero differential
    is wrong: H_2(Sigma RP^infinity; Z) = Z/2, not Z."""
    def basis_fn(n):
        if n == 0:
            return [generator("1", 0)]
        if n >= 2:
            return [generator(("y", n - 1), n)]
        return []

    one = generator("1", 0)
    basis = GradedBasis(ring, basis_fn, max_degree, "C(E RP)")
    cx = ChainComplex(basis, zero_map(ring, -1), "C(E RP)")

    return DGCoalgebra(cx, one, _primitive_comult(ring, one), name="C(E RP)")


def rp_hirsch(ring=F2, max_degree=8):
    """The suspension Hirsch structure on rp_suspension_coalgebra,
    psi(z_k) = z_k (x) 1 + 1 (x) z_k + sum_{0<i<k} z_i (x) z_{k-i} for
    z_k = s^{-1}y_k, transported from the binomial diagonal one level down.
    Like its coalgebra it models Sigma RP^infinity over F2 only."""
    C = rp_suspension_coalgebra(ring, max_degree)
    empty = word_token(())
    z = {k: word_token((desuspend(generator(("y", k), k + 1)),)) for k in range(1, max_degree)}
    images = {z[k].data[0]: Element(ring, [(tensor_token(z[k], empty), 1),
                                           (tensor_token(empty, z[k]), 1)] +
                                    [(tensor_token(z[i], z[k - i]), 1) for i in range(1, k)])
              for k in z}
    return C, hirsch_primitive(C, overrides=images, name="Hirsch(E RP)")


# ---------------------------------------------------------------------------
# Monomial algebras (graded-commutative with truncated generators)


def _monomial_token(gens, exponents):
    deg = sum(g[1] * e for g, e in zip(gens, exponents))
    return generator(("mono",) + tuple(exponents), deg)


def monomial_algebra(ring, gens, max_degree, name, truncations=None):
    """Graded-commutative algebra on generators (name, degree) with
    exponent truncations (odd generators square to zero)."""
    if truncations is None:
        truncations = [2 if g[1] % 2 else max_degree + 1 for g in gens]

    def basis_fn(n):
        out = []

        def build(i, deg, exps):
            if i == len(gens):
                if deg == n:
                    out.append(_monomial_token(gens, exps))
                return
            e = 0
            while deg + e * gens[i][1] <= n and e < truncations[i]:
                build(i + 1, deg + e * gens[i][1], exps + [e])
                e += 1

        build(0, 0, [])
        return out

    basis = GradedBasis(ring, basis_fn, max_degree, name)
    cx = ChainComplex(basis, zero_map(ring, -1), name)
    unit = _monomial_token(gens, [0] * len(gens))

    def pair_product(pair):
        es, et = pair[0].data[1:], pair[1].data[1:]
        combined = [a + b for a, b in zip(es, et)]
        if any(e >= truncations[i] or (gens[i][1] % 2 and e > 1) for i, e in enumerate(combined)):
            return ()
        # Koszul sign of sorting: each symbol of t passes the symbols of s
        # with a larger generator index
        exponent = sum(es[i] * gens[i][1] * et[j] * gens[j][1]
                       for i in range(len(gens)) for j in range(i))
        return ((_monomial_token(gens, combined), parity_sign(exponent)),)

    table = Table(pair_product)  # finitely many basis pairs: each product is built once

    def product(s, t):
        return table[s, t]

    return DGAlgebra(cx, unit, product, name=name)


def primitive_hopf(algebra):
    """Hopf structure with all algebra generators primitive.

    Valid for graded-commutative monomial algebras and for the free
    algebra on one generator; the comultiplication is the algebra-map
    extension of delta(g) = g(x)1 + 1(x)g.
    """
    ring = algebra.ring
    square = tensor_algebra(algebra, algebra)
    primitive = _primitive_comult(ring, algebra.unit)

    def comult(tok):
        if tok is algebra.unit:
            out = Element.from_token(ring, tensor_token(tok, tok))
        elif tok.kind == "atom" and isinstance(tok.data, tuple) and tok.data[0] == "mono":
            exps = tok.data[1:]
            out = Element.from_token(ring, tensor_token(algebra.unit, algebra.unit))
            for i, e in enumerate(exps):
                gen_exps = [0] * len(exps)
                gen_exps[i] = 1
                prim = primitive(_monomial_token_from(algebra, gen_exps))
                for _ in range(e):
                    out = square.multiply(out, prim)
        elif tok.kind == "atom" and isinstance(tok.data, tuple) and tok.data[0] == "pow":
            name, k = tok.data[1], tok.data[2]
            prim = primitive(generator(("pow", name, 1), tok.degree // k if k else 0))
            out = Element.from_token(ring, tensor_token(algebra.unit, algebra.unit))
            for _ in range(k):
                out = square.multiply(out, prim)
        else:
            raise ValueError("no primitive comultiplication for %r" % (tok,))
        return out

    return HopfAlgebra(algebra, comult, name=algebra.name)


def _monomial_token_from(algebra, exps):
    for t in algebra.complex.basis.through(algebra.max_degree):
        if t.data[1:] == tuple(exps):
            return t
    raise ValueError("monomial not found")


def exterior_two(ring=ZZ, degrees=(1, 1), max_degree=10):
    """Exterior algebra on two odd generators."""
    return monomial_algebra(ring, [("a", degrees[0]), ("b", degrees[1])],
                            max_degree, "E(a,b)")


def small_commutative(ring=ZZ, max_degree=10):
    """E(x) (x) a square-zero even class: basis 1, x, y, xy."""
    return monomial_algebra(ring, [("x", 1), ("y", 2)], max_degree,
                            "E(x)P'(y)", truncations=[2, 2])


def free_hopf_one(degree, ring=ZZ, max_degree=None, name="x"):
    """Free algebra on one primitive generator (polynomial when even)."""
    if max_degree is None:
        max_degree = 8 * degree

    def tok(k):
        return generator(("pow", name, k), k * degree)

    def basis_fn(n):
        if n % degree == 0 and n // degree >= 0:
            return [tok(n // degree)]
        return []

    label = "T(%s_%d)" % (name, degree)
    basis = GradedBasis(ring, basis_fn, max_degree, label)
    cx = ChainComplex(basis, zero_map(ring, -1), label)

    def product(s, t):
        return ((tok(s.data[2] + t.data[2]), 1),)

    A = DGAlgebra(cx, tok(0), product, name=label)
    return primitive_hopf(A)


def group_ring_hopf(group, ring=ZZ, max_degree=8):
    """Group ring R[G] in the augmentation basis {1} u {[g] = g - e}.

    [g][h] = [gh] - [g] - [h] (with [e] = 0); delta[g] = [g](x)[g] +
    [g](x)1 + 1(x)[g]; zero differential, everything in degree 0.
    """
    unit = generator(("grp", group.name, "1"), 0)

    def tok(g):
        return generator(("grp", group.name, g), 0)

    nontrivial = [g for g in group.elements if g != group.unit]
    basis = GradedBasis(ring, {0: [unit] + [tok(g) for g in nontrivial]},
                        max_degree, "R[%s]" % group.name)
    cx = ChainComplex(basis, zero_map(ring, -1), "R[%s]" % group.name)

    def product(s, t):
        if s is unit:
            return ((t, 1),)
        if t is unit:
            return ((s, 1),)
        g, h = s.data[2], t.data[2]
        return [(tok(x), c) for x, c in ((group.mul(g, h), 1), (g, -1), (h, -1))
                if x != group.unit]

    A = DGAlgebra(cx, unit, product, name="R[%s]" % group.name)

    def comult(t):
        if t is unit:
            return Element(ring, [(tensor_token(unit, unit), 1)])
        return Element(ring, [(tensor_token(t, t), 1), (tensor_token(t, unit), 1),
                              (tensor_token(unit, t), 1)])

    return HopfAlgebra(A, comult, name="R[%s]" % group.name)


def hopf_fixtures(ring=ZZ):
    """The shipped Hopf fixtures keyed by name."""
    return {
        "free-even": free_hopf_one(2, ring),
        "free-odd": free_hopf_one(1, ring),
        "exterior-two": primitive_hopf(exterior_two(ring)),
        "poly-even": free_hopf_one(4, ring, name="u"),
        "group-c2": group_ring_hopf(BUILTIN_GROUPS["c2"], ring),
        "group-s3": group_ring_hopf(BUILTIN_GROUPS["s3"], ring),
    }


# ---------------------------------------------------------------------------
# Declarative fixture files


class FixtureError(ValueError):
    pass


def dg_fixture_from_dict(doc):
    """Build a DGAlgebra / DGCoalgebra / HopfAlgebra from a declarative
    document; rejects tables failing the (co)algebra axioms."""
    ring = RINGS.get(doc.get("ring", "Z"))
    if ring is None:
        raise FixtureError("unknown ring %r" % doc.get("ring"))
    max_degree = int(doc.get("max_degree", 10))
    kind = doc.get("kind", "algebra")
    names = {}
    per_degree = {}
    unit_name = doc.get("unit", "1")
    unit = generator(unit_name, 0)
    names[unit_name] = unit
    per_degree.setdefault(0, []).append(unit)
    for g in doc.get("generators", []):
        t = generator(g["name"], int(g["degree"]))
        if g["name"] in names:
            raise FixtureError("duplicate generator %r" % g["name"])
        names[g["name"]] = t
        per_degree.setdefault(t.degree, []).append(t)

    def parse_element(entries):
        return Element(ring, [(tensor_token(*[names[n] for n in name]) if isinstance(name, list)
                               else names[name], coeff) for coeff, name in entries])

    dtable = {names[k]: parse_element(v) for k, v in doc.get("differential", {}).items()}

    def dfn(tok):
        return dtable.get(tok, Element(ring))

    basis = GradedBasis(ring, per_degree, max_degree, doc.get("name", "fixture"))
    cx = ChainComplex(basis, LinearMap(ring, -1, dfn, "d"), doc.get("name", "fixture"))
    bad = cx.check_d_squared(max_degree)
    if bad is not None:
        raise FixtureError("differential does not square to zero at %r" % (bad,))

    if kind in ("hopf", "coalgebra"):
        ctable = {names[k]: parse_element(v) for k, v in doc.get("comultiplication", {}).items()}
        primitive = _primitive_comult(ring, unit)

        def comult(tok):
            return ctable[tok] if tok in ctable else primitive(tok)

    if kind in ("algebra", "hopf"):
        mtable = {}
        for key, entries in doc.get("multiplication", {}).items():
            a, b = key.split("|")
            mtable[(names[a], names[b])] = tuple(parse_element(entries).items())

        def product(s, t):
            if s is unit:
                return ((t, 1),)
            if t is unit:
                return ((s, 1),)
            return mtable.get((s, t), ())

        A = DGAlgebra(cx, unit, product, name=doc.get("name", "fixture"))
        bad = A.check_associativity(max_degree)
        if bad is not None:
            raise FixtureError("multiplication table fails associativity at %r" % (bad,))
        bad = A.check_mult_is_chain_map(max_degree)
        if bad is not None:
            raise FixtureError("multiplication is not a chain map at %r" % (bad,))
        if kind == "algebra":
            return A
        H = HopfAlgebra(A, comult, name=doc.get("name", "fixture"))
        bad = H.check_comult_is_algebra_map(max_degree)
        if bad is not None:
            raise FixtureError("comultiplication is not an algebra map at %r" % (bad,))
        return H

    if kind == "coalgebra":
        C = DGCoalgebra(cx, unit, comult, name=doc.get("name", "fixture"))
        bad = C.check_coassociativity(max_degree)
        if bad is not None:
            raise FixtureError("comultiplication table fails coassociativity at %r" % (bad,))
        bad = C.check_comult_is_chain_map(max_degree)
        if bad is not None:
            raise FixtureError("comultiplication is not a chain map at %r" % (bad,))
        return C

    raise FixtureError("unknown fixture kind %r" % kind)
