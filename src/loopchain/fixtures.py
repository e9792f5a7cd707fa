"""Shipped algebraic fixtures and the declarative fixture-file parser.

One checked builder makes every fixture given by tables, the shipped
coalgebras and every fixture document, and checks each structure it makes.
The Hopf fixtures exercise the commutative/cocommutative flags
independently: free algebra on one primitive (even and odd generator; a
one-generator monomial algebra), exterior algebra on two generators,
truncated polynomial algebras, and group rings of C_2 and S_3 in an
augmentation-aligned basis.
"""

from .chains import (
    ChainComplex, Element, GradedBasis, Table, generator, map_from_table, parity_sign,
    tensor_token, word_token, desuspend, zero_map, RINGS, ZZ, F2,
)
from .dg import (
    DGAlgebra, DGCoalgebra, HopfAlgebra, hirsch_primitive, tensor_algebra,
)
from .groups import BUILTIN_GROUPS


# ---------------------------------------------------------------------------
# The checked builder


class FixtureError(ValueError):
    pass


def _primitive_comult(ring, one):
    """The comultiplication with every token other than one primitive."""
    def comult(tok):
        if tok is one:
            return Element(ring, [(tensor_token(one, one), 1)])
        return Element(ring, [(tensor_token(one, tok), 1), (tensor_token(tok, one), 1)])
    return comult


def _check_term_degrees(what, table, degree):
    """Raise FixtureError at the first entry of table with a term whose
    degree is not degree(key)."""
    for key, value in table.items():
        bad = next((t for t in value.terms if t.degree != degree(key)), None)
        if bad is not None:
            raise FixtureError("%s entry %r has the term %r of degree %d, not %d"
                               % (what, key, bad, bad.degree, degree(key)))


def _checked_fixture(ring, unit, generators, max_degree, name, differential=None,
                     products=None, coproducts=None):
    """The complex on the unit and the generator tokens, d read off the table
    differential, and on it the DGAlgebra of products, the DGCoalgebra of
    coproducts or the HopfAlgebra of both (None leaves a structure out).
    Unlisted tokens have d = 0 and a primitive Delta; unlisted products of
    generators are 0.  Raises FixtureError at the first generator outside
    degrees 0..max_degree, table term of the wrong degree, product entry on
    the unit or failed identity, checked through max_degree in the order d^2,
    associativity, product chain map, algebra map, coassociativity,
    counitality, Delta chain map."""
    per_degree = {0: [unit]}
    for g in generators:
        if not 0 <= g.degree <= max_degree:
            raise FixtureError("generator %r has degree %d outside 0..%d"
                               % (g, g.degree, max_degree))
        per_degree.setdefault(g.degree, []).append(g)
    differential = differential or {}
    _check_term_degrees("differential", differential, lambda tok: tok.degree - 1)
    basis = GradedBasis(ring, per_degree, max_degree, name)
    cx = ChainComplex(basis, map_from_table(ring, -1, differential, "d"), name)
    checks = [(cx.check_d_squared, "differential does not square to zero")]

    if products is not None:
        _check_term_degrees("multiplication", products, lambda ab: ab[0].degree + ab[1].degree)
        on_unit = next((pair for pair in products if unit in pair), None)
        if on_unit is not None:
            raise FixtureError("multiplication entry %r has the unit as a factor" % (on_unit,))
        table = {pair: tuple(value.items()) for pair, value in products.items()}

        def product(s, t):
            if s is unit:
                return ((t, 1),)
            if t is unit:
                return ((s, 1),)
            return table.get((s, t), ())

    if coproducts is not None:
        _check_term_degrees("comultiplication", coproducts, lambda tok: tok.degree)
        primitive = _primitive_comult(ring, unit)

        def comult(tok):
            return coproducts[tok] if tok in coproducts else primitive(tok)

    if coproducts is None:
        structure = DGAlgebra(cx, unit, product, name=name)
    elif products is None:
        structure = DGCoalgebra(cx, unit, comult, name=name)
    else:
        structure = HopfAlgebra(cx, unit, product, comult, name=name)
    if products is not None:
        checks += [(structure.check_associativity, "multiplication table fails associativity"),
                   (structure.check_mult_is_chain_map, "multiplication is not a chain map")]
    if coproducts is not None:
        if products is not None:
            checks.append((structure.check_comult_is_algebra_map,
                           "comultiplication is not an algebra map"))
        checks += [(structure.check_coassociativity, "comultiplication table fails coassociativity"),
                   (structure.check_counitality, "comultiplication is not counital"),
                   (structure.check_comult_is_chain_map, "comultiplication is not a chain map")]

    for check, message in checks:
        bad = check(max_degree)
        if bad is not None:
            raise FixtureError("%s at %r" % (message, bad))
    return structure


# ---------------------------------------------------------------------------
# Coalgebra fixtures


def sphere_coalgebra(n, ring=ZZ, max_degree=None):
    """Chains model of an n-sphere: unit and one primitive generator."""
    if n < 1:
        raise ValueError("sphere_coalgebra needs n >= 1, got %r" % (n,))
    if max_degree is None:
        max_degree = 2 * n + 10
    return _checked_fixture(ring, generator("1", 0), [generator("y", n)], max_degree,
                            "C(S%d)" % n, coproducts={})


def nonreal_aw_coalgebra(ring=ZZ, max_degree=16):
    """Five-generator coalgebra with dy = 2x, dy' = 3x and a non-primitive
    top class; cocommutative only up to homotopy."""
    u = generator("u", 0)
    x = generator("x", 3)
    y = generator("y", 4)
    yp = generator("y'", 4)
    z = generator("z", 7)
    delta_z = Element(ring, [(tensor_token(u, z), 1), (tensor_token(z, u), 1),
                             (tensor_token(x, y), 3), (tensor_token(x, yp), -2)])
    return _checked_fixture(ring, u, [x, y, yp, z], max_degree, "Cnaw",
                            differential={y: Element.from_token(ring, x, 2),
                                          yp: Element.from_token(ring, x, 3)},
                            coproducts={z: delta_z})


def nonreal_aw_hirsch(ring=ZZ, max_degree=16):
    """The balanced Hirsch structure on the five-generator coalgebra:
    primitive on all cobar generators except the top one."""
    C = nonreal_aw_coalgebra(ring, max_degree)
    y, yp, z = generator("y", 4), generator("y'", 4), generator("z", 7)
    empty = word_token(())

    def w(tok):
        return word_token((desuspend(tok),))

    img = Element(ring, [(tensor_token(w(z), empty), 1), (tensor_token(w(yp), w(y)), 1),
                         (tensor_token(w(y), w(yp)), -1), (tensor_token(empty, w(z)), 1)])
    return C, hirsch_primitive(C, overrides={desuspend(z): img}, name="Hirsch(Cnaw)")


def rp_suspension_coalgebra(ring=F2, max_degree=8):
    """Chains of the suspension of the infinite real projective space model:
    one primitive generator y_k in each degree k+1, zero differential.

    It models Sigma RP^infinity over F2 only.  Over Z the zero differential
    is wrong: H_2(Sigma RP^infinity; Z) = Z/2, not Z."""
    return _checked_fixture(ring, generator("1", 0),
                            [generator(("y", n - 1), n) for n in range(2, max_degree + 1)],
                            max_degree, "C(E RP)", coproducts={})


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
# Monomial algebras (truncated generators)


def _monomial_token(gens, exponents):
    deg = sum(g[1] * e for g, e in zip(gens, exponents))
    return generator(("mono",) + tuple(exponents), deg)


def monomial_algebra(ring, gens, max_degree, name, truncations=None):
    """Algebra on generators (name, degree) with exponent truncations; the
    product adds exponents, with the Koszul sign of sorting the symbols.

    The truncations decide every vanishing power.  The default, 2 for an odd
    generator, gives a graded-commutative algebra; an odd generator with a
    truncation above 2 gives T(x_odd), which is not graded-commutative."""
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
        if any(e >= truncations[i] for i, e in enumerate(combined)):
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

    Valid for monomial algebras that are graded-commutative or have one
    generator (the free algebra of free_hopf_one); the comultiplication is
    the algebra-map extension of delta(g) = g(x)1 + 1(x)g.
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
        else:
            raise ValueError("no primitive comultiplication for %r" % (tok,))
        return out

    return HopfAlgebra(algebra.complex, algebra.unit, algebra.product, comult, name=algebra.name)


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
    """Free algebra T(x) on one primitive generator x of the given degree,
    polynomial when the degree is even: the one-generator monomial algebra
    with every power through max_degree, whose tokens are ("mono", k)."""
    if max_degree is None:
        max_degree = 8 * degree
    return primitive_hopf(monomial_algebra(ring, [(name, degree)], max_degree,
                                           "T(%s_%d)" % (name, degree),
                                           truncations=[max_degree // degree + 1]))


def group_ring_hopf(group, ring=ZZ, max_degree=8):
    """Group ring R[G] in the augmentation basis {1} u {[g] = g - e}.

    [g][h] = [gh] - [g] - [h] (with [e] = 0); delta[g] = [g](x)[g] +
    [g](x)1 + 1(x)[g]; zero differential, everything in degree 0.  The
    products of non-unit pairs are built once, so product is a dict read.
    The Hopf algebra declares its group as group_table, the dict (a, b) -> c
    on basis tokens with (1 + a)(1 + b) = 1 + c, the unit token standing
    for e, which BarHopfStructure reads for Baues' closed form of psi.

    It stays off the checked builder, whose checks hold by construction
    here: on Z[S3] they take about 6 ms, thirty times the construction and
    about a sixth of the setup of a Z[S3] power map (2-core Xeon).
    """
    unit = generator(("grp", group.name, "1"), 0)
    tok = {g: unit if g == group.unit else generator(("grp", group.name, g), 0)
           for g in group.elements}
    nontrivial = [g for g in group.elements if g != group.unit]
    basis = GradedBasis(ring, {0: [unit] + [tok[g] for g in nontrivial]},
                        max_degree, "R[%s]" % group.name)
    cx = ChainComplex(basis, zero_map(ring, -1), "R[%s]" % group.name)
    products = {(tok[g], tok[h]): tuple((tok[x], c) for x, c in
                                        ((group.mul(g, h), 1), (g, -1), (h, -1)) if x != group.unit)
                for g in nontrivial for h in nontrivial}

    def product(s, t):
        if s is unit:
            return ((t, 1),)
        if t is unit:
            return ((s, 1),)
        return products[s, t]

    def comult(t):
        if t is unit:
            return Element(ring, [(tensor_token(unit, unit), 1)])
        return Element(ring, [(tensor_token(t, t), 1), (tensor_token(t, unit), 1),
                              (tensor_token(unit, t), 1)])

    H = HopfAlgebra(cx, unit, product, comult)
    H.group_table = {(tok[g], tok[h]): tok[group.mul(g, h)]
                     for g in group.elements for h in group.elements}
    return H


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


def dg_fixture_from_dict(doc):
    """Build a DGAlgebra / DGCoalgebra / HopfAlgebra from a declarative
    document: names become tokens and the checked builder does the rest.
    An unknown ring or kind, a duplicate or undeclared name, a
    multiplication key not of the form "a|b", and every failure of the
    builder raise FixtureError."""
    ring = RINGS.get(doc.get("ring", "Z"))
    if ring is None:
        raise FixtureError("unknown ring %r" % doc.get("ring"))
    kind = doc.get("kind", "algebra")
    if kind not in ("algebra", "coalgebra", "hopf"):
        raise FixtureError("unknown fixture kind %r" % kind)
    unit_name = doc.get("unit", "1")
    names = {unit_name: generator(unit_name, 0)}
    for g in doc.get("generators", []):
        if g["name"] in names:
            raise FixtureError("duplicate generator %r" % g["name"])
        names[g["name"]] = generator(g["name"], int(g["degree"]))

    def token(name):
        if name not in names:
            raise FixtureError("undeclared generator %r" % (name,))
        return names[name]

    def pair(key):
        if key.count("|") != 1:
            raise FixtureError("multiplication key %r is not of the form a|b" % (key,))
        return tuple(token(name) for name in key.split("|"))

    def table(section, key):
        return {key(k): Element(ring, [(tensor_token(*map(token, name)) if isinstance(name, list)
                                        else token(name), coeff) for coeff, name in entries])
                for k, entries in doc.get(section, {}).items()}

    return _checked_fixture(
        ring, names[unit_name], list(names.values())[1:], int(doc.get("max_degree", 10)),
        doc.get("name", "fixture"), table("differential", token),
        products=table("multiplication", pair) if kind != "coalgebra" else None,
        coproducts=table("comultiplication", token) if kind != "algebra" else None)
