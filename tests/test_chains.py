import cProfile
import gc
import json

import pytest
from hypothesis import given, strategies as st

from loopchain.chains import (
    ZZ, F2, F3, Element, GradedBasis, ChainComplex, LinearMap, DegreeOverflowError,
    generator, suspend, desuspend, tensor_token, word_token, sort_key,
    koszul_sign, tensor_map, tensor_maps, identity_map, zero_map, add_maps,
    verify_chain_map, map_from_table, Table,
)
from loopchain.fixtures import exterior_two


def tok(name, deg):
    return generator(name, deg)


def el(t, c=1, ring=ZZ):
    return Element.from_token(ring, t, c)


def profiled_calls(fn, *args):
    """Every Python and builtin call of fn(*args), counted as perfbench counts
    them, with the collector off so that no finalizer runs inside the count."""
    prof = cProfile.Profile()
    gc.disable()
    try:
        prof.runcall(fn, *args)
    finally:
        gc.enable()
    return sum(e.callcount for e in prof.getstats())


@pytest.mark.parametrize("ring", [ZZ, F3])
def test_sums_and_cached_maps_make_no_call_per_term(ring):
    letters = [tok("n%d" % i, 1) for i in range(1000)]
    # repeated tokens whose coefficients cancel, and over F3 reduce to zero
    pairs = [(letters[i % 300], i - 500) for i in range(1000)]
    assert profiled_calls(Element, ring, pairs[:10]) == profiled_calls(Element, ring, pairs)
    filled = []

    def fn(t):
        filled.append(t)
        return Element(ring, [(suspend(t), 2), (desuspend(t), -1)])

    f = LinearMap(ring, 0, fn)
    assert isinstance(f._cache, Table)
    small, large = (Element(ring, [(t, 1) for t in letters[:n]]) for n in (10, 1000))
    f(large)  # caches the image of every token
    assert profiled_calls(f, small) == profiled_calls(f, large)
    assert f(letters[0]) is f._cache[letters[0]]
    assert filled == letters  # fn ran once per token
    # a warm token is one subscript of the cache: the one call counted beside
    # the profiler's own disable() is f's __call__
    assert profiled_calls(f, letters[0]) == profiled_calls(len, ()) == 2


def test_elements_tokens_and_warm_products_cost_one_call():
    # counts include the profiler's own disable(), as profiled_calls(len, ()) does
    one = profiled_calls(len, ())
    a, b = generator(object(), 1), generator(object(), 2)
    # an Element built from a pair list is its constructor alone
    assert profiled_calls(Element, F3, [(a, 1), (b, 2), (a, 2)]) == one
    # a new token is its constructor and Token.__init__; a repeat is the constructor
    for build, args in [(generator, (object(), 3)), (suspend, (a,)), (desuspend, (b,)),
                        (tensor_token, (a, b)), (word_token, ((b, a, b),))]:
        assert profiled_calls(build, *args) == one + 1, build
        assert profiled_calls(build, *args) == one, build
    # products of warm pairs are subscripts of the products Table: no call per pair
    A = exterior_two(ZZ, max_degree=6)
    degree_one = A.complex.basis.basis(1)
    small, large = ([[(t, 1) for t in degree_one[:n]]] * 2 for n in (1, 2))
    A.multiply_terms(large)
    fills = len(A.products)
    assert profiled_calls(A.multiply_terms, small) == profiled_calls(A.multiply_terms, large)
    assert len(A.products) == fills


# --- koszul signs -----------------------------------------------------------

def test_koszul_adjacent_swaps():
    assert koszul_sign([1, 1], [1, 0]) == -1
    assert koszul_sign([2, 3], [1, 0]) == 1


def test_koszul_full_reversal():
    # composing the three adjacent transpositions of [1,1,1] gives -1
    assert koszul_sign([1, 1, 1], [2, 1, 0]) == -1


def test_koszul_rejects_bad_permutation():
    with pytest.raises(ValueError):
        koszul_sign([1, 2], [0, 0])


@st.composite
def _degrees_and_perms(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    degs = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=n, max_size=n))
    perm1 = draw(st.permutations(range(n)))
    perm2 = draw(st.permutations(range(n)))
    return degs, list(perm1), list(perm2)


@given(_degrees_and_perms())
def test_koszul_cocycle(data):
    # sign of a composite rearrangement factors through the intermediate order
    degs, p1, p2 = data
    composite = [p1[p2[k]] for k in range(len(p1))]
    permuted = [degs[p1[k]] for k in range(len(p1))]
    assert koszul_sign(degs, composite) == koszul_sign(degs, p1) * koszul_sign(permuted, p2)


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=5).flatmap(
    lambda d: st.tuples(st.just(d), st.permutations(range(len(d))))))
def test_koszul_valued_in_signs(data):
    degs, perm = data
    assert koszul_sign(degs, list(perm)) in (-1, 1)


# --- tensor maps ------------------------------------------------------------

def test_tensor_identity():
    v, w = tok("v", 2), tok("w", 3)
    f = tensor_map(identity_map(ZZ), identity_map(ZZ))
    assert f(tensor_token(v, w)) == el(tensor_token(v, w))


def test_tensor_sign_convention():
    # (f (x) g)(v (x) w) = (-1)^(|g||v|) f(v) (x) g(w)
    v, w = tok("v", 1), tok("w", 2)
    fv, gw = tok("fv", 0), tok("gw", 1)
    f = map_from_table(ZZ, -1, {v: el(fv)})
    g = map_from_table(ZZ, -1, {w: el(gw)})
    img = tensor_map(f, g)(tensor_token(v, w))
    assert img == el(tensor_token(fv, gw), -1)
    # identity slot first: no sign
    img2 = tensor_map(identity_map(ZZ), g)(tensor_token(v, w))
    assert img2 == el(tensor_token(v, gw), -1)


def _three_generator_complex():
    # z (deg 2) -> y (deg 1) -> x (deg 0), dz = y, dy = 0 plus dy2 = x
    x, y, z = tok("x", 0), tok("y", 1), tok("z", 2)
    d = map_from_table(ZZ, -1, {z: el(y), y: Element.zero(ZZ)})
    basis = GradedBasis(ZZ, {0: [x], 1: [y], 2: [z]}, 4, "C")
    return ChainComplex(basis, d, "C"), (x, y, z)


def test_tensor_differential_squares_to_zero():
    X, (x, y, z) = _three_generator_complex()
    d = X.d
    dd = tensor_map(d, identity_map(ZZ))
    di = tensor_map(identity_map(ZZ), d)
    toks = [tensor_token(a, b) for a in (x, y, z) for b in (x, y, z)]
    dT = add_maps(dd, di)
    for t in toks:
        assert dT(dT(t)).is_zero()


@pytest.mark.parametrize("left, right", [(F2, ZZ), (ZZ, F2)])
def test_sums_over_different_rings_raise(left, right):
    a = tok("a", 0)
    rings = "over %r and %r" % (left, right)
    with pytest.raises(ValueError, match=rings):
        el(a, ring=left) + el(a, ring=right)
    with pytest.raises(ValueError, match=rings):
        el(a, ring=left) - el(a, ring=right)
    with pytest.raises(ValueError, match=rings):
        add_maps(identity_map(left), identity_map(right))
    with pytest.raises(ValueError, match=rings):
        tensor_maps([identity_map(left), identity_map(left), identity_map(right)])


# --- verify_chain_map -------------------------------------------------------

def test_verify_identity_and_zero():
    X, _ = _three_generator_complex()
    assert verify_chain_map(identity_map(ZZ), X, X, 2) is None
    assert verify_chain_map(zero_map(ZZ), X, X, 2) is None


def test_verify_flags_sign_flip():
    # complex with dy = 2x; the "chain map" scaling dy by -1 fails at y
    x, y = tok("x", 2), tok("y", 3)
    d = map_from_table(ZZ, -1, {y: el(x, 2)})
    basis = GradedBasis(ZZ, {2: [x], 3: [y]}, 4)
    X = ChainComplex(basis, d)
    bad_d = map_from_table(ZZ, -1, {y: el(x, -2)})
    Y = ChainComplex(basis, bad_d)
    assert verify_chain_map(identity_map(ZZ), X, Y, 3) == y


# --- graded basis truncation -----------------------------------------------

def test_truncation_is_hard_error():
    basis = GradedBasis(ZZ, {0: [tok("x", 0)]}, 3)
    assert basis.basis(3) == []
    with pytest.raises(DegreeOverflowError):
        basis.basis(4)


# --- interning ----------------------------------------------------------------

def test_constructors_return_one_object_per_token():
    a, b = tok("a", 1), tok("b", 2)
    assert generator("a", 1) is a
    assert generator("a", 2) is not a
    assert suspend(a) is suspend(generator("a", 1))
    assert desuspend(a) is desuspend(a)
    assert desuspend(suspend(a)) is a and suspend(desuspend(a)) is a
    assert tensor_token(a, b) is tensor_token(a, b)
    assert tensor_token(a, b) is not tensor_token(b, a)
    assert word_token([a, b]) is word_token((a, b))
    assert word_token(()) is word_token([])
    nested = tensor_token(word_token((suspend(a),)), desuspend(b))
    assert nested is tensor_token(word_token([suspend(generator("a", 1))]), desuspend(b))
    assert {nested: 1}[tensor_token(word_token((suspend(a),)), desuspend(b))] == 1


def _reference_key(t):
    """sort_key as a plain recursion that keeps nothing."""
    rank = {"atom": 0, "susp": 1, "desusp": 2, "tensor": 3, "word": 4}[t.kind]
    if t.kind == "atom":
        return (t.degree, 0, repr(t.data))
    if t.kind in ("susp", "desusp"):
        return (t.degree, rank, _reference_key(t.data))
    return (t.degree, rank, len(t.data), tuple(_reference_key(u) for u in t.data))


def _subtree(t):
    """t and every token inside it, each before its children."""
    yield t
    if t.kind in ("susp", "desusp"):
        yield from _subtree(t.data)
    elif t.kind != "atom":
        for u in t.data:
            yield from _subtree(u)


_NESTED_TOKENS = st.recursive(
    st.builds(generator, st.one_of(st.text(max_size=2), st.integers(-2, 2),
                                   st.tuples(st.sampled_from("xy"), st.integers(0, 2))),
              st.integers(0, 3)),
    lambda inner: st.one_of(
        st.builds(suspend, inner), st.builds(desuspend, inner),
        st.lists(inner, min_size=1, max_size=3).map(lambda fs: tensor_token(*fs)),
        st.lists(inner, max_size=3).map(word_token)),
    max_leaves=6)


@given(st.lists(_NESTED_TOKENS, min_size=1, max_size=6))
def test_sort_keys_do_not_depend_on_keying_order(toks):
    expected = [_reference_key(t) for t in toks]
    nodes = [u for t in toks for u in _subtree(t)]
    # each token keyed before its children, then after them
    for order in (nodes, nodes[::-1]):
        for u in nodes:
            object.__setattr__(u, "_sort_key", None)
        for u in order:
            sort_key(u)
        assert [sort_key(t) for t in toks] == expected
    assert sorted(toks, key=sort_key) == sorted(toks, key=_reference_key)


def test_tokens_are_keyed_on_their_first_sort_only():
    a = tok(("keyed on sort", 1), 1)
    w = word_token((suspend(a), a))
    assert a._sort_key is None and w._sort_key is None
    sorted([w, a], key=sort_key)
    assert a._sort_key == _reference_key(a) and w._sort_key == _reference_key(w)
    assert suspend(a)._sort_key == _reference_key(suspend(a))


# The coHochschild basis of rp_hirsch in degree 4, as printed before tokens
# were interned: interning must keep every repr and the sort order.
RP_HOCH_BASIS_4 = [
    "(1 (x) [s'(('y', 4))])",
    "(1 (x) [s'(('y', 1))|s'(('y', 3))])",
    "(1 (x) [s'(('y', 2))|s'(('y', 2))])",
    "(1 (x) [s'(('y', 3))|s'(('y', 1))])",
    "(1 (x) [s'(('y', 1))|s'(('y', 1))|s'(('y', 2))])",
    "(1 (x) [s'(('y', 1))|s'(('y', 2))|s'(('y', 1))])",
    "(1 (x) [s'(('y', 2))|s'(('y', 1))|s'(('y', 1))])",
    "(1 (x) [s'(('y', 1))|s'(('y', 1))|s'(('y', 1))|s'(('y', 1))])",
    "(('y', 1) (x) [s'(('y', 2))])",
    "(('y', 1) (x) [s'(('y', 1))|s'(('y', 1))])",
    "(('y', 2) (x) [s'(('y', 1))])",
    "(('y', 3) (x) [])",
]


def test_interned_basis_keeps_reprs_and_sort_order():
    import random
    from loopchain.fixtures import rp_hirsch
    from loopchain.hochschild import cohochschild_complex
    C, hirsch = rp_hirsch(max_degree=6)
    basis = cohochschild_complex(C, cobar=hirsch.cobar, max_degree=5).complex.basis.basis(4)
    assert [repr(t) for t in basis] == RP_HOCH_BASIS_4
    shuffled = list(basis)
    random.Random(0).shuffle(shuffled)
    assert sorted(shuffled, key=sort_key) == basis
    assert sorted(reversed(basis), key=sort_key) == basis


_RP_POWER_SCRIPT = """
import json
from loopchain.dg import universal_twisting
from loopchain.fixtures import rp_hirsch
from loopchain.hochschild import cohochschild_complex, power_map, power_map_on_homology
C, hirsch = rp_hirsch(max_degree=7)
hoch = cohochschild_complex(C, cobar=hirsch.cobar, max_degree=6)
lam = power_map(universal_twisting(C, hirsch.cobar), hirsch, hirsch.loop_hopf(), 2)
rows = power_map_on_homology(hoch, lam, range(6))
print(json.dumps([[list(g) for g in row["generators"]] for row in rows]))
print(json.dumps([row["matrix"] for row in rows]))
"""

# lambda-tilde_2 on HH_0..1(Z[S3]): the integral bases, with HH_1 = Z/2 + Z/6
_S3_POWER_SCRIPT = """
import json
from loopchain.dg import couniversal_twisting
from loopchain.fixtures import group_ring_hopf
from loopchain.groups import BUILTIN_GROUPS
from loopchain.hochschild import hochschild_of_algebra, power_map, power_map_on_homology
from loopchain.perturbation import BarHopfStructure
H = group_ring_hopf(BUILTIN_GROUPS["s3"])
bh = BarHopfStructure(H, 5)
hoch = hochschild_of_algebra(H.algebra, bar=bh.barH, max_degree=2)
lam = power_map(couniversal_twisting(H.algebra, bh.barH), bh.hirsch(), H, 2, check_degree=2)
rows = power_map_on_homology(hoch, lam, range(2))
print(json.dumps([[list(g) for g in row["generators"]] for row in rows]))
print(json.dumps([row["matrix"] for row in rows]))
"""


def test_power_map_matrices_do_not_depend_on_hash_seed():
    # tokens hash by address, so any dependence on set or hash order would
    # show up as different generators or matrices under different hash seeds
    import os
    import subprocess
    import sys
    import loopchain
    src = os.path.dirname(os.path.dirname(os.path.abspath(loopchain.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    for script, degrees in ((_RP_POWER_SCRIPT, 6), (_S3_POWER_SCRIPT, 2)):
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(path))
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]
        generators = json.loads(outputs[0].splitlines()[0])
        assert len(generators) == degrees
    # the torsion of HH_1(Z[S3]) reaches the integral bases
    assert [g[0] for g in generators[1]] == ["torsion", "torsion"]
