"""Answers the benchmark checks the program against, computed without it.

Nothing here imports loopchain.  Each function derives a known answer from
the mathematics alone: the Hochschild-Kostant-Rosenberg theorem, the
decomposition of the free loop space of a classifying space over conjugacy
classes, the Hochschild homology of a tensor algebra, and the explicit
formula for the power map of the suspension of RP^infinity.
"""

import itertools
from math import gcd


# ---------------------------------------------------------------------------
# Small exact integer algebra


def determinant(m):
    """Determinant of a small square integer matrix by cofactor expansion."""
    if not m:
        return 1
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j, a in enumerate(m[0]):
        if a:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * a * determinant(minor)
    return total


def determinantal_divisors(m):
    """gcd of all k x k minors for k = 1..min(rows, cols): a complete
    invariant of an integer matrix up to change of bases on both sides."""
    rows, cols = len(m), len(m[0]) if m else 0
    out = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                g = gcd(g, determinant([[m[i][j] for j in cs] for i in rs]))
        out.append(g)
    return out


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def minus_identity(m):
    return [[v - (i == j) for j, v in enumerate(row)] for i, row in enumerate(m)]


def image_order(matrix, orders):
    """Order of the subgroup of Z/o_1 + ... + Z/o_n spanned by the columns.

    The group is finite (every o_i > 0); the span is found by closing
    {0} under adding each column.
    """
    n = len(orders)
    gens = [tuple(matrix[i][j] % orders[i] for i in range(n)) for j in range(len(matrix[0]))] \
        if matrix and matrix[0] else []
    seen = {tuple([0] * n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple((a + b) % o for a, b, o in zip(v, g, orders))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen)


def invariant_factors(orders):
    """Invariant factors d_1 | d_2 | ... of Z/o_1 + ... + Z/o_n (o_i > 1)."""
    powers = {}
    for o in orders:
        p = 2
        while o > 1:
            e = 0
            while o % p == 0:
                o //= p
                e += 1
            if e:
                powers.setdefault(p, []).append(p ** e)
            p += 1
    length = max((len(v) for v in powers.values()), default=0)
    factors = [1] * length
    for qs in powers.values():
        qs.sort(reverse=True)
        for i, q in enumerate(qs):
            factors[length - 1 - i] *= q
    return factors


# ---------------------------------------------------------------------------
# hh-ext2: HKR for an exterior algebra


def hkr_exterior_dims(odd_degrees, top):
    """Ranks of HH_n(E(V)) for n = 0..top, V free on odd generators.

    By HKR, HH_*(E(V)) = E(V) (x) Gamma(sV) as graded modules, free over Z;
    each odd generator of degree d contributes (1 + t^d) / (1 - t^(d+1))
    to the Poincare series in total degree.
    """
    series = [1] + [0] * top
    for d in odd_degrees:
        series = [series[n] + (series[n - d] if n >= d else 0) for n in range(top + 1)]
        for n in range(d + 1, top + 1):
            series[n] += series[n - d - 1]
    return series


# ---------------------------------------------------------------------------
# s3-power: H_*(LBG) = sum over classes [g] of H_*(BC_G(g))


def _s3():
    elements = list(itertools.permutations(range(3)))

    def mul(p, q):
        return tuple(p[q[i]] for i in range(3))

    return elements, mul, (0, 1, 2)


def group_loop_oracle(r):
    """H_0 and H_1 of LBS3 with the r-th power map, from class data.

    The power map sends the component of g to that of g^r through the
    inclusion C(g) -> C(g^r), followed by the conjugation that carries g^r
    to its class representative.  On H_0 = Z[classes] it is the class map
    [g] -> [g^r]; on H_1 = sum C(g)^ab it is the induced map of
    abelianisations.  Every centraliser of S3 has cyclic abelianisation,
    which this function requires.
    """
    elements, mul, unit = _s3()

    def inv(g):
        return next(h for h in elements if mul(g, h) == unit)

    def power(g, k):
        out = unit
        for _ in range(k):
            out = mul(out, g)
        return out

    def generated(gens):
        seen = {unit}
        frontier = [unit]
        while frontier:
            frontier = [mul(x, s) for x in frontier for s in gens if mul(x, s) not in seen]
            seen.update(frontier)
        return seen

    reps = []
    class_of = {}
    for g in elements:
        if g in class_of:
            continue
        reps.append(g)
        for k in elements:
            class_of[mul(mul(k, g), inv(k))] = len(reps) - 1

    abel = []  # per class: (centraliser, commutator subgroup, generator, order)
    for g in reps:
        cent = [h for h in elements if mul(h, g) == mul(g, h)]
        comm = generated([mul(mul(a, b), mul(inv(a), inv(b))) for a in cent for b in cent])
        order = len(cent) // len(comm)

        def coset_order(x, comm=comm):
            m = 1
            while power(x, m) not in comm:
                m += 1
            return m

        gen = next(x for x in cent if coset_order(x) == order)
        abel.append((cent, comm, gen, order))

    n = len(reps)
    h0_map = [[0] * n for _ in range(n)]
    h1_map = [[0] * n for _ in range(n)]
    for src, g in enumerate(reps):
        dst = class_of[power(g, r)]
        h0_map[dst][src] = 1
        target = reps[dst]
        k = next(k for k in elements if mul(mul(k, power(g, r)), inv(k)) == target)
        _, _, x, _ = abel[src]
        y = mul(mul(k, x), inv(k))
        _, comm2, x2, order2 = abel[dst]
        if order2 > 1:
            h1_map[dst][src] = next(m for m in range(order2)
                                    if mul(y, inv(power(x2, m))) in comm2)
    h1_orders = [a[3] for a in abel]
    return {
        "classes": n,
        "h0_map": h0_map,
        "h1_factors": invariant_factors([o for o in h1_orders if o > 1]),
        "h1_orders": h1_orders,
        "h1_map": h1_map,
    }


# ---------------------------------------------------------------------------
# rp-power: the suspension of RP^infinity over F2


def compositions(total, parts):
    """Ordered ways to write total as parts non-negative integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def necklaces(total):
    """Cyclic words of positive integers summing to total (rotation classes);
    the empty word is the one necklace of total 0."""
    if total == 0:
        return 1
    seen = set()
    for k in range(1, total + 1):
        for comp in compositions(total - k, k):
            word = tuple(c + 1 for c in comp)
            seen.add(min(word[i:] + word[:i] for i in range(k)))
    return len(seen)


def loop_suspension_dims(top):
    """dim H_n(L Sigma RP^infinity; F2) for n = 0..top.

    Omega Sigma RP^infinity has homology T(z_1, z_2, ...), |z_k| = k, and
    HH_* of a tensor algebra is cyclic coinvariants plus (shifted by one)
    cyclic invariants; over F2 both have one basis vector per necklace.
    """
    return [necklaces(n) + (necklaces(n - 1) if n >= 2 else 0) for n in range(top + 1)]


def rp_power_image(l, ks, r):
    """lambda-tilde_r(y_l (x) z_k1 ... z_km) over F2, l = 0 meaning the unit.

    The sum over l_0 + ... + l_(r-1) = l with l_0 >= 1 (all l_j = 0 when
    l = 0) and over splittings k_i = k_i^(0) + ... + k_i^(r-1) of the term
    y_(l_0) (x) W_0 z_(l_1) W_1 ... z_(l_(r-1)) W_(r-1), where
    W_j = z_(k_1^(j)) ... z_(k_m^(j)) and letters of index 0 are dropped.
    Returned as {(l_0, letters): 1} for the terms with odd multiplicity.
    """
    out = {}
    splits = [list(compositions(k, r)) for k in ks]
    for ls in compositions(l, r):
        if l and ls[0] == 0:
            continue
        for choice in itertools.product(*splits):
            letters = []
            for j in range(r):
                letters += [part[j] for part in choice if part[j]]
                if j + 1 < r and ls[j + 1]:
                    letters.append(ls[j + 1])
            key = (ls[0], tuple(letters))
            out[key] = out.get(key, 0) ^ 1
    return {k: 1 for k, v in out.items() if v}
