"""Exact integer linear algebra: Smith normal form and homology.

Ranks, torsion and homology bases, over Z and over F_p, come from one
sparse elimination, _reduce: rows are {column: coefficient} dicts and
pivots are units (+-1 over Z, any nonzero entry over F_p).  Each pivot is a
Gaussian elimination of the chain complex, so the pivots of d_{n+1} and
d_n reduce H_n to a small remainder complex.  Over F_p the remainder has
zero differentials; over Z its rows hold no unit, and only that remainder
goes to the dense smith_normal_form, which builds its transform on one
side.  Entries are Python ints (arbitrary precision); problem sizes here
are desk scale.
"""

from .chains import ZZ, DegreeOverflowError, Table


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class SNFResult:
    """U * M * V = D diagonal with divisibility d_1 | d_2 | ..., for
    unimodular U and V.

    Only the row transform U and its inverse Uinv are built; a caller that
    needs the column side passes the transpose.  factors lists the nonzero
    diagonal entries.
    """

    def __init__(self, diagonal, U, Uinv):
        self.diagonal = diagonal
        self.U = U
        self.Uinv = Uinv

    @property
    def factors(self):
        return [d for d in self.diagonal if d != 0]

    @property
    def rank(self):
        return len(self.factors)


def smith_normal_form(matrix, rows=None, cols=None):
    """SNF with its row transform; smallest-|pivot| pivoting with full gcd
    reduction.  Column operations act on the matrix alone."""
    if rows is None:
        rows = len(matrix)
    if cols is None:
        cols = len(matrix[0]) if matrix else 0
    M = [list(r) for r in matrix]
    U, Uinv = _identity(rows), _identity(rows)

    def row_op(i, j, c):
        # row_i += c * row_j ; U tracks it, Uinv the inverse op
        for k in range(cols):
            M[i][k] += c * M[j][k]
        for k in range(rows):
            U[i][k] += c * U[j][k]
        for k in range(rows):
            Uinv[k][j] -= c * Uinv[k][i]

    def col_op(j, i, c):
        # col_j += c * col_i
        for k in range(rows):
            M[k][j] += c * M[k][i]

    def row_swap(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]
        for k in range(rows):
            Uinv[k][i], Uinv[k][j] = Uinv[k][j], Uinv[k][i]

    def col_swap(i, j):
        for k in range(rows):
            M[k][i], M[k][j] = M[k][j], M[k][i]

    def row_negate(i):
        for k in range(cols):
            M[i][k] = -M[i][k]
        for k in range(rows):
            U[i][k] = -U[i][k]
        for k in range(rows):
            Uinv[k][i] = -Uinv[k][i]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(M[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        row_swap(t, pi)
        col_swap(t, pj)
        if M[t][t] < 0:
            row_negate(t)
        # clear row and column t by gcd reduction; a swap brings in the
        # remainder of a floor division by the positive pivot, so every
        # pivot, here and in the fold below, stays positive
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if M[i][t]:
                    q = M[i][t] // M[t][t]
                    row_op(i, t, -q)
                    if M[i][t]:
                        row_swap(t, i)
                        dirty = True
            if dirty:
                continue  # finish column t first: column ops then touch row t only
            for j in range(t + 1, cols):
                if M[t][j]:
                    q = M[t][j] // M[t][t]
                    col_op(j, t, -q)
                    if M[t][j]:
                        col_swap(t, j)
                        dirty = True
        t += 1

    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            a, b = M[i][i], M[i + 1][i + 1]
            if a and b % a != 0:
                # fold b into position i via gcd
                col_op(i, i + 1, 1)
                dirty = True
                while dirty:
                    dirty = False
                    if M[i + 1][i]:
                        q = M[i + 1][i] // M[i][i]
                        row_op(i + 1, i, -q)
                        if M[i + 1][i]:
                            row_swap(i, i + 1)
                            dirty = True
                    if M[i][i + 1]:
                        q = M[i][i + 1] // M[i][i]
                        col_op(i + 1, i, -q)
                        if M[i][i + 1]:
                            col_swap(i, i + 1)
                            dirty = True
                if M[i + 1][i + 1] < 0:
                    row_negate(i + 1)
                changed = True

    diagonal = [M[i][i] for i in range(min(rows, cols))]
    return SNFResult(diagonal, U, Uinv)


def _sparse_rows(matrix, p):
    """The rows of a dense matrix as {column: coefficient} dicts, reduced
    mod p."""
    return [{j: v % p for j, v in enumerate(row) if v % p} for row in matrix]


def _reduce(rows, p, pivots=None, combos=None, skip=()):
    """Unit elimination of the matrix with the given sparse rows, over Z
    (p None) or F_p, whose nonzero entries must be reduced mod p.  Returns
    (number of pivots, {row index: row} of the rows left nonzero).

    Repeatedly takes a shortest row holding a unit, pivots on its unit in
    the shortest column, clears that column with row operations and drops
    the pivot's row and column, each drop one invariant factor 1.  The
    shortest length is kept as a lower bound of the queue's keys, lowered
    when a row is requeued shorter and raised to the next key present, so
    no pivot scans the keys.  On the rows of d_k (one per degree-k token)
    each pivot is a Gaussian elimination of the chain complex: it pairs the
    token of its row with the token of its column, and both drop out.
    Over F_p every entry is a unit and no row is left; over Z the rows left
    hold no unit.  Rows whose index is in skip take no part.  rows is not
    changed: a row is copied the first time a row operation changes it.

    pivots receives (column, row, inverse of row[column]) per pivot, in
    pivot order; each pivot row is zero at every earlier pivot column, so
    sifting a vector through them in order clears every pivot column.
    combos receives, for each row not pivoted on, the {input row index:
    coefficient} combination of input rows that it has become: its own
    index with coefficient 1 plus rows that were pivoted on.  Those of the
    rows that vanish are a basis of the vectors x, supported off skip, with
    sum_i x_i rows[i] = 0.
    """
    live = {}   # row id -> {column: coefficient}
    where = {}  # column -> {row id: None} for the live rows holding it
    queue = {}  # row length -> ids of rows that had that length, a bucket queue
    for i, row in enumerate(rows):
        if i in skip:
            continue
        if combos is not None:
            combos[i] = {i: 1}
        if row:
            live[i] = row
            queue.setdefault(len(row), []).append(i)
            for j in row:
                if j not in where:
                    where[j] = {}
                where[j][i] = None
    rank = 0
    size = min(queue, default=0)  # a lower bound of the queue's keys
    while queue:
        while size not in queue:
            size += 1
        i = queue[size].pop()
        if not queue[size]:
            del queue[size]
        row = live.get(i)
        if row is None or len(row) != size:
            continue  # stale entry: the row was pivoted on or has changed
        col = None
        for j, v in row.items():
            if p is None and v != 1 and v != -1:
                continue
            if col is None or len(where[j]) < fewest:
                col, fewest = j, len(where[j])
        if col is None:
            continue  # no unit: wait for a row operation or the remainder
        inverse = row[col] if p is None else pow(row[col], -1, p)
        if pivots is not None:
            pivots.append((col, row, inverse))
        if combos is not None:
            pivot_combo = combos.pop(i)
        for k in list(where[col]):
            if k == i:
                continue
            other = live[k]
            if other is rows[k]:
                other = live[k] = other.copy()
            f = other[col] * inverse
            for j, v in row.items():
                x = (other[j] if j in other else 0) - f * v
                if p is not None:
                    x %= p
                if x:
                    other[j] = x
                    where[j][k] = None
                elif j in other:
                    del other[j]
                    del where[j][k]
            if combos is not None:
                combo = combos[k]
                for r, v in pivot_combo.items():
                    x = (combo[r] if r in combo else 0) - f * v
                    if p is not None:
                        x %= p
                    if x:
                        combo[r] = x
                    elif r in combo:
                        del combo[r]
            if other:
                length = len(other)
                queue.setdefault(length, []).append(k)
                if length < size:
                    size = length
            else:
                del live[k]
        for j in row:
            del where[j][i]
        del live[i]
        rank += 1
    return rank, live


def _rank_and_torsion(rows, p):
    """(rank, nontrivial invariant factors) of the matrix with the given
    sparse rows: _reduce, then the dense Smith normal form of the rows left,
    oriented so that its transform is built on the shorter side."""
    rank, left = _reduce(rows, p)
    if not left:
        return rank, []
    cols = list(dict.fromkeys(j for row in left.values() for j in row))
    if len(left) <= len(cols):
        dense = [[row[j] if j in row else 0 for j in cols] for row in left.values()]
    else:
        dense = [[row[j] if j in row else 0 for row in left.values()] for j in cols]
    factors = smith_normal_form(dense).factors
    return rank + len(factors), [abs(d) for d in factors if abs(d) != 1]


def modp_rank(matrix, p):
    """Rank of a matrix over F_p."""
    return _reduce(_sparse_rows(matrix, p), p)[0]


def _modp_kernel(rows, p, skip=()):
    """_reduce of the rows of d_n that skip leaves, over Z or F_p: (the
    combination each row not pivoted on has become, the rows left).  The
    rows that vanish give n-cycles; over F_p every unpivoted row does.
    The benchmark's snf.modp_s finds this function by name."""
    combos = {}
    left = _reduce(rows, p, combos=combos, skip=skip)[1]
    return combos, left


def _modp_column_space(rows, p):
    """_reduce of the rows of d_{n+1}, over Z or F_p: (its unit pivots in
    pivot order, the rows left).  The pivot rows are boundaries; over F_p
    they span the n-boundaries and no row is left.  The benchmark's
    snf.modp_s finds this function by name."""
    pivots = []
    left = _reduce(rows, p, pivots=pivots)[1]
    return pivots, left


class HomologySummary:
    """H_n of a complex over ring: betti copies of the ring, plus Z/t for
    each torsion coefficient t (over Z only)."""

    def __init__(self, degree, betti, torsion, ring=ZZ):
        self.degree = degree
        self.betti = betti
        self.torsion = torsion
        self.ring = ring

    def __eq__(self, other):
        if not isinstance(other, HomologySummary):
            return NotImplemented
        return (self.degree, self.betti, self.torsion, self.ring) == \
            (other.degree, other.betti, other.torsion, other.ring)

    def __repr__(self):
        parts = [repr(self.ring)] * self.betti + ["Z/%d" % t for t in self.torsion]
        return "H_%d = %s" % (self.degree, " + ".join(parts) if parts else "0")


def _boundary_rows(complex_, k):
    """d_k as sparse rows read straight from the differential: one
    {target index: coefficient} row per degree-k token."""
    sources = complex_.basis.basis(k)  # raises DegreeOverflowError past max_degree
    if k <= 0:
        return [{} for _ in sources]
    index = complex_.basis.index(k - 1)
    d = complex_.d
    return [{index[t]: c for t, c in d(tok).items()} for tok in sources]


def boundary_reader(complex_):
    """A Table rows with rows[k] = _boundary_rows(complex_, k): each d_k is
    read once.  Every reader of the table gets the same rows, so none may
    change them."""
    return Table(lambda k: _boundary_rows(complex_, k))


def _no_degree_above(n):
    return DegreeOverflowError("homology at degree %d needs basis at degree %d" % (n, n + 1))


def homology(complex_, degrees):
    """Homology of a chain complex over Z or F_p per degree.

    Over Z, torsion coefficients in degree n are the nontrivial invariant
    factors of the boundary matrix out of degree n+1.  Each boundary
    matrix d_k is reduced at most once per call, and H_n and H_{n+1} share
    the reduction of d_{n+1}: m consecutive degrees cost m + 1 reductions.
    Requires finite bases in the requested degrees and the flanking ones.
    """
    if complex_.d.shift != -1:
        raise ValueError("homology expects a chain differential (shift -1)")
    ring = complex_.ring
    if ring.p is not None and ring.p < 2:
        raise ValueError("composite or invalid modulus")
    reduced = Table(lambda k: _rank_and_torsion(_boundary_rows(complex_, k), ring.p))

    out = []
    for n in degrees:
        if n + 1 > complex_.max_degree:
            raise _no_degree_above(n)
        dim_n = complex_.basis.dimension(n)
        rank_n = reduced[n][0]
        rank_n1, torsion = reduced[n + 1]
        out.append(HomologySummary(n, dim_n - rank_n - rank_n1, list(torsion), ring))
    return out


def _inverted(rows):
    """The sparse rows {x: coefficient} as {x: [(row number, coefficient)]}."""
    index = {}
    for k, row in enumerate(rows):
        for x, c in row.items():
            index.setdefault(x, []).append((k, c))
    return index


def _products(index, vector, m):
    """The dot products of m rows, given _inverted, with a sparse vector."""
    out = [0] * m
    for x, v in vector.items():
        if x in index:
            for k, c in index[x]:
                out[k] += c * v
    return out


def _remainder_generators(kept, boundaries, left):
    """Generators of H_n of the remainder, as (order, coordinate row,
    cycle), both {kept token: coefficient}: order 0 for a free generator,
    the coordinate of a remainder cycle z is its dot product with the
    coordinate row (mod the order), and cycle is the generator.  Torsion
    comes first, by increasing order.

    kept are the remainder's n-tokens, left their d_n rows that did not
    vanish, and boundaries the rows of d_{n+1} that no unit pivot took;
    over F_p both are empty and every kept token is a free generator.  Over
    Z dense Smith normal forms run on the remainder alone: one of left,
    whose row transform gives the cycles among the tokens in left, and one
    of the boundaries in those cycles' coordinates, transformed on the
    cycles' side.
    """
    cycles = [{x: 1} for x in kept if x not in left]
    readers = list(cycles)  # reader k dotted with a cycle gives its k-th coordinate
    tied = [x for x in kept if x in left]
    if tied:
        cols = list(dict.fromkeys(j for x in tied for j in left[x]))
        snf = smith_normal_form([[left[x][j] if j in left[x] else 0 for j in cols]
                                 for x in tied])
        # z is a cycle iff (z Uinv)[:rank] = 0, and then z = (z Uinv) U
        for k in range(snf.rank, len(tied)):
            cycles.append({x: c for x, c in zip(tied, snf.U[k]) if c})
            readers.append({x: row[k] for x, row in zip(tied, snf.Uinv) if row[k]})
    m = len(cycles)
    index = _inverted(readers)
    images = [image for image in (_products(index, row, m) for row in boundaries.values())
              if any(image)]
    if not images:
        return [(0, reader, cycle) for reader, cycle in zip(readers, cycles)]
    # in the coordinates U w of the cycles, the boundaries are spanned by d_i e_i
    snf = smith_normal_form([[image[k] for image in images] for k in range(m)])
    out = []
    for i in range(m):
        order = abs(snf.diagonal[i]) if i < len(snf.diagonal) else 0
        if order == 1:
            continue
        coordinate, cycle = {}, {}
        for k in range(m):
            for target, vector, c in ((coordinate, readers[k], snf.U[i][k]),
                                      (cycle, cycles[k], snf.Uinv[k][i])):
                if c:
                    for x, v in vector.items():
                        target[x] = (target[x] if x in target else 0) + c * v
        out.append((order, coordinate, cycle))
    return out


class HomologyBasis:
    """Homology of one degree with chain-level representatives, over Z or
    F_p, from the elimination that gives homology() its ranks.

    The unit pivots of d_{n+1} each pair an n-token with an (n+1)-token,
    and the unit pivots of d_n on the n-tokens left each pair one with an
    (n-1)-token; the paired tokens drop out, a reduction of the complex
    (an algebraic Morse matching).  The kept n-tokens span the remainder.
    f takes a cycle to the remainder: sift it through the pivots of
    d_{n+1} in pivot order and keep its kept entries.  nabla takes a kept
    token to the combination of d_n's rows that its row became: the token
    plus paired tokens.  Over F_p the remainder has zero differentials and
    its tokens are the generators.  Over Z its rows hold no unit, and the
    generators come from dense Smith normal forms of the remainder alone.

    representatives are coordinate vectors in the degree-n basis, and
    coordinates(cycle_vector) expresses a cycle in the generators; it
    raises ValueError on a vector that is not a cycle.  Generators are
    labelled ('free', i) or ('torsion', i, order), i their position;
    torsion (over Z only) comes first, by increasing order, and torsion
    coordinates are reduced mod the order.

    rows, a boundary_reader of the complex, lets bases of several degrees
    read each d_k once.
    """

    def __init__(self, complex_, n, rows=None):
        self.complex = complex_
        self.n = n
        if n + 1 > complex_.max_degree:
            raise _no_degree_above(n)
        if rows is None:
            rows = boundary_reader(complex_)
        p = self._p = complex_.ring.p
        self._rows = rows[n]
        self._pivots, boundaries = _modp_column_space(rows[n + 1], p)
        combos, left = _modp_kernel(self._rows, p, {col for col, _, _ in self._pivots})
        gens = _remainder_generators(sorted(combos), boundaries, left)
        dim_n = complex_.basis.dimension(n)
        self.generators = []
        self.representatives = []
        for i, (order, _, cycle) in enumerate(gens):
            self.generators.append(("torsion", i, order) if order else ("free", i))
            rep = [0] * dim_n
            for x, w in cycle.items():
                for j, v in combos[x].items():
                    rep[j] += w * v
            self.representatives.append(rep)
        self._moduli = [order or p for order, _, _ in gens]
        self._readers = _inverted([coordinate for _, coordinate, _ in gens])

    def coordinates(self, cycle):
        """Coordinates of a cycle (vector in the degree-n basis) in homology; for
        a non-cycle, ValueError names its first (n-1)-token with nonzero boundary."""
        p = self._p
        boundary = {}
        vec = {}
        for j, x in enumerate(cycle):
            if p:
                x %= p
            if x:
                vec[j] = x
                for k, v in self._rows[j].items():
                    boundary[k] = (boundary[k] if k in boundary else 0) + x * v
        bad = [k for k, v in boundary.items() if (v % p if p else v)]
        if bad:
            raise ValueError("degree-%d vector is not a cycle: its boundary is nonzero at %r"
                             % (self.n, self.complex.basis.basis(self.n - 1)[min(bad)]))
        for lead, row, inverse in self._pivots:
            if lead in vec:
                c = vec[lead] * inverse
                for j, v in row.items():
                    x = (vec[j] if j in vec else 0) - c * v
                    if p:
                        x %= p
                    if x:
                        vec[j] = x
                    elif j in vec:
                        del vec[j]
        out = _products(self._readers, vec, len(self.generators))
        return [c % m if m else c for c, m in zip(out, self._moduli)]
