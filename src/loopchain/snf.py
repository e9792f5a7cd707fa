"""Exact integer linear algebra: Smith normal form and homology.

Ranks, torsion and the F_p homology bases come from one sparse
elimination, _reduce: rows are {column: coefficient} dicts, pivots are
units (+-1 over Z, any nonzero entry over F_p), and over Z a non-unit
remainder goes to the dense Smith normal form.  Over F_p the elimination
also records its pivot rows (a semi-echelon basis of the image) and the
row combinations that vanish (a basis of the kernel), which is all
HomologyBasis needs.  The dense SNF with its transforms serves only
HomologyBasis over Z.  Entries are Python ints (arbitrary precision);
problem sizes here are desk scale.
"""

from .chains import ZZ, DegreeOverflowError


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class SNFResult:
    """U * M * V = D diagonal with divisibility d_1 | d_2 | ...

    U, V are unimodular; Uinv, Vinv their inverses, tracked alongside.
    factors lists the nonzero diagonal entries.
    """

    def __init__(self, diagonal, U, V, Uinv, Vinv, rows, cols):
        self.diagonal = diagonal
        self.U = U
        self.V = V
        self.Uinv = Uinv
        self.Vinv = Vinv
        self.rows = rows
        self.cols = cols

    @property
    def factors(self):
        return [d for d in self.diagonal if d != 0]

    @property
    def rank(self):
        return len(self.factors)


def smith_normal_form(matrix, rows=None, cols=None):
    """SNF with transforms; smallest-|pivot| pivoting with full gcd reduction."""
    if rows is None:
        rows = len(matrix)
    if cols is None:
        cols = len(matrix[0]) if matrix else 0
    M = [list(r) for r in matrix]
    U, Uinv = _identity(rows), _identity(rows)
    V, Vinv = _identity(cols), _identity(cols)

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
        for k in range(cols):
            V[k][j] += c * V[k][i]
        for k in range(cols):
            Vinv[i][k] -= c * Vinv[j][k]

    def row_swap(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]
        for k in range(rows):
            Uinv[k][i], Uinv[k][j] = Uinv[k][j], Uinv[k][i]

    def col_swap(i, j):
        for k in range(rows):
            M[k][i], M[k][j] = M[k][j], M[k][i]
        for k in range(cols):
            V[k][i], V[k][j] = V[k][j], V[k][i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

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
        # clear row and column t by gcd reduction
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if M[i][t]:
                    q = M[i][t] // M[t][t]
                    row_op(i, t, -q)
                    if M[i][t]:
                        row_swap(t, i)
                        if M[t][t] < 0:
                            row_negate(t)
                        dirty = True
            if dirty:
                continue  # finish column t first: column ops then touch row t only
            for j in range(t + 1, cols):
                if M[t][j]:
                    q = M[t][j] // M[t][t]
                    col_op(j, t, -q)
                    if M[t][j]:
                        col_swap(t, j)
                        if M[t][t] < 0:
                            row_negate(t)
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
                        q = M[i + 1][i] // M[i][i] if M[i][i] else 0
                        row_op(i + 1, i, -q)
                        if M[i + 1][i]:
                            row_swap(i, i + 1)
                            if M[i][i] < 0:
                                row_negate(i)
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
    return SNFResult(diagonal, U, V, Uinv, Vinv, rows, cols)


def mat_mul(A, B):
    n, m = len(A), len(B[0]) if B else 0
    k = len(B)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                row = out[i]
                for j in range(m):
                    row[j] += a * Bt[j]
    return out


def _sparse_rows(matrix):
    """The rows of a dense matrix as {column: coefficient} dicts."""
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def _reduce(rows, p, pivots=None, kernel=None):
    """(rank, nontrivial invariant factors) of the matrix with the given
    sparse rows, over Z (p None) or F_p.

    Repeatedly takes a shortest row holding a unit, pivots on its unit in
    the shortest column, clears that column with row operations and drops
    the pivot's row and column, each drop one invariant factor 1.  Over Z
    the rows left hold no unit and go to the dense smith_normal_form; over
    F_p none are left.

    Over F_p two lists may record the elimination.  pivots receives
    (column, row, inverse of row[column]) per pivot, in pivot order; each
    pivot row is zero at every earlier pivot column, so they are a
    semi-echelon basis of the row space.  kernel receives, per row that
    vanishes, the {input row index: coefficient} combination of the input
    rows that vanished; these are a basis of the vectors x with
    sum_i x_i rows[i] = 0.
    """
    live = {}   # row id -> {column: coefficient}
    where = {}  # column -> {row id: None} for the live rows holding it
    queue = {}  # row length -> ids of rows that had that length
    combos = None if kernel is None else {}  # live row id -> its combination
    for i, row in enumerate(rows):
        if p is not None:
            row = {j: v % p for j, v in row.items() if v % p}
        if row:
            live[i] = row
            queue.setdefault(len(row), []).append(i)
            for j in row:
                if j not in where:
                    where[j] = {}
                where[j][i] = None
            if combos is not None:
                combos[i] = {i: 1}
        elif kernel is not None:
            kernel.append({i: 1})
    rank = 0
    while queue:
        size = min(queue)
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
        for k in list(where[col]):
            if k == i:
                continue
            other = live[k]
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
                for r, v in combos[i].items():
                    x = ((combo[r] if r in combo else 0) - f * v) % p
                    if x:
                        combo[r] = x
                    elif r in combo:
                        del combo[r]
            if other:
                queue.setdefault(len(other), []).append(k)
            else:
                del live[k]
                if combos is not None:
                    kernel.append(combos.pop(k))
        for j in row:
            del where[j][i]
        del live[i]
        if combos is not None:
            del combos[i]
        rank += 1
    if not live:
        return rank, []
    cols = [j for j, held in where.items() if held]
    factors = smith_normal_form([[row.get(j, 0) for j in cols] for row in live.values()]).factors
    return rank + len(factors), [abs(d) for d in factors if abs(d) != 1]


def modp_rank(matrix, p):
    """Rank of a matrix over F_p."""
    return _reduce(_sparse_rows(matrix), p)[0]


def _modp_kernel(rows, p):
    """A basis of the vectors x with sum_i x_i rows[i] = 0 over F_p, as
    {row index: coefficient} dicts: the row combinations that vanish in
    _reduce.  On the rows of d_n these are the n-cycles."""
    kernel = []
    _reduce(rows, p, kernel=kernel)
    return kernel


def _modp_column_space(rows, p):
    """A semi-echelon basis of the span of the rows over F_p: _reduce's
    (column, row, inverse of row[column]) pivots in pivot order.  On the
    rows of d_{n+1} this spans the column space of its matrix, the
    n-boundaries."""
    pivots = []
    _reduce(rows, p, pivots=pivots)
    return pivots


class HomologySummary:
    """H_n of a complex over ring: betti copies of the ring, plus Z/t for
    each torsion coefficient t (over Z only)."""

    def __init__(self, degree, betti, torsion, ring=ZZ):
        self.degree = degree
        self.betti = betti
        self.torsion = torsion
        self.ring = ring

    def __eq__(self, other):
        return (self.degree, self.betti, self.torsion) == (other.degree, other.betti, other.torsion)

    def __repr__(self):
        parts = [repr(self.ring)] * self.betti + ["Z/%d" % t for t in self.torsion]
        return "H_%d = %s" % (self.degree, " + ".join(parts) if parts else "0")


def _boundary_rows(complex_, k):
    """d_k as sparse rows read straight from the differential: one
    {target index: coefficient} row per degree-k basis token.  This is the
    transpose of ChainComplex.matrix(k), which has the same rank and
    invariant factors."""
    sources = complex_.basis.basis(k)  # raises DegreeOverflowError past max_degree
    if k <= 0:
        return [{} for _ in sources]
    index = complex_.basis.index(k - 1)
    d = complex_.d
    return [{index[t]: c for t, c in d(tok).items()} for tok in sources]


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
    reductions = {}

    def reduced(k):
        if k not in reductions:
            reductions[k] = _reduce(_boundary_rows(complex_, k), ring.p)
        return reductions[k]

    out = []
    for n in degrees:
        if n + 1 > complex_.max_degree:
            raise _no_degree_above(n)
        dim_n = complex_.basis.dimension(n)
        rank_n = reduced(n)[0]
        rank_n1, torsion = reduced(n + 1)
        out.append(HomologySummary(n, dim_n - rank_n - rank_n1, list(torsion), ring))
    return out


class HomologyBasis:
    """Homology of one degree with chain-level representatives.

    representatives are coordinate vectors in the degree-n basis, and
    coordinates(cycle_vector) expresses a cycle in the generators; it
    raises ValueError on a vector that is not a cycle.

    Over Z: generators are labelled ('free', i) or ('torsion', i, order),
    from two dense Smith normal forms with transforms; torsion coordinates
    are reduced mod the order.

    Over F_p: generators are ('free', i), from the sparse elimination.
    The boundaries are _reduce's pivot rows of d_{n+1}, the cycles the row
    combinations of d_n that vanish.  Reducers are the boundary pivots in
    pivot order, then each cycle that survives reduction against all
    earlier reducers, led by one of its nonzero entries.  Every reducer is
    zero at the lead of every earlier one, so reducing a vector against
    them once, in insertion order, clears every lead; coordinates rely on
    this order.
    """

    def __init__(self, complex_, n):
        self.complex = complex_
        self.n = n
        if n + 1 > complex_.max_degree:
            raise _no_degree_above(n)
        p = complex_.ring.p
        if p is None:
            self._build_integral(complex_.matrix(n), complex_.matrix(n + 1),
                                 complex_.basis.dimension(n))
            return
        self._p = p
        # each reducer is (lead, vector, inverse of vector[lead], generator
        # index or None for a boundary)
        self._reducers = [(lead, row, inverse, None) for lead, row, inverse
                          in _modp_column_space(_boundary_rows(complex_, n + 1), p)]
        dim_n = complex_.basis.dimension(n)
        self.generators = []
        self.representatives = []
        for cycle in _modp_kernel(_boundary_rows(complex_, n), p):
            self._sift(cycle)
            if cycle:
                lead = min(cycle)
                self._reducers.append((lead, cycle, pow(cycle[lead], -1, p),
                                       len(self.generators)))
                self.generators.append(("free", len(self.generators)))
                self.representatives.append([cycle[j] if j in cycle else 0
                                             for j in range(dim_n)])

    def _build_integral(self, d_n, d_n1, dim_n):
        snf_n = smith_normal_form(d_n, cols=dim_n)
        rank_n = snf_n.rank
        nullity = dim_n - rank_n
        # kernel basis: last `nullity` columns of V
        V, Vinv = snf_n.V, snf_n.Vinv
        kernel_cols = list(range(rank_n, dim_n))
        m = len(d_n1[0]) if d_n1 else 0
        # image of d_{n+1} in kernel coordinates: rows of Vinv * d_n1 at kernel indices
        C = [[0] * m for _ in kernel_cols]
        if m:
            VinvB = mat_mul(Vinv, d_n1) if d_n1 else []
            for r, idx in enumerate(kernel_cols):
                C[r] = VinvB[idx]
        snf_c = smith_normal_form(C, rows=nullity, cols=m)
        self._V = V
        self._Vinv = Vinv
        self._rank = rank_n
        self._kernel_cols = kernel_cols
        self._Uc = snf_c.U
        self._Ucinv = snf_c.Uinv
        self._orders = snf_c.diagonal + [0] * (nullity - len(snf_c.diagonal))
        self.generators = []
        self.representatives = []
        for i in range(nullity):
            order = abs(self._orders[i]) if i < len(self._orders) else 0
            if order == 1:
                continue
            label = ("free", i) if order == 0 else ("torsion", i, order)
            self.generators.append(label)
            # representative chain: K * (i-th column of Ucinv)
            rep = [0] * dim_n
            for r, idx in enumerate(self._kernel_cols):
                col = self._Ucinv[r][i]
                if col:
                    for row in range(dim_n):
                        rep[row] += V[row][idx] * col
            self.representatives.append(rep)

    def _sift(self, vec):
        """Reduce the sparse vector vec in place against the F_p reducers,
        in insertion order; return the coefficients of the generators."""
        p = self._p
        coords = [0] * len(self.generators)
        for lead, rv, inverse, gen in self._reducers:
            if lead in vec:
                c = vec[lead] * inverse % p
                if gen is not None:
                    coords[gen] = c
                for j, v in rv.items():
                    x = ((vec[j] if j in vec else 0) - c * v) % p
                    if x:
                        vec[j] = x
                    elif j in vec:
                        del vec[j]
        return coords

    def coordinates(self, cycle):
        """Coordinates of a cycle (vector in the degree-n basis) in homology."""
        ring = self.complex.ring
        if ring.p is None:
            w = [0] * len(self._kernel_cols)
            full = [sum(self._Vinv[i][j] * cycle[j] for j in range(len(cycle)))
                    for i in range(len(cycle))]
            # U d V is diagonal with rank nonzero entries: d(cycle) = 0 iff
            # the first rank entries of V^{-1} cycle vanish
            if any(full[:self._rank]):
                raise ValueError("vector is not a cycle modulo the image")
            for r, idx in enumerate(self._kernel_cols):
                w[r] = full[idx]
            coords_all = [sum(self._Uc[i][r] * w[r] for r in range(len(w)))
                          for i in range(len(w))]
            out = []
            gi = 0
            for i in range(len(w)):
                order = abs(self._orders[i]) if i < len(self._orders) else 0
                if order == 1:
                    continue
                c = coords_all[i]
                out.append(c % order if order else c)
                gi += 1
            return out
        p = self._p
        vec = {j: x % p for j, x in enumerate(cycle) if x % p}
        coords = self._sift(vec)
        if vec:
            raise ValueError("vector is not a cycle modulo the image")
        return coords
