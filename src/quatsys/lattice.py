"""Integer lattice arithmetic: row-style Hermite normal form and friends.

Lattices are given by lists of integer row vectors.  The canonical form
used everywhere is the row HNF: rows sorted by pivot column, pivots
positive, entries above each pivot reduced into [0, pivot).  For full-rank
square matrices this is upper triangular with positive diagonal, which
makes membership tests a back substitution and equality a list compare.
"""

from __future__ import annotations

from math import gcd


def hnf(rows, ncols=None):
    """Row HNF of the lattice spanned by `rows`; zero rows dropped."""
    work = [list(map(int, r)) for r in rows if any(r)]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    result = []
    for col in range(ncols):
        pivots = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not pivots:
            work = rest
            continue
        piv = pivots[0]
        for r in pivots[1:]:
            piv, extra = _gcd_combine(piv, r, col)
            if any(extra):
                rest.append(extra)
        if piv[col] < 0:
            piv = [-x for x in piv]
        result.append(piv)
        work = rest
    # reduce entries above each pivot
    for i in range(len(result)):
        pcol = next(c for c in range(ncols) if result[i][c] != 0)
        p = result[i][pcol]
        for k in range(i):
            q = result[k][pcol] // p
            if q:
                result[k] = [a - q * b for a, b in zip(result[k], result[i])]
    return result


def _gcd_combine(a, b, col):
    """Rows (a', b') spanning the same lattice with b'[col] == 0."""
    x, y = a[col], b[col]
    if x % y == 0:
        q = x // y
        return b, [ai - q * bi for ai, bi in zip(a, b)]
    g, u, v = _xgcd(x, y)
    new_a = [u * ai + v * bi for ai, bi in zip(a, b)]
    s, t = x // g, y // g
    new_b = [s * bi - t * ai for ai, bi in zip(a, b)]
    return new_a, new_b


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def is_full_rank_hnf(mat, n) -> bool:
    return len(mat) == n and all(mat[i][i] > 0 for i in range(n))


def det_upper_triangular(mat) -> int:
    d = 1
    for i in range(len(mat)):
        d *= mat[i][i]
    return d


def solve_triangular(mat, vec):
    """Integer coordinates n with n @ mat == vec, or None.

    `mat` must be a row HNF.  Row j pivots in column j when mat[j][j] != 0,
    as in every row of a full-rank square one (upper triangular), and
    otherwise in its first nonzero column, which lies right of j; so
    eliminating by rows in order clears each pivot column once.
    """
    vec = list(map(int, vec))
    coords = [0] * len(mat)
    for j, row in enumerate(mat):
        col = j if row[j] else next(k for k, x in enumerate(row) if x)
        r, p = vec[col], row[col]
        if r % p:
            return None
        c = coords[j] = r // p
        if c:
            vec = [a - c * b for a, b in zip(vec, row)]
    if any(vec):
        return None
    return coords


def contains(mat, vec) -> bool:
    return solve_triangular(mat, vec) is not None


def reduce_mod(mat, vec):
    """Canonical coset representative of `vec` modulo the row lattice.

    With upper-triangular HNF the representative satisfies
    0 <= rep[j] < mat[j][j] for all j; reducing column j with row j only
    touches columns >= j, so a single left-to-right sweep canonicalizes.
    """
    vec = list(map(int, vec))
    for j in range(len(mat)):
        q = vec[j] // mat[j][j]
        if q:
            vec = [a - q * b for a, b in zip(vec, mat[j])]
    return vec


def kernel(rows, ncols):
    """Basis of the left integer kernel {u : u @ rows == 0}."""
    m = len(rows)
    aug = [list(map(int, r)) + [1 if i == j else 0 for j in range(m)]
           for i, r in enumerate(rows)]
    # kernel rows pivot right of column ncols, so the reduction above pivots
    # only combines them with each other and they still span the kernel
    echelon = hnf(aug, ncols + m)
    ker = []
    for row in echelon:
        if any(row[:ncols]):
            continue
        ker.append(row[ncols:])
    return ker


def intersect(rows_a, rows_b, ncols):
    """Row basis of the intersection of two integer lattices."""
    stacked = [list(r) for r in rows_a] + [list(r) for r in rows_b]
    na = len(rows_a)
    out = []
    for u in kernel(stacked, ncols):
        vec = [0] * ncols
        for c, row in zip(u[:na], rows_a):
            if c:
                vec = [a + c * b for a, b in zip(vec, row)]
        if any(vec):
            out.append(vec)
    return hnf(out, ncols)


def content(rows) -> int:
    g = 0
    for r in rows:
        for x in r:
            g = gcd(g, x)
    return g
