import random

from hypothesis import given, settings
from hypothesis import strategies as st

from quatsys import lattice

from conftest import lattice_index


def test_hnf_canonical_form():
    mat = lattice.hnf([[4, -2, 0], [0, 2, 1], [2, 0, 5]], 3)
    assert len(mat) == 3
    for i in range(3):
        assert mat[i][i] > 0
        for k in range(i):
            assert 0 <= mat[k][i] < mat[i][i]
        for j in range(i):
            assert mat[i][j] == 0


@st.composite
def lattice_bases(draw):
    """(M, U): an integer matrix M, full rank or of rank r < its row count, and
    a unimodular U built from random elementary row operations."""
    n = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    rank = draw(st.integers(0, min(n, ncols)))
    entries = st.integers(-9, 9)
    left = draw(st.lists(st.lists(entries, min_size=rank, max_size=rank),
                         min_size=n, max_size=n))
    right = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                          min_size=rank, max_size=rank))
    if draw(st.booleans()):
        mat = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                            min_size=n, max_size=n))
    else:
        mat = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if right
               else [0] * ncols for row in left]
    unimodular = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["add", "swap", "negate"]))
        if kind == "add" and i != j:
            q = draw(st.integers(-5, 5))
            unimodular[i] = [a + q * b for a, b in zip(unimodular[i], unimodular[j])]
        elif kind == "swap":
            unimodular[i], unimodular[j] = unimodular[j], unimodular[i]
        elif kind == "negate":
            unimodular[i] = [-a for a in unimodular[i]]
    return mat, unimodular, ncols


@settings(max_examples=300, deadline=None)
@given(lattice_bases())
def test_hnf_is_canonical_under_unimodular_row_operations(case):
    mat, unimodular, ncols = case
    product = [[sum(u * row[c] for u, row in zip(urow, mat)) for c in range(ncols)]
               for urow in unimodular]
    form = lattice.hnf(mat, ncols)
    assert lattice.hnf(product, ncols) == form
    # row echelon, positive pivots, entries above each pivot reduced below it
    pivots = [next(c for c, x in enumerate(row) if x) for row in form]
    assert pivots == sorted(set(pivots))
    for i, (row, p) in enumerate(zip(form, pivots)):
        assert row[p] > 0
        assert all(0 <= above[p] < row[p] for above in form[:i])


def test_solve_and_reduce_roundtrip():
    rng = random.Random(7)
    mat = lattice.hnf([[2, 1, 7], [0, 3, 1], [0, 0, 5]], 3)
    for _ in range(50):
        coeffs = [rng.randrange(-9, 10) for _ in range(3)]
        vec = [0, 0, 0]
        for c, row in zip(coeffs, mat):
            vec = [a + c * b for a, b in zip(vec, row)]
        assert lattice.solve_triangular(mat, vec) is not None
        shifted = [v + s for v, s in zip(vec, [1, 0, 0])]
        red = lattice.reduce_mod(mat, shifted)
        for j in range(3):
            assert 0 <= red[j] < mat[j][j]
        back = [a - b for a, b in zip(shifted, red)]
        assert lattice.solve_triangular(mat, back) is not None


def test_kernel_annihilates():
    rows = [[2, 4], [1, 2], [3, 6]]
    ker = lattice.kernel(rows, 2)
    assert ker, "rank-1 matrix with 3 rows has a nontrivial left kernel"
    for u in ker:
        out = [0, 0]
        for c, row in zip(u, rows):
            out = [a + c * b for a, b in zip(out, row)]
        assert out == [0, 0]


def test_intersection_of_scaled_lattices():
    a = [[2, 0], [0, 3]]
    b = [[3, 0], [0, 2]]
    meet = lattice.intersect(a, b, 2)
    assert meet == [[6, 0], [0, 6]]


def test_lattice_index():
    outer = [[1, 0], [0, 1]]
    inner = [[2, 1], [0, 3]]
    assert lattice_index(outer, inner) == 6
