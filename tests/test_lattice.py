import random

from quatsys import lattice


def test_hnf_canonical_form():
    mat = lattice.hnf([[4, -2, 0], [0, 2, 1], [2, 0, 5]], 3)
    assert len(mat) == 3
    for i in range(3):
        assert mat[i][i] > 0
        for k in range(i):
            assert 0 <= mat[k][i] < mat[i][i]
        for j in range(i):
            assert mat[i][j] == 0


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
    assert lattice.lattice_index(outer, inner) == 6
