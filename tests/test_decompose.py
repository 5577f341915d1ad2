import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_sparse
from vsmm.decompose import (DecomposeError, Local, Perm, Permutation, Select,
                            SparseMatrixCOO, Weight, apply_Sigma,
                            apply_Sigma_T, apply_delta, apply_delta_T,
                            apply_steps, decompose_full, factor_steps,
                            gather_rows, pad_perm, read_coo_text,
                            reconstruct_dense)


def test_permutation_basics():
    step = Perm(Permutation([2, 0, 1]), 3)
    x = np.array([10, 20, 30])
    assert np.array_equal(step.map(x), [30, 10, 20])
    assert np.array_equal(step.map(np.stack([x, 2 * x])),
                          [[30, 10, 20], [60, 20, 40]])  # one gather per row
    assert np.array_equal(step.T.map(step.map(x)), x)
    matrix = apply_steps([step], np.eye(3, dtype=np.int64))
    assert np.array_equal(matrix @ x, step.map(x))
    assert np.array_equal(apply_steps([step.T], np.eye(3, dtype=np.int64)),
                          matrix.T)


def test_permutation_validation():
    with pytest.raises(DecomposeError):
        Permutation([0, 0, 1])
    with pytest.raises(DecomposeError):
        Permutation([0, 2])
    with pytest.raises(DecomposeError):
        Permutation([1, -1, 0])
    with pytest.raises(DecomposeError):
        Permutation([0, 3, 1])
    with pytest.raises(DecomposeError):
        Permutation([[0, 1], [1, 0]])


def test_coo_validation():
    with pytest.raises(DecomposeError):
        SparseMatrixCOO.from_entries(2, 2, [(0, 0, 1.0), (0, 0, 2.0)])
    with pytest.raises(DecomposeError):
        SparseMatrixCOO.from_entries(2, 2, [(2, 0, 1.0)])
    with pytest.raises(DecomposeError):
        SparseMatrixCOO.from_entries(2, 2, [(0, 0, 0.0)])
    with pytest.raises(DecomposeError, match="duplicate"):
        SparseMatrixCOO.from_entries(2, 2, [(1, 1, 1.0), (0, 0, 1.0),
                                            (1, 1, 2.0)])
    empty = SparseMatrixCOO.from_entries(2, 2, [])
    assert empty.t == 0 and not empty.to_dense().any()


def test_sigma_delta_inverses(rng):
    v = rng.integers(0, 100, (7, 3)).astype(np.uint64)
    assert np.array_equal(apply_delta(apply_Sigma(v)), v)
    assert np.array_equal(apply_Sigma_T(apply_delta_T(v)), v)


def test_pad_perm_fills_numerically():
    p = pad_perm([0, 2], [3, 1], 4)
    # fixed outputs keep their inputs; the rest fill in numerical order
    assert p.p[0] == 3 and p.p[2] == 1
    assert sorted(p.p.tolist()) == [0, 1, 2, 3]
    assert p.p[1] == 0 and p.p[3] == 2


def test_pad_perm_validation():
    with pytest.raises(DecomposeError):
        pad_perm([0, 2], [1, 1], 3)
    with pytest.raises(DecomposeError):
        pad_perm([5], [0], 3)


def test_identity_decomposition_trivial():
    a = SparseMatrixCOO.from_entries(4, 4, [(i, i, 1.0) for i in range(4)])
    b = decompose_full(a)
    assert (b.m, b.n, b.t, b.ncol, b.nrow) == (4, 4, 4, 4, 4)
    assert np.allclose(reconstruct_dense(b), np.eye(4))


def test_decompose_rejects_unsorted_rows():
    a = SparseMatrixCOO(2, 2, np.array([1, 0]), np.array([0, 1]),
                        np.array([1.0, 2.0]))
    with pytest.raises(DecomposeError):
        decompose_full(a)


def test_single_entry_matrix():
    a = SparseMatrixCOO.from_entries(3, 5, [(1, 4, -2.5)])
    b = decompose_full(a)
    assert np.allclose(reconstruct_dense(b), a.to_dense())


@given(st.integers(1, 24), st.integers(1, 24), st.integers(1, 80),
       st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_decompose_reconstruct_property(m, n, t, seed):
    rng = np.random.default_rng(seed)
    a = random_sparse(rng, m, n, max(t, 1))
    b = decompose_full(a)
    assert np.allclose(reconstruct_dense(b), a.to_dense(), atol=1e-9)
    steps_t = [s.T for s in reversed(factor_steps(b, b))]
    assert np.allclose(apply_steps(steps_t, np.eye(a.m)), a.to_dense().T,
                       atol=1e-9)


@pytest.mark.parametrize("shape", [(9, 7, 3), (4, 11, 2), (12, 3, 2),
                                   (6, 6, 20), (1, 1, 1), "random"])
def test_secure_steps_keep_length(rng, shape):
    """Every step other than a public Local maps L rows to L rows, in both
    directions, and transposing the transposed list gives A back."""
    m, n, t = (int(v) for v in rng.integers(1, 16, 3)) \
        if shape == "random" else shape
    b = decompose_full(random_sparse(rng, m, n, t))
    steps = factor_steps(b, b)
    steps_t = [s.T for s in reversed(steps)]
    for lst, rows in ((steps, b.n), (steps_t, b.m)):
        x = rng.normal(size=(rows, 2))
        for s in lst:
            y = apply_steps([s], x)
            assert isinstance(s, Local) or len(y) == len(x)
            x = y
    twice = [s.T for s in reversed(steps_t)]
    assert np.array_equal(apply_steps(twice, np.eye(b.n)), reconstruct_dense(b))


def test_step_map_keeps_rows_contiguous(rng):
    """Each step type and its .T maps C-contiguous (d, L) rows and the
    last-axis-reversed rows apply_Sigma writes to equal results, each
    contiguous along the last axis, one row after the other."""
    b = decompose_full(random_sparse(rng, 9, 7, 20))
    steps = factor_steps(b, b)
    steps_t = [s.T for s in reversed(steps)]
    seen = set()
    for lst, rows in ((steps, b.n), (steps_t, b.m)):
        x = rng.normal(size=(3, rows))
        for s in lst:
            seen.add(type(s))
            reversed_rows = np.empty_like(x)[..., ::-1]
            reversed_rows[...] = x
            y, y_reversed = s.map(x), s.map(reversed_rows)
            assert np.array_equal(y_reversed, y)
            for out in (y, y_reversed):
                assert abs(out.strides[-1]) == out.itemsize
                assert abs(out.strides[0]) == out.shape[-1] * out.itemsize
            x = np.ascontiguousarray(y)
    assert seen == {Perm, Local, Select, Weight}


def test_gather_rows(rng):
    """One index row shared by every row, one index row per row, or a
    vector: row c of the result is a[c][idx[c]], in C-contiguous rows or
    in place."""
    a = rng.integers(0, 100, (3, 6)).astype(np.uint64)
    shared = rng.permutation(6)
    per_row = np.stack([rng.permutation(6) for _ in range(3)])
    for idx, want in ((shared, a[:, shared]),
                      (per_row, np.take_along_axis(a, per_row, axis=1))):
        for src in (a, a.T.copy().T):  # C-ordered and Fortran-ordered rows
            out = gather_rows(src, idx)
            assert out.dtype == a.dtype and out.flags.c_contiguous
            assert np.array_equal(out, want)
        inplace = a.copy()  # out=a gathers each row in place
        assert gather_rows(inplace, idx, out=inplace) is inplace
        assert np.array_equal(inplace, want)
    assert np.array_equal(gather_rows(a[1], shared), a[1][shared])


def test_coo_text_roundtrip(tmp_path, rng):
    a = random_sparse(rng, 6, 8, 11)
    path = tmp_path / "a.txt"
    path.write_text(f"{a.m} {a.n} {a.t}\n" + "".join(
        f"{i + 1} {j + 1} {w!r}\n" for i, j, w in
        zip(a.rows, a.cols, a.weights.tolist())))
    b = read_coo_text(str(path))
    assert np.allclose(a.to_dense(), b.to_dense())


def test_coo_text_error_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2 1\n1 1\n")
    with pytest.raises(DecomposeError, match=":2:"):
        read_coo_text(str(path))

