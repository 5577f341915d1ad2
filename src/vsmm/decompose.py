"""Sparse matrix decomposition into permutation / prefix-sum / selector factors.

A sparse m-by-n matrix A with t nonzeros factors exactly as

    A = s5 dm^T Gout s4 Sig^T Lam s3 Sig s2 Gin dn s1

where s1..s5 are permutations, Sig is the lower-triangular all-ones prefix-sum
matrix, dn/dm are its adjacent-difference inverses, Gin/Gout keep the first
ncol/nrow coordinates (resizing between n, t and m), and Lam is the diagonal
of edge weights. Every factor other than Lam is data-oblivious in shape: the
permutations have degrees (n, t, t, t, m), so transcript sizes downstream
depend only on (m, n, t).

`factor_steps` writes this product down once, as an ordered list of typed
steps applied right to left, each Gamma split into a public Resize and a
0/1 diagonal Select:

    Perm s1, Diff, Select ncol, Resize n->t, Perm s2, Prefix, Perm s3,
    Weight, Prefix.T, Perm s4, Resize t->m, Select nrow, Diff.T, Perm s5

Every secure step (Perm, Select, Weight) keeps the number of rows. Each step
has a `.T`, so A^T is `[s.T for s in reversed(steps)]`. The clear oracle
`reconstruct_dense` runs the list on the identity; the secure protocol in
`vsmm.smm` walks the same list. A step's one method, `map`, acts along the
last axis of (d, L) rows, as smm walks a share; `apply_steps` runs a list
on an (L, d) array. Perm gathers C-contiguous rows (`gather_rows`) and
Prefix writes reversed ones; every step reads either layout.

`decompose_full` goes through an intermediate A = P Lam s3 Q, with one row
and one column of P and Q per edge: P (m-by-t) has one 1 per column at the
edge's row, in row-major edge order, and Q (t-by-n) one 1 per row at the
edge's column, in column-major edge order; s3 maps the one order to the
other. Both have a non-decreasing index map, and `_q_factors` factors such
a map as Q = Sig s2 Gin dn s1; P follows by transposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np


class DecomposeError(ValueError):
    pass


def gather_rows(a: np.ndarray, idx: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Row c of the result is a[c][idx[c]], or a[c][idx] for one index row
    shared by every row: one np.take per row, into C-contiguous rows, or
    into `out`. With out=a, C-contiguous with rows as long as idx's, each
    row is gathered in place through one scratch row.

    Nothing here checks the indices: `clip` mode, which writes each row once
    where `raise` mode would buffer it, reads an index past the end as the
    last entry. op and `factor_steps` check each Permutation's degree
    against the rows it permutes; dealt and received indices have the
    tuple's degree (`PartyContext.recv_perm` checks on receipt)."""
    if out is None:
        out = np.empty(a.shape[:-1] + idx.shape[-1:], dtype=a.dtype)
    rows = np.atleast_2d(out)  # a vector is one row
    scratch = np.empty_like(rows[0]) if out is a else None
    for dst, row, at in zip(rows, np.atleast_2d(a),
                            np.broadcast_to(idx, rows.shape)):
        if scratch is None:
            np.take(row, at, out=dst, mode="clip")
        else:
            np.take(row, at, out=scratch, mode="clip")
            dst[:] = scratch
    return out


def invert(p: np.ndarray) -> np.ndarray:
    """Inverse of each permutation along the last axis, by an O(k) scatter."""
    inv = np.empty_like(p)
    np.put_along_axis(inv, p, np.arange(p.shape[-1]), axis=-1)
    return inv


class Permutation:
    """One-line notation: output index i receives input index p[i]."""

    def __init__(self, p):
        arr = np.asarray(p, dtype=np.int64)
        k = arr.size
        if arr.ndim != 1 or k > 0 and (
                arr.min() < 0 or arr.max() >= k
                or np.bincount(arr, minlength=k).max() > 1):
            raise DecomposeError("not a bijection")
        self.p = arr

    @property
    def degree(self) -> int:
        return len(self.p)

    def inverse(self) -> "Permutation":
        return Permutation(invert(self.p))


@dataclass(frozen=True)
class SparseMatrixCOO:
    """COO sparse matrix; entries sorted by (row, col), 0-based, no duplicates."""

    m: int
    n: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_entries(cls, m: int, n: int, entries) -> "SparseMatrixCOO":
        entries = list(entries)
        rows = np.array([e[0] for e in entries], dtype=np.int64)
        cols = np.array([e[1] for e in entries], dtype=np.int64)
        weights = np.array([e[2] for e in entries], dtype=np.float64)
        order = np.lexsort((cols, rows))
        rows, cols, weights = rows[order], cols[order], weights[order]
        if len(entries) and (rows.min() < 0 or rows.max() >= m
                             or cols.min() < 0 or cols.max() >= n):
            raise DecomposeError("entry index out of range")
        if np.any((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])):
            raise DecomposeError("duplicate entry")
        if np.any(weights == 0):
            raise DecomposeError("zero weight entry")
        return cls(m, n, rows, cols, weights)

    @property
    def t(self) -> int:
        return len(self.rows)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.m, self.n))
        out[self.rows, self.cols] = self.weights
        return out


@dataclass(frozen=True)
class DecompositionBundle:
    m: int
    n: int
    t: int
    ncol: int
    nrow: int
    sigma1: Permutation  # degree n
    sigma2: Permutation  # degree t
    sigma3: Permutation  # degree t
    sigma4: Permutation  # degree t
    sigma5: Permutation  # degree m
    lam: np.ndarray      # length t, edge weights in sigma3-output (row) order


# local linear-map primitives, along the last axis ---------------------------

def apply_Sigma(v: np.ndarray) -> np.ndarray:
    """Prefix sums (multiplication by the lower-triangular ones), written
    through a reversed view: numpy accumulates several times faster when
    input and output are not both contiguous."""
    return np.cumsum(v, axis=-1, out=np.empty_like(v)[..., ::-1])


def apply_Sigma_T(v: np.ndarray) -> np.ndarray:
    """Suffix sums."""
    return np.cumsum(v[..., ::-1], axis=-1, dtype=v.dtype)[..., ::-1]


def apply_delta(v: np.ndarray) -> np.ndarray:
    """Adjacent differences: (v0, v1-v0, ...); inverse of apply_Sigma."""
    out = v.copy()
    np.subtract(v[..., 1:], v[..., :-1], out=out[..., 1:])
    return out


def apply_delta_T(v: np.ndarray) -> np.ndarray:
    """Transposed differences: (v0-v1, ..., v_last); inverse of apply_Sigma_T."""
    out = v.copy()
    np.subtract(v[..., :-1], v[..., 1:], out=out[..., :-1])
    return out


def resize(v: np.ndarray, out_len: int) -> np.ndarray:
    """Truncate or zero-pad v to out_len entries."""
    out = np.zeros(v.shape[:-1] + (out_len,), dtype=v.dtype)
    keep = min(v.shape[-1], out_len)
    out[..., :keep] = v[..., :keep]
    return out


# factor steps --------------------------------------------------------------

@dataclass(frozen=True)
class Perm:
    """Permutation of degree k; sigma is None in party 1's list."""

    sigma: Permutation | None
    k: int

    @property
    def T(self) -> Perm:
        return Perm(None if self.sigma is None else self.sigma.inverse(), self.k)

    def map(self, v: np.ndarray) -> np.ndarray:
        return gather_rows(v, self.sigma.p)


@dataclass(frozen=True)
class Local:
    """A public linear map; each party applies it to its own share."""

    fn: Callable[[np.ndarray], np.ndarray]
    fn_T: Callable[[np.ndarray], np.ndarray]

    @property
    def T(self) -> Local:
        return Local(self.fn_T, self.fn)

    def map(self, v: np.ndarray) -> np.ndarray:
        return self.fn(v)


Diff = Local(apply_delta, apply_delta_T)    # delta; Diff.T is delta^T
Prefix = Local(apply_Sigma, apply_Sigma_T)  # Sigma; Prefix.T is Sigma^T


def Resize(k: int, out: int) -> Local:
    """Zero-pad or truncate k entries to out; the transpose maps back."""
    return Local(partial(resize, out_len=out), partial(resize, out_len=k))


@dataclass(frozen=True)
class Select:
    """The 0/1 diagonal keeping the first `keep` of `side` entries (keep is
    None in party 1's list); its own transpose."""

    keep: int | None
    side: int

    @property
    def T(self) -> Select:
        return self

    def map(self, v: np.ndarray) -> np.ndarray:
        out = v.copy()
        out[..., self.keep:] = 0
        return out


@dataclass(frozen=True)
class Weight:
    """Lam, the diagonal of edge weights (None in party 1's list)."""

    lam: np.ndarray | None

    @property
    def T(self) -> Weight:
        return self

    def map(self, v: np.ndarray) -> np.ndarray:
        return v * self.lam.astype(v.dtype, copy=False)


def factor_steps(dims, bundle: DecompositionBundle | None = None) -> list:
    """The factors of A in application order (rightmost first).

    dims carries the public (m, n, t). Without a bundle the private parts
    (permutations, selector counts, weights) are None: that is the list
    party 1 walks, step for step alongside party 0's. A bundle's
    permutations must have degrees (n, t, t, t, m) and its weights length t.
    """
    m, n, t = dims.m, dims.n, dims.t
    if bundle is not None:
        if (bundle.m, bundle.n, bundle.t) != (m, n, t):
            raise DecomposeError("bundle does not match declared dims")
        if bundle.ncol > min(n, t) or bundle.nrow > min(m, t):
            raise DecomposeError("selector keeps more rows than the matrix has")
        if [getattr(bundle, f"sigma{i}").degree for i in range(1, 6)] != \
                [n, t, t, t, m] or len(bundle.lam) != t:
            raise DecomposeError("factor degrees are not (n, t, t, t, m) "
                                 "with t weights")

    def get(name):  # every field is None when bundle is None
        return getattr(bundle, name, None)

    return [Perm(get("sigma1"), n), Diff, Select(get("ncol"), n), Resize(n, t),
            Perm(get("sigma2"), t), Prefix, Perm(get("sigma3"), t),
            Weight(get("lam")), Prefix.T, Perm(get("sigma4"), t),
            Resize(t, m), Select(get("nrow"), m), Diff.T,
            Perm(get("sigma5"), m)]


def apply_steps(steps: list, x: np.ndarray) -> np.ndarray:
    """Run a step list on an (L, d) array or a vector: map its transpose."""
    x = np.asarray(x).T
    for s in steps:
        x = s.map(x)
    return x.T


# decomposition -------------------------------------------------------------

def pad_perm(outs, ins, k: int) -> Permutation:
    """The bijection on k whose output outs[i] takes input ins[i].

    The remaining outputs, in increasing order, take the remaining inputs in
    increasing order.
    """
    outs = np.asarray(outs, dtype=np.int64)
    ins = np.asarray(ins, dtype=np.int64)
    if outs.shape != ins.shape:
        raise DecomposeError("partial map needs one input per output")
    if len(outs) and (min(outs.min(), ins.min()) < 0
                      or max(outs.max(), ins.max()) >= k):
        raise DecomposeError(f"partial map indices out of range for degree {k}")
    if len(outs) and max(np.bincount(outs).max(), np.bincount(ins).max()) > 1:
        raise DecomposeError("partial map not injective")
    p = np.full(k, -1, dtype=np.int64)
    p[outs] = ins
    free = np.ones(k, dtype=bool)
    free[ins] = False
    p[p < 0] = np.flatnonzero(free)
    return Permutation(p)


def _q_factors(cols: np.ndarray, k: int):
    """Factor the t-by-k matrix Q with Q[e, cols[e]] = 1 as
    Q = Sigma sigma2 Gamma_in delta_k sigma1, for a non-decreasing column map.

    Returns (sigma2 in S_t, ncol, sigma1 in S_k); ncol is the number of
    distinct columns, and sigma1 lists them first in increasing order.
    """
    if np.any(cols[1:] < cols[:-1]):
        raise DecomposeError("index map is not non-decreasing")
    starts = np.flatnonzero(np.concatenate(([True], cols[1:] != cols[:-1])))
    ncol = len(starts)
    sigma1 = pad_perm(np.arange(ncol), cols[starts], k)
    sigma2 = pad_perm(starts, np.arange(ncol), len(cols))
    return sigma2, ncol, sigma1


def decompose_full(a: SparseMatrixCOO) -> DecompositionBundle:
    """Decompose A = P Lam sigma3 Q (see the module docstring) into its bundle.

    Edges are indexed in row-major order for P and Lam; Q takes them in
    column-major order (a stable sort, so ties keep row order) and sigma3
    maps that order back. P^T[e, a.rows[e]] = 1, so `_q_factors(a.rows)`
    factors P^T, and its permutations, inverted, are sigma4 and sigma5.
    """
    if a.t == 0:
        raise DecomposeError("cannot decompose an empty matrix")
    order = np.argsort(a.cols, kind="stable")
    sigma2, ncol, sigma1 = _q_factors(a.cols[order], a.n)
    sigma4_t, nrow, sigma5_t = _q_factors(a.rows, a.m)
    return DecompositionBundle(a.m, a.n, a.t, ncol, nrow, sigma1, sigma2,
                               Permutation(invert(order)), sigma4_t.inverse(),
                               sigma5_t.inverse(), a.weights.copy())


def reconstruct_dense(b: DecompositionBundle) -> np.ndarray:
    """Apply the factor pipeline to the identity; the exact inverse oracle."""
    return apply_steps(factor_steps(b, b), np.eye(b.n))


# I/O -----------------------------------------------------------------------

def read_coo_text(path: str) -> SparseMatrixCOO:
    """Read "m n t" header then t lines of "i j weight" (1-based indices)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise DecomposeError(f"{path}:1: empty COO file")
    try:
        m, n, t = (int(v) for v in lines[0].split())
    except ValueError as exc:
        raise DecomposeError(f"{path}:1: bad header: {lines[0]!r}") from exc
    if len(lines) - 1 != t:
        raise DecomposeError(f"{path}: expected {t} entries, got {len(lines) - 1}")
    entries = []
    for idx, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 3:
            raise DecomposeError(f"{path}:{idx}: expected 'i j weight'")
        entries.append((int(parts[0]) - 1, int(parts[1]) - 1, float(parts[2])))
    return SparseMatrixCOO.from_entries(m, n, entries)
