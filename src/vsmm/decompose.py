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
steps (Perm, Diff, Select, Prefix, Weight) applied right to left. Each step
has a `.T`, so A^T is `[s.T for s in reversed(steps)]`. The clear oracle
`reconstruct_dense` runs the list on the identity; the secure protocol in
`vsmm.smm` walks the same list.

`decompose_full` goes through an intermediate A = P Lam s3 Q, with one row
and one column of P and Q per edge: P (m-by-t) has one 1 per column at the
edge's row, in row-major edge order, and Q (t-by-n) one 1 per row at the
edge's column, in column-major edge order; s3 maps the one order to the
other. Both have a non-decreasing index map, and `_q_factors` factors such
a map as Q = Sig s2 Gin dn s1; P follows by transposition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ring import FRAC_BITS


class DecomposeError(ValueError):
    pass


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

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x)[self.p]

    def inverse(self) -> "Permutation":
        return Permutation(invert(self.p))

    def matrix(self) -> np.ndarray:
        m = np.zeros((self.degree, self.degree), dtype=np.int64)
        m[np.arange(self.degree), self.p] = 1
        return m

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.p, other.p)

    def __repr__(self) -> str:
        return f"Permutation({self.p.tolist()})"


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

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SparseMatrixCOO":
        a = np.asarray(a)
        rr, cc = np.nonzero(a)  # row-major, so already sorted and distinct
        return cls(a.shape[0], a.shape[1], rr, cc, a[rr, cc].astype(np.float64))

    @property
    def t(self) -> int:
        return len(self.rows)

    def to_dense(self, dtype=np.float64) -> np.ndarray:
        out = np.zeros((self.m, self.n), dtype=dtype)
        out[self.rows, self.cols] = self.weights.astype(dtype)
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


# local linear-map primitives ---------------------------------------------

def apply_Sigma(v: np.ndarray) -> np.ndarray:
    """Prefix sums along axis 0 (multiplication by the lower-triangular ones)."""
    return np.cumsum(v, axis=0, dtype=v.dtype)


def apply_Sigma_T(v: np.ndarray) -> np.ndarray:
    """Suffix sums along axis 0."""
    return np.cumsum(v[::-1], axis=0, dtype=v.dtype)[::-1]


def apply_delta(v: np.ndarray) -> np.ndarray:
    """Adjacent differences: (v0, v1-v0, ...); inverse of apply_Sigma."""
    out = v.copy()
    out[1:] = v[1:] - v[:-1]
    return out


def apply_delta_T(v: np.ndarray) -> np.ndarray:
    """Transposed differences: (v0-v1, ..., v_last); inverse of apply_Sigma_T."""
    out = v.copy()
    out[:-1] = v[:-1] - v[1:]
    return out


def resize(v: np.ndarray, out_len: int) -> np.ndarray:
    """Truncate or zero-pad v to out_len rows."""
    out = np.zeros((out_len,) + v.shape[1:], dtype=v.dtype)
    keep = min(len(v), out_len)
    out[:keep] = v[:keep]
    return out


# factor steps --------------------------------------------------------------

@dataclass(frozen=True)
class Perm:
    """Row permutation of degree k; sigma is None in party 1's list."""

    sigma: Permutation | None
    k: int

    @property
    def T(self) -> Perm:
        return Perm(None if self.sigma is None else self.sigma.inverse(), self.k)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.sigma.apply(v)


@dataclass(frozen=True)
class Local:
    """A public linear map; each party applies it to its own share."""

    fn: Callable[[np.ndarray], np.ndarray]
    fn_T: Callable[[np.ndarray], np.ndarray]

    @property
    def T(self) -> Local:
        return Local(self.fn_T, self.fn)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.fn(v)


Diff = Local(apply_delta, apply_delta_T)    # delta; Diff.T is delta^T
Prefix = Local(apply_Sigma, apply_Sigma_T)  # Sigma; Prefix.T is Sigma^T


@dataclass(frozen=True)
class Select:
    """Gamma between the n- or m-length side and the t side: keeps the first
    `keep` coordinates (None in party 1's list). widen maps side -> t."""

    keep: int | None
    side: int
    t: int
    widen: bool

    @property
    def T(self) -> Select:
        return Select(self.keep, self.side, self.t, not self.widen)

    def apply(self, v: np.ndarray) -> np.ndarray:
        out_len = self.t if self.widen else self.side
        if self.keep > min(len(v), out_len):
            raise DecomposeError("selector keeps more rows than the matrix has")
        out = resize(v, out_len)
        out[self.keep:] = 0
        return out


@dataclass(frozen=True)
class Weight:
    """Lam, the diagonal of edge weights (None in party 1's list)."""

    lam: np.ndarray | None

    @property
    def T(self) -> Weight:
        return self

    def apply(self, v: np.ndarray) -> np.ndarray:
        if len(self.lam) != len(v):
            raise DecomposeError("weight length mismatch")
        lam = self.lam.reshape((len(v),) + (1,) * (v.ndim - 1))
        return v * lam.astype(v.dtype)


def factor_steps(dims, bundle: DecompositionBundle | None = None) -> list:
    """The factors of A in application order (rightmost first).

    dims carries the public (m, n, t). Without a bundle the private parts
    (permutations, selector counts, weights) are None: that is the list
    party 1 walks, step for step alongside party 0's.
    """
    m, n, t = dims.m, dims.n, dims.t
    if bundle is not None and (bundle.m, bundle.n, bundle.t) != (m, n, t):
        raise DecomposeError("bundle does not match declared dims")

    def get(name):  # every field is None when bundle is None
        return getattr(bundle, name, None)

    return [Perm(get("sigma1"), n), Diff, Select(get("ncol"), n, t, True),
            Perm(get("sigma2"), t), Prefix, Perm(get("sigma3"), t),
            Weight(get("lam")), Prefix.T, Perm(get("sigma4"), t),
            Select(get("nrow"), m, t, False), Diff.T, Perm(get("sigma5"), m)]


def apply_steps(steps: list, x: np.ndarray) -> np.ndarray:
    """Run a step list on a plain array."""
    for s in steps:
        x = s.apply(x)
    return x


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


def reconstruct_dense(b: DecompositionBundle, dtype=np.float64) -> np.ndarray:
    """Apply the factor pipeline to the identity; the exact inverse oracle."""
    return apply_steps(factor_steps(b, b), np.eye(b.n, dtype=dtype))


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


def write_coo_text(path: str, a: SparseMatrixCOO) -> None:
    with open(path, "w") as fh:
        fh.write(f"{a.m} {a.n} {a.t}\n")
        for i, j, w in zip(a.rows, a.cols, a.weights):
            fh.write(f"{i + 1} {j + 1} {float(w)!r}\n")


def bundle_to_json(b: DecompositionBundle) -> dict:
    return {
        "m": b.m, "n": b.n, "t": b.t, "ncol": b.ncol, "nrow": b.nrow,
        "f": FRAC_BITS,
        "sigma1": b.sigma1.p.tolist(), "sigma2": b.sigma2.p.tolist(),
        "sigma3": b.sigma3.p.tolist(), "sigma4": b.sigma4.p.tolist(),
        "sigma5": b.sigma5.p.tolist(),
        "lam_fixed": [int(round(w * (1 << FRAC_BITS))) for w in b.lam],
    }


def bundle_from_json(obj: dict) -> DecompositionBundle:
    scale = 1 << obj["f"]
    return DecompositionBundle(
        obj["m"], obj["n"], obj["t"], obj["ncol"], obj["nrow"],
        Permutation(obj["sigma1"]), Permutation(obj["sigma2"]),
        Permutation(obj["sigma3"]), Permutation(obj["sigma4"]),
        Permutation(obj["sigma5"]),
        np.array(obj["lam_fixed"], dtype=np.float64) / scale)


def save_bundle(path: str, b: DecompositionBundle) -> None:
    with open(path, "w") as fh:
        json.dump(bundle_to_json(b), fh)


def load_bundle(path: str) -> DecompositionBundle:
    with open(path) as fh:
        return bundle_from_json(json.load(fh))
