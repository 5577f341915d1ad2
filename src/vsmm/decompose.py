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

The factorization goes through an intermediate A = P Lam s3 Q where P is
P-type (one 1 per column, non-decreasing row map) and Q is Q-type (one 1 per
row, non-decreasing column map); Q-type matrices decompose as Sig s2 Gin dn s1
and P-type ones follow by transposition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ring import FixedPointConfig, DEFAULT_CFG


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
        entries = sorted(entries, key=lambda e: (e[0], e[1]))
        rows = np.array([e[0] for e in entries], dtype=np.int64)
        cols = np.array([e[1] for e in entries], dtype=np.int64)
        weights = np.array([e[2] for e in entries], dtype=np.float64)
        if len(entries) and (rows.min() < 0 or rows.max() >= m
                             or cols.min() < 0 or cols.max() >= n):
            raise DecomposeError("entry index out of range")
        if len(set(zip(rows.tolist(), cols.tolist()))) != len(entries):
            raise DecomposeError("duplicate entry")
        if np.any(weights == 0):
            raise DecomposeError("zero weight entry")
        return cls(m, n, rows, cols, weights)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SparseMatrixCOO":
        a = np.asarray(a)
        rr, cc = np.nonzero(a)
        return cls.from_entries(a.shape[0], a.shape[1],
                                list(zip(rr.tolist(), cc.tolist(), a[rr, cc])))

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


# type predicates -----------------------------------------------------------

def is_q_type(rows: np.ndarray, cols: np.ndarray, t: int) -> bool:
    """Exactly one 1 per row (rows = 0..t-1) with non-decreasing column map."""
    return (len(rows) == t and np.array_equal(rows, np.arange(t))
            and np.all(np.diff(cols) >= 0) if t else False)


def is_p_type(rows: np.ndarray, cols: np.ndarray, t: int) -> bool:
    """Exactly one 1 per column with non-decreasing row map."""
    return (len(cols) == t and np.array_equal(cols, np.arange(t))
            and np.all(np.diff(rows) >= 0) if t else False)


# decomposition -------------------------------------------------------------

def pad_perm(partial: dict[int, int], k: int) -> Permutation:
    """Extend an injective partial map (output -> input) to a bijection on k.

    Remaining outputs, in increasing order, take the remaining inputs in
    increasing order.
    """
    vals = list(partial.values())
    if len(set(vals)) != len(vals) or len(set(partial)) != len(partial):
        raise DecomposeError("partial map not injective")
    if any(not 0 <= i < k for i in partial) or any(not 0 <= v < k for v in vals):
        raise DecomposeError(f"partial map indices out of range for degree {k}")
    p = np.full(k, -1, dtype=np.int64)
    for out_i, in_i in partial.items():
        p[out_i] = in_i
    free_inputs = iter(sorted(set(range(k)) - set(vals)))
    for i in range(k):
        if p[i] < 0:
            p[i] = next(free_inputs)
    return Permutation(p)


def decompose_row_column(a: SparseMatrixCOO):
    """Split A into P-type, weight diagonal, edge permutation and Q-type parts.

    Returns (P, lam, sigma3, Q) with P * diag(lam) * sigma3 * Q == A, where P
    and Q are COO matrices of shape (m, t) and (t, n). Edges are indexed in
    row-major order for P and lam; sigma3 re-sorts the column-major edge order
    of Q back into row-major order. Ties keep original entry order (the
    entries are stored sorted, so both sorts are stable).
    """
    t = a.t
    if t == 0:
        raise DecomposeError("cannot decompose an empty matrix")
    edges = np.arange(t)
    p_mat = SparseMatrixCOO.from_entries(
        a.m, t, list(zip(a.rows.tolist(), edges.tolist(), [1] * t)))
    order = np.argsort(a.cols, kind="stable")
    q_mat = SparseMatrixCOO.from_entries(
        t, a.n, list(zip(edges.tolist(), a.cols[order].tolist(), [1] * t)))
    sigma3 = Permutation(np.argsort(order, kind="stable"))
    lam = a.weights.copy()
    return p_mat, lam, sigma3, q_mat


def decompose_Q(q: SparseMatrixCOO):
    """Q-type factorization Q = Sigma sigma2 Gamma_in delta_n sigma1.

    Returns (sigma2 in S_t, ncol, sigma1 in S_n).
    """
    t, n = q.m, q.n
    if not is_q_type(q.rows, q.cols, t):
        raise DecomposeError("matrix is not Q-type")
    cols = q.cols
    unique_cols = np.unique(cols)  # sorted; monotone map => first-appearance order
    ncol = len(unique_cols)
    step_rows = np.flatnonzero(np.concatenate(([True], np.diff(cols) != 0)))
    sigma1 = pad_perm({p: int(unique_cols[p]) for p in range(ncol)}, n)
    sigma2 = pad_perm({int(step_rows[p]): p for p in range(ncol)}, t)
    return sigma2, ncol, sigma1


def decompose_P(p: SparseMatrixCOO):
    """P-type factorization P = sigma5 delta_m^T Gamma_out sigma4 Sigma^T.

    Returns (sigma5 in S_m, nrow, sigma4 in S_t); obtained by transposing and
    delegating to decompose_Q.
    """
    m, t = p.m, p.n
    if not is_p_type(p.rows, p.cols, t):
        raise DecomposeError("matrix is not P-type")
    pt = SparseMatrixCOO.from_entries(
        t, m, list(zip(p.cols.tolist(), p.rows.tolist(), [1] * t)))
    sigma2p, nrow, sigma1p = decompose_Q(pt)
    return sigma1p.inverse(), nrow, sigma2p.inverse()


def decompose_full(a: SparseMatrixCOO) -> DecompositionBundle:
    p_mat, lam, sigma3, q_mat = decompose_row_column(a)
    sigma2, ncol, sigma1 = decompose_Q(q_mat)
    sigma5, nrow, sigma4 = decompose_P(p_mat)
    return DecompositionBundle(a.m, a.n, a.t, ncol, nrow,
                               sigma1, sigma2, sigma3, sigma4, sigma5, lam)


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


def bundle_to_json(b: DecompositionBundle, cfg: FixedPointConfig = DEFAULT_CFG) -> dict:
    return {
        "m": b.m, "n": b.n, "t": b.t, "ncol": b.ncol, "nrow": b.nrow,
        "f": cfg.f,
        "sigma1": b.sigma1.p.tolist(), "sigma2": b.sigma2.p.tolist(),
        "sigma3": b.sigma3.p.tolist(), "sigma4": b.sigma4.p.tolist(),
        "sigma5": b.sigma5.p.tolist(),
        "lam_fixed": [int(round(w * (1 << cfg.f))) for w in b.lam],
    }


def bundle_from_json(obj: dict) -> DecompositionBundle:
    scale = 1 << obj["f"]
    return DecompositionBundle(
        obj["m"], obj["n"], obj["t"], obj["ncol"], obj["nrow"],
        Permutation(obj["sigma1"]), Permutation(obj["sigma2"]),
        Permutation(obj["sigma3"]), Permutation(obj["sigma4"]),
        Permutation(obj["sigma5"]),
        np.array(obj["lam_fixed"], dtype=np.float64) / scale)


def save_bundle(path: str, b: DecompositionBundle,
                cfg: FixedPointConfig = DEFAULT_CFG) -> None:
    with open(path, "w") as fh:
        json.dump(bundle_to_json(b, cfg), fh)


def load_bundle(path: str) -> DecompositionBundle:
    with open(path) as fh:
        return bundle_from_json(json.load(fh))
