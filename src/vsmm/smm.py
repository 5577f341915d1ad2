"""Secure sparse matrix multiplication from the factor decomposition.

The graph owner (party 0) holds the DecompositionBundle; the other party only
learns (m, n, t, d), so transcript sizes are independent of the topology.
Both parties walk the step list of `decompose.factor_steps` (party 1's copy
is built from SmmDims alone); `smm` runs it in order and `smm_transpose` runs
`[s.T for s in reversed(steps)]`. Each step maps to one secure operation:
Perm to an oblivious permutation, Select to an oblivious
selection-multiplication on the n- or m-length side plus a resize, Weight to
a private multiplication, and Diff / Prefix to local maps on the shares.
One call is 8 rounds: five permutations, two selection batches and one
weight multiplication. Fixed-point inputs truncate exactly once, at Weight.

The online bits of a call are `smm_online_bits`. The permutations, the
selections and party 1's Weight message grow with the width d of X; party
0's Weight message, lambda - a, is one ring element per term, t in all,
whatever d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import (DecompositionBundle, Perm, Select, Weight,
                        factor_steps, resize)
from .protocols import op, osm, priv_mult
from .ring import RING_BITS, encode_fixed
from .runtime import PartyContext, index_bits


@dataclass(frozen=True)
class SmmDims:
    """Public shape of one smm call; all party 1 ever learns about A."""

    m: int
    n: int
    t: int


def smm_online_bits(m: int, n: int, t: int, d: int) -> int:
    """Online payload of one smm call in bits: the per-column terms times
    d, plus Weight's per-row lambda - a, t ring elements."""
    return ((4 * t + 2 * m + 2 * n) * RING_BITS
            + 3 * t * index_bits(t) + m * index_bits(m) + n * index_bits(n)
            + m + n) * d + t * RING_BITS


def smm_offline_bits(m: int, n: int, t: int, d: int) -> int:
    """Dealer correction bits for one smm call."""
    return 2 * (2 * t + m + n) * d * RING_BITS


def beaver_dense_online_bits(m: int, n: int, d: int) -> int:
    """Online payload of the dense Beaver baseline for an m*n by n*d product:
    both parties open masked copies of both operands."""
    return 2 * (m * n + n * d) * RING_BITS


def _run_steps(ctx: PartyContext, steps: list, x: np.ndarray,
               fixed_point: bool) -> np.ndarray:
    """Shares of the step list applied to this party's share of X."""
    y = np.asarray(x, dtype=np.uint64).reshape(steps[0].k, -1)
    d = y.shape[1]
    for s in steps:
        if isinstance(s, Perm):
            y = op(ctx, s.sigma, y, s.k, d)
        elif isinstance(s, Select):
            # one OSM instance per cell of the n- or m-length side
            sel = None if s.keep is None else np.broadcast_to(
                (np.arange(s.side) < s.keep).astype(np.uint64)[:, None],
                (s.side, d))
            if s.widen:
                y = resize(osm(ctx, sel, y), s.t)
            else:
                y = osm(ctx, sel, resize(y, s.side))
        elif isinstance(s, Weight):
            lam = s.lam
            if lam is not None:
                lam = (encode_fixed(lam) if fixed_point else
                       np.asarray(np.round(lam), dtype=np.int64).astype(np.uint64))
            y = priv_mult(ctx, lam, y, truncate=fixed_point)
        else:  # Local: each party maps its own share
            y = s.apply(y)
    return y


def smm(ctx: PartyContext, bundle: DecompositionBundle | None, dims: SmmDims,
        x: np.ndarray, fixed_point: bool = False) -> np.ndarray:
    """Shares of A @ X for additively shared X of shape (n, d). Party 1's
    plaintext X is shared as (0, X)."""
    steps = factor_steps(dims, bundle if ctx.party == 0 else None)
    return _run_steps(ctx, steps, x, fixed_point)


def smm_transpose(ctx: PartyContext, bundle: DecompositionBundle | None,
                  dims: SmmDims, g: np.ndarray,
                  fixed_point: bool = False) -> np.ndarray:
    """Shares of A.T @ G for G of shape (m, d), reusing the forward bundle:
    the transposed step list needs no re-decomposition and consumes tapes
    of exactly the same shapes as the forward call."""
    steps = factor_steps(dims, bundle if ctx.party == 0 else None)
    return _run_steps(ctx, [s.T for s in reversed(steps)], g, fixed_point)
