"""Secure sparse matrix multiplication from the factor decomposition.

The graph owner (party 0) holds the DecompositionBundle; the other party only
learns (m, n, t, d), so transcript sizes are independent of the topology.
Both parties walk the step list of `decompose.factor_steps` (party 1's copy
is built from SmmDims alone); `smm` runs it in order and `smm_transpose` runs
`[s.T for s in reversed(steps)]`. Each step maps to one secure operation:
Perm to an oblivious permutation, Select to an oblivious
selection-multiplication, Weight to a private multiplication, and Diff,
Prefix and Resize to local maps on the shares. Every secure step maps an
L-row share to an L-row share. Every factor is linear over the ring, so with
lambda encoded in fixed point the walk is one exact ring map, and each party
truncates its share once, at the end.

The walk is column-major, and `_run_steps` is the one place that
transposes: it turns each party's (L, d) share of X into C-contiguous (d, L)
rows, one per column instance, on entry, and the result back on exit. Below
it, the step maps, the protocols and the dealer's tuples all take and
return (d, L) rows: a Perm gathers into C-contiguous rows
(`decompose.gather_rows`), Prefix writes reversed rows, and the ring
messages go in that column-major order, with the bits a row-major order
would take.

One call is 2 rounds and 3 messages, whatever the factors. Party 0's eight
corrections (five permutations, two selector masks and lambda - a) depend
only on its factors and tuples, so it sends them all first, in one frame.
Party 1 sends x - U for the first permutation at once; its later masked
shares depend only on its tuples and party 0's corrections, so they follow
one round later, in one frame. Party 0's clock advances by 2, party 1's by
1 from equal clocks, 2 if party 0 starts a round ahead and 0 if party 1
does: the run gains 2 rounds, or 1 when party 1 leads. The payloads are
those of the eight one-round protocols, in another order.

The online bits of a call are `smm_online_bits`. The permutations, the
selections and party 1's Weight message grow with the width d of X; party
0's Weight message, lambda - a, is one ring element per term, t in all,
whatever d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import (DecompositionBundle, Local, Perm, Select, Weight,
                        factor_steps)
from .protocols import (op, op_correction, osm, osm_correction, priv_mult,
                        priv_mult_correction)
from .ring import FRAC_BITS, RING_BITS, encode_fixed, truncate_share
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


_SECTIONS = {Perm: "op", Select: "osm", Weight: "mult"}


def _correction(ctx: PartyContext, s, d: int) -> np.ndarray:
    """Party 0's round-1 message for a secure step. Returns the (d, L)
    constant its output share adds."""
    with ctx.section(_SECTIONS[type(s)]):
        if isinstance(s, Perm):
            return op_correction(ctx, s.sigma, (d, s.k))
        if isinstance(s, Weight):
            return priv_mult_correction(ctx, s.lam, (d, len(s.lam)))
        # one OSM instance per cell; the selector bits are Select on ones
        return osm_correction(ctx, s.map(np.ones((d, s.side), np.uint64)))


def _run_steps_party0(ctx: PartyContext, steps: list,
                      y: np.ndarray) -> np.ndarray:
    """Party 0's (d, L) share in two passes, 2 rounds in all. Each secure
    step's output share is step.map(y0 + m) + c for party 1's masked share
    m and a constant c, and every step is linear, so y0 splits as r + K.

    Pass 1 sends every correction and folds the constants, K <-
    step.map(K) + c (K <- step.map(K) for a Local). Pass 2 receives
    party 1's masked shares in step order and runs r <- step.map(r + m).
    The share is r + K.
    """
    steps = [Weight(encode_fixed(s.lam)) if isinstance(s, Weight) else s
             for s in steps]  # lambda in the ring
    k = np.zeros_like(y)
    with ctx.frame():
        for s in steps:
            k = s.map(k)
            if not isinstance(s, Local):
                k += _correction(ctx, s, len(y))
    r = y  # the entry transpose's own copy, so it is updated in place
    for s in steps:
        if not isinstance(s, Local):
            with ctx.section(_SECTIONS[type(s)]):
                r += ctx.recv_ring(r.shape)
        r = s.map(r)
    r += k
    return r


def _run_steps(ctx: PartyContext, steps: list, x: np.ndarray) -> np.ndarray:
    """Shares of the step list applied to this party's share of X, as (d, L)
    rows (module docstring). Party 1 runs the one-round protocols step by
    step; its masked shares after the first depend only on its tuples and
    party 0's corrections. Both parties truncate once, at the end."""
    if len(x) != steps[0].k:
        raise ValueError(f"X has {len(x)} rows, not {steps[0].k}")
    y = np.asarray(x, dtype=np.uint64).reshape(steps[0].k, -1).T.copy()
    if ctx.party == 0:
        y = _run_steps_party0(ctx, steps, y)
    else:
        y = op(ctx, None, y)  # every step list starts with a Perm
        with ctx.frame():
            for s in steps[1:]:
                if isinstance(s, Perm):
                    y = op(ctx, None, y)
                elif isinstance(s, Select):
                    y = osm(ctx, None, y)
                elif isinstance(s, Weight):
                    y = priv_mult(ctx, None, y)
                else:  # Local: each party maps its own share
                    y = s.map(y)
    return np.ascontiguousarray(truncate_share(y, ctx.party, FRAC_BITS).T)


def smm(ctx: PartyContext, bundle: DecompositionBundle | None, dims: SmmDims,
        x: np.ndarray) -> np.ndarray:
    """Shares of A @ X for additively shared fixed-point X of shape (n, d).
    Party 1's plaintext X is shared as (0, X)."""
    steps = factor_steps(dims, bundle if ctx.party == 0 else None)
    return _run_steps(ctx, steps, x)


def smm_transpose(ctx: PartyContext, bundle: DecompositionBundle | None,
                  dims: SmmDims, g: np.ndarray) -> np.ndarray:
    """Shares of A.T @ G for G of shape (m, d), reusing the forward bundle:
    the transposed step list needs no re-decomposition and consumes tapes
    of exactly the same shapes as the forward call."""
    steps = factor_steps(dims, bundle if ctx.party == 0 else None)
    return _run_steps(ctx, [s.T for s in reversed(steps)], g)
