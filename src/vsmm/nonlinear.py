"""Nonlinear secure protocols: the reciprocal-square-root family, reciprocal,
softmax, and the SGD / simplified Adam optimizer steps.

rsqrt works in three stages on positive fixed-point x with highest set ring
bit k and f = FRAC_BITS: (1) a one-hot inner product gives 1/sqrt(2^(k-f))
via quarter-power weights and one Beaver squaring, which needs 4 | f; (2) x
is normalized to m = x / 2^(k-f) in [1, 2) with a second one-hot inner
product and a Beaver multiply; (3) the quadratic
(4.63887 (m/4)^2 - 5.77789 (m/4) + 3.14736) / 2 approximates 1/sqrt(m) and
the two results are multiplied. The Adam variant follows the
simplified recurrence without bias correction and uses 1/sqrt(v + eps^2) in
place of 1/(sqrt(v) + eps).
"""

from __future__ import annotations

import numpy as np

from .binary import highest_one_hot, relu
from .protocols import beaver_mult, beaver_square, mux_shared_bit
from .ring import FRAC_BITS, MAX_ABS, RING_BITS, encode_fixed, truncate_share
from .runtime import PartyContext

QUAD_A = 4.63887 / 32   # coefficients of the 1/sqrt(m) quadratic on [1, 2),
QUAD_B = -5.77789 / 8   # rewritten from the (m/4)-argument form
QUAD_C = 3.14736 / 2


def quad_poly(m):
    """The clear quadratic; quad_poly(1) = 0.99641 by construction."""
    return (4.63887 * (m / 4) ** 2 - 5.77789 * (m / 4) + 3.14736) / 2


# Per-bit-position constants, indexed by highest set bit k of the ring value:
# quarter-power weights encode(2^((f-k)/4)) whose Beaver square gives
# 1/sqrt(2^(k-f)), and normalization shifts encode(2^(f-k)).
_KS = np.arange(RING_BITS, dtype=np.float64)
POW2_WEIGHTS = encode_fixed(
    np.minimum(2.0 ** ((FRAC_BITS - _KS) / 4), MAX_ABS / 2))
POW2_SHIFTS = encode_fixed(
    np.where(_KS < 2 * FRAC_BITS, 2.0 ** (FRAC_BITS - _KS), 0.0))


def scale_public(share: np.ndarray, c: float, ctx: PartyContext) -> np.ndarray:
    """Local multiplication by a public fixed-point constant, then truncation."""
    e = encode_fixed(np.float64(c))[0]
    return truncate_share(np.asarray(share, dtype=np.uint64) * e,
                          ctx.party, FRAC_BITS)


def _add_public(share: np.ndarray, c: float, ctx: PartyContext) -> np.ndarray:
    out = np.asarray(share, dtype=np.uint64).copy()
    if ctx.party == 0:
        out += encode_fixed(np.float64(c))[0]
    return out


def rsqrt_pow2(ctx: PartyContext, y: np.ndarray) -> np.ndarray:
    """From arithmetic one-hot shares y over bit positions, shares of
    1/sqrt(2^(k-f)) where k is the marked position (0 if y is all-zero).

    The reversed vector is grouped in strides of four and combined with the
    coefficients (1, 2^(1/4), sqrt(2), 2^(3/4)); folding the coefficients into
    the group weights keeps the whole combination local, and one Beaver
    squaring with truncation produces the result.
    """
    y = np.asarray(y, dtype=np.uint64)
    w = (y * POW2_WEIGHTS).sum(axis=-1, dtype=np.uint64)
    return beaver_square(ctx, w, truncate=True)


def _rsqrt_core(ctx: PartyContext, x: np.ndarray):
    """Shares of 1/sqrt(x) plus the one-hot used (for the zero indicator)."""
    x = np.asarray(x, dtype=np.uint64)
    y = highest_one_hot(ctx, x)
    v = rsqrt_pow2(ctx, y)
    scale = (y * POW2_SHIFTS).sum(axis=-1, dtype=np.uint64)
    norm = beaver_mult(ctx, x, scale, truncate=True)  # m = x / 2^(k-f) in [1,2)
    m2 = beaver_square(ctx, norm, truncate=True)
    z = scale_public(m2, QUAD_A, ctx) + scale_public(norm, QUAD_B, ctx)
    z = _add_public(z, QUAD_C, ctx)
    return beaver_mult(ctx, z, v, truncate=True), y


def rsqrt(ctx: PartyContext, x: np.ndarray) -> np.ndarray:
    """Shares of 1/sqrt(x) for reconstructed x > 0 (undefined for x <= 0)."""
    return _rsqrt_core(ctx, x)[0]


def rsqrt_eps(ctx: PartyContext, v: np.ndarray, eps: float) -> np.ndarray:
    """Shares of 1/sqrt(v + eps^2), falling back to the public constant 1/eps
    when v + eps^2 encodes to zero (the indicator is the one-hot sum)."""
    x = _add_public(v, eps * eps, ctx)
    r, y = _rsqrt_core(ctx, x)
    s = y.sum(axis=-1, dtype=np.uint64)
    fallback = encode_fixed(np.float64(1.0 / eps))[0]
    return mux_shared_bit(ctx, s, r, fallback)


def reciprocal(ctx: PartyContext, x: np.ndarray) -> np.ndarray:
    """Shares of 1/x for x > 0: the Beaver square of rsqrt(x), tightened by
    one Newton step r(2 - x r)."""
    x = np.asarray(x, dtype=np.uint64)
    r = beaver_square(ctx, rsqrt(ctx, x), truncate=True)
    xr = beaver_mult(ctx, x, r, truncate=True)
    e = _add_public(np.zeros_like(xr) - xr, 2.0, ctx)
    return beaver_mult(ctx, r, e, truncate=True)


def _row_max(ctx: PartyContext, y: np.ndarray) -> np.ndarray:
    """Shared per-row max of an (N, c) tensor via max(a,b) = b + relu(a-b)."""
    cols = [y[:, i] for i in range(y.shape[1])]
    while len(cols) > 1:
        half = len(cols) // 2
        a = np.stack(cols[:half], axis=1)
        b = np.stack(cols[half:2 * half], axis=1)
        r, _ = relu(ctx, a - b)
        merged = b + r
        cols = [merged[:, i] for i in range(half)] + cols[2 * half:]
    return cols[0]


EXP_SQUARINGS = 6  # exp(x) ~ (1 + x/2^r)^(2^r) with r = 6


def softmax_rows(ctx: PartyContext, y: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a shared (N, c) logit matrix."""
    y = np.asarray(y, dtype=np.uint64)
    n, c = y.shape
    if c == 1:
        out = np.zeros_like(y)
        if ctx.party == 0:
            out += encode_fixed(np.ones((n, 1)))
        return out
    mx = _row_max(ctx, y)
    x = y - mx[:, None]
    e = _add_public(truncate_share(x, ctx.party, EXP_SQUARINGS), 1.0, ctx)
    for _ in range(EXP_SQUARINGS):
        e = beaver_square(ctx, e, truncate=True)
    total = e.sum(axis=1, dtype=np.uint64)
    inv = reciprocal(ctx, total)
    return beaver_mult(ctx, e, inv[:, None], truncate=True)  # opens n, not n*c


def sgd_step(ctx: PartyContext, w: np.ndarray, grad: np.ndarray,
             lr: float) -> np.ndarray:
    """Local update W - lr * grad (public learning rate)."""
    return np.asarray(w, dtype=np.uint64) - scale_public(grad, lr, ctx)


ADAM_BETA1 = ADAM_BETA2 = 0.9  # beta2 = 0.9 keeps v above the fixed-point floor
ADAM_EPS = 0.01


def adam_step(ctx: PartyContext, w: np.ndarray, grad: np.ndarray,
              u: np.ndarray, v: np.ndarray, lr: float):
    """One simplified Adam update (no bias correction) of W and its shared
    moments, returning (W, u, v): u = b1 u + (1-b1) g; v = b2 v + (1-b2) g^2;
    W -= lr * u / sqrt(v + eps^2).
    """
    g = np.asarray(grad, dtype=np.uint64)
    u = scale_public(u, ADAM_BETA1, ctx) + scale_public(g, 1 - ADAM_BETA1, ctx)
    g2 = beaver_square(ctx, g, truncate=True)
    v = scale_public(v, ADAM_BETA2, ctx) + scale_public(g2, 1 - ADAM_BETA2, ctx)
    direction = beaver_mult(ctx, u, rsqrt_eps(ctx, v, ADAM_EPS), truncate=True)
    return np.asarray(w, dtype=np.uint64) - scale_public(direction, lr, ctx), u, v
