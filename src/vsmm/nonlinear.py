"""Nonlinear secure protocols: the reciprocal-square-root family, softmax
with its bounded quotient, and the SGD / simplified Adam optimizer steps.

rsqrt works in three stages on positive fixed-point x with highest set ring
bit k and f = FRAC_BITS: (1) a one-hot inner product gives 1/sqrt(2^(k-f))
via quarter-power weights and one Beaver squaring, which needs 4 | f; (2) x
is normalized to m = x / 2^(k-f) in [1, 2) with a second one-hot inner
product and a Beaver multiply; (3) the quadratic
(4.63887 (m/4)^2 - 5.77789 (m/4) + 3.14736) / 2 approximates 1/sqrt(m) and
the two results are multiplied. The one-hot takes 8 rounds; one round opens
the weight sum, x and the shift for both products of (1) and (2); m^2 and
the last product take 1 each: 11 rounds.

The Adam variant follows the simplified recurrence without bias correction
and uses 1/sqrt(v + eps^2) in place of 1/(sqrt(v) + eps). rsqrt_eps falls
back to 1/eps where v + eps^2 encodes to 0, with no round of its own: with
s the one-hot sum, 1 iff x != 0, it returns r + (1 - s) encode(1/eps) for
rsqrt's result r. That is the mux s r + (1 - s) encode(1/eps), as s r = r:
at s = 1 plainly, and at s = 0 the one-hot is 0, so the weight sum, the
shift and x are 0, each product is of an exact 0, and truncating shares
of 0 gives 0 (party 0's floor(a / 2^f) and party 1's -floor(-b / 2^f)
cancel for b = -a), so r = 0. So rsqrt_eps takes rsqrt's 11 rounds, and
adam_step 13: g^2, rsqrt_eps, then the product u r.

softmax_rows runs three stages on (N, c) logits y, c >= 2, in 3 +
ceil(log_6(c - 1)) + 1 + 6 + 1 + 1 + k rounds for k quotient steps: 17 at
c = 7 (k = 4) and 14 at c = 2 (k = 2). (1) The row max by CrypTen's pairwise
argmax (Knott et al., NeurIPS 2021): one msb layer over the c(c - 1)/2
differences y_i - y_j, an AND over each column's c - 1 comparisons, in one
round up to c = 7, that marks one winner per row, and x = y - sum_i win_i y_i
by one bit_mult. Its sign bits run over SIGN_BITS = 32 ring bits (3 rounds),
so every gap |y_i - y_j| must stay below 2^15 = 32,768; the clamp's x + 64
then lies in (-2^15 + 64, 64], inside the same bound.
(2) exp(x) ~ (1 + x/64)^64 with the base clamped at 0: msb(x + 64) runs
beside the six squarings of the unclamped base (x + 64)/64 (`parallel`, 6
rounds), then one bit_mult by NOT msb, which is exact ring arithmetic: a
clamped term is exactly 0 whatever wrapped value its squares hold. A row
sum s of terms in [0, 1], the max's about 1, lies in [1, c]. (3) The terms
t over s by `quotient_bounded`: with y0 = b(c + 1 - s), b = 8/q, q = c^2 +
6c + 1, P_0 = t y0 and e_0 = 1 - s y0, |e_0| <= (c - 1)^2/q, P_(k+1) =
P_k (1 + e_k) = t/s (1 - e_(k+1)) for e_(k+1) = e_k^2, and k steps bring e_k
below 2^-16. One round opens t and s, whose products give P_0 and e_0; each
step opens (P_k, e_k) and multiplies the openings: 1 + k rounds. The chain
carries GUARD_BITS more fractional bits, dropped once at the end, so its
truncation errors stay below one final ulp; at c = 7 its products stay
below 2^40, a truncation wrap chance below 2^-23 an entry.
"""

from __future__ import annotations

import math

import numpy as np

from .binary import SIGN_BITS, bit_mult, highest_one_hot, msb
from .protocols import and_bits, beaver_mult, beaver_square, open_masked
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


def rsqrt_pow2(ctx: PartyContext, y: np.ndarray, x: np.ndarray):
    """From arithmetic one-hot shares y over bit positions and shares of x,
    shares of 1/sqrt(2^(k-f)) and of x / 2^(k-f), where k is the marked
    position (both 0 if y is all-zero), in one round.

    The reversed vector is grouped in strides of four and combined with the
    coefficients (1, 2^(1/4), sqrt(2), 2^(3/4)); folding the coefficients into
    the group weights keeps the whole combination w local, and its Beaver
    square with truncation is the first result. The shift encode(2^(f-k)) is
    local too. w, x and the shift are opened together, so the square and
    the product of x and the shift send nothing more.
    """
    y = np.asarray(y, dtype=np.uint64)
    w = (y * POW2_WEIGHTS).sum(axis=-1, dtype=np.uint64)
    scale = (y * POW2_SHIFTS).sum(axis=-1, dtype=np.uint64)
    w, x, scale = open_masked(ctx, w, x, scale)
    return (beaver_square(ctx, w, truncate=True),
            beaver_mult(ctx, x, scale, truncate=True))


def _rsqrt_core(ctx: PartyContext, x: np.ndarray):
    """Shares of 1/sqrt(x) plus the one-hot used (for the zero indicator)."""
    x = np.asarray(x, dtype=np.uint64)
    y = highest_one_hot(ctx, x)
    v, norm = rsqrt_pow2(ctx, y, x)  # m = x / 2^(k-f) in [1, 2)
    m2 = beaver_square(ctx, norm, truncate=True)
    z = scale_public(m2, QUAD_A, ctx) + scale_public(norm, QUAD_B, ctx)
    z = _add_public(z, QUAD_C, ctx)
    return beaver_mult(ctx, z, v, truncate=True), y


def rsqrt(ctx: PartyContext, x: np.ndarray) -> np.ndarray:
    """Shares of 1/sqrt(x) for reconstructed x > 0 (undefined for x <= 0)."""
    return _rsqrt_core(ctx, x)[0]


def rsqrt_eps(ctx: PartyContext, v: np.ndarray, eps: float) -> np.ndarray:
    """Shares of 1/sqrt(v + eps^2), falling back to the public constant 1/eps
    when v + eps^2 encodes to zero: r + (1 - s) encode(1/eps), s the one-hot
    sum, which is local (module docstring)."""
    x = _add_public(v, eps * eps, ctx)
    r, y = _rsqrt_core(ctx, x)
    s = y.sum(axis=-1, dtype=np.uint64)
    return _add_public(r - s * encode_fixed(np.float64(1.0 / eps))[0],
                       1.0 / eps, ctx)


GUARD_BITS = 4  # fractional bits the quotient chain carries beyond f


def quotient_bounded(ctx: PartyContext, t: np.ndarray, s: np.ndarray,
                     c: int) -> np.ndarray:
    """Shares of t / s, broadcasting, for s in the public range [1, c],
    c >= 2, in 1 + k rounds (module docstring)."""
    q, f, wide = c * c + 6 * c + 1, FRAC_BITS, FRAC_BITS + GUARD_BITS
    steps = math.ceil(math.log2(f / math.log2(q / (c - 1) ** 2)))
    t_open, s_open = open_masked(ctx, t, s)

    def times_y0(v, v_open):  # b((c + 1)v - v s) from 2f to `wide` bits
        v = np.uint64((c + 1) << f) * v - beaver_mult(ctx, v_open, s_open)
        return scale_public(truncate_share(v, ctx.party, f - GUARD_BITS),
                            8 / q, ctx)

    e = _add_public(0 - times_y0(s, s_open), 2.0 ** GUARD_BITS, ctx)
    p = times_y0(t, t_open)
    for step in range(steps):
        p_open, e_open = open_masked(ctx, p, e)
        p = p + truncate_share(beaver_mult(ctx, p_open, e_open), ctx.party,
                               wide)
        if step + 1 < steps:
            e = truncate_share(beaver_square(ctx, e_open), ctx.party, wide)
    return truncate_share(p, ctx.party, GUARD_BITS)


AND_FANIN = 6  # one round up to c = 7: 2^6 - 6 - 1 = 57 products a bit


def _and_all(ctx: PartyContext, bits: np.ndarray) -> np.ndarray:
    """The XOR-shared AND over the last axis of k 0/1 bits, AND_FANIN bits
    to a monomial each round: ceil(log_6 k) rounds, 1 for 1 < k <= 6. The
    dealt products grow as 2^fan-in, so wider rows take more rounds."""
    while bits.shape[-1] > 1:
        k = bits.shape[-1]
        groups = tuple(tuple(range(i, min(i + AND_FANIN, k)))
                       for i in range(0, k, AND_FANIN))
        z = and_bits(ctx, bits.reshape(-1, k).T, 0, groups)
        bits = z.T.reshape(bits.shape[:-1] + (len(groups),))
    return bits[..., 0]


def _row_winners(ctx: PartyContext, y: np.ndarray) -> np.ndarray:
    """XOR-shared one-hot of each row's max, ties to the lowest index: with
    s_ij = [y_i < y_j], column i wins iff s_ji for all j < i and not s_ij for
    all j > i."""
    c = y.shape[1]
    i, j = np.triu_indices(c, 1)
    pair = np.zeros((c, c), dtype=np.intp)
    pair[i, j] = pair[j, i] = np.arange(i.size)
    col = np.arange(c)[:, None]
    rival = np.arange(c - 1) + (np.arange(c - 1) >= col)  # (c, c - 1)
    beats = msb(ctx, y[:, i] - y[:, j], SIGN_BITS)[:, pair[col, rival]]
    beats ^= np.uint64(1 - ctx.party) * (rival > col)  # not s_ij for j > i
    return _and_all(ctx, beats)


EXP_SQUARINGS = 6  # exp(x) ~ (1 + x/2^r)^(2^r) with r = 6


def softmax_rows(ctx: PartyContext, y: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a shared (N, c) logit matrix (module docstring)."""
    y = np.asarray(y, dtype=np.uint64)
    if y.shape[1] == 1:  # the softmax of one logit is 1
        return _add_public(np.zeros_like(y), 1.0, ctx)
    top, _ = bit_mult(ctx, _row_winners(ctx, y), y)
    x = _add_public(y - top.sum(axis=1, dtype=np.uint64)[:, None],
                    2.0 ** EXP_SQUARINGS, ctx)  # x + 64

    def powers():
        e = truncate_share(x, ctx.party, EXP_SQUARINGS)  # 1 + x/64
        for _ in range(EXP_SQUARINGS):
            e = beaver_square(ctx, e, truncate=True)
        return e

    below, e = ctx.parallel(lambda: msb(ctx, x, SIGN_BITS), powers)
    e, _ = bit_mult(ctx, below ^ np.uint64(1 - ctx.party), e)  # 0 below -64
    return quotient_bounded(ctx, e, e.sum(axis=1, keepdims=True,
                                          dtype=np.uint64), y.shape[1])


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
