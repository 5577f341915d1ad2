"""Binary-share machinery: the sign bit by a carry-only GMW tree, bit
decomposition by a Sklansky parallel-prefix adder, ReLU, and highest-set-bit
extraction.

x = a + b mod 2^64, party 0 holding a and party 1 holding b, so the sign of x
is a63 ^ b63 ^ c63, c63 being the carry into bit 63. msb computes only that
carry: gi = ai & bi for bits 0..62 (63 AND gates; pi = ai ^ bi is local), then
six combine levels G = G_hi ^ (P_hi & G_lo), P = P_hi & P_lo. The group
holding bit 0 needs no P, as the carry into bit 0 is 0, so the levels take
61 + 31 + 15 + 7 + 3 + 1 gates: 181 per element in 7 rounds. A 64x64 word
transpose bit-slices the shares, so each level is one and_bits call of
exactly rows x n gates.

bit_decompose needs all 64 sum bits (the reciprocal and rsqrt read them
through highest_one_hot), so it keeps the full adder: 448 gates in 7 rounds on
packed words, bit i of an element's word being bit i of its value. At level
l (h = 2^l) the upper half U of each 2h-bit block takes the signals of the top
bit of its lower half; the smear shifts that bit up one and multiplies by
2^h - 1, copying it over U with no carries, so it is local and XOR-linear.
Pair packing puts a level's two products in one AND of 64 gates per element:
p_i & g_j on U and p_i & p_j on the lower half, with p_i shifted down by h.
"""

from __future__ import annotations

import numpy as np

from .protocols import and_bits, beaver_mult
from .ring import RING_BITS
from .runtime import PartyContext

_ONE = np.uint64(1)
# U of level l: the positions with bit l set, the upper half of each block
_UPPER = [np.uint64(sum(1 << i for i in range(RING_BITS) if i >> level & 1))
          for level in range(6)]
_SHIFTS = np.arange(RING_BITS, dtype=np.uint64)[:, None]


def bit_decompose(ctx: PartyContext, x: np.ndarray) -> np.ndarray:
    """XOR-shared bits of the reconstructed value, packed: one uint64 word
    per element, bit i of the word being bit i of the value."""
    own = np.asarray(x, dtype=np.uint64)
    zeros = np.zeros_like(own)
    g = and_bits(ctx, *((own, zeros) if ctx.party == 0 else (zeros, own)))
    p = own  # a ^ b == own bits for either party
    for level, upper in enumerate(_UPPER):
        h = np.uint64(1 << level)
        top, fill = (upper >> _ONE) & ~upper, (_ONE << h) - _ONE
        smear_g = ((g & top) << _ONE) * fill
        smear_p = ((p & top) << _ONE) * fill
        pu = p & upper
        z = and_bits(ctx, pu | (pu >> h), smear_g | (smear_p >> h))
        g ^= z & upper
        p = (p & ~upper) | ((z << h) & upper)
    return own ^ (g << _ONE)  # sum bit i = p_i xor carry_{i-1}


def _bit_rows(x: np.ndarray) -> np.ndarray:
    """Bit-sliced rows of the n words x: row i holds bit i of every element,
    packed 64 elements to a word for the n // 64 whole words, then one bit
    per entry for the n % 64 tail elements. Six masked swaps transpose each
    64x64 block, the swap at s = 2^l exchanging bit l of the row and column
    indices."""
    whole = x.size // 64
    blocks = x[:64 * whole].reshape(whole, RING_BITS).copy()
    for level, upper in enumerate(_UPPER):
        s = np.uint64(1 << level)
        pairs = blocks.reshape(whole, 32 >> level, 2, 1 << level)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]
        t = ((lo >> s) ^ hi) & ~upper
        lo ^= t << s
        hi ^= t
    return np.concatenate([blocks.T, x[64 * whole:] >> _SHIFTS & _ONE], axis=1)


def _and_rows(ctx: PartyContext, xy: np.ndarray, whole: int) -> np.ndarray:
    """and_bits of xy[0] and xy[1], each r _bit_rows rows of n elements: r*n
    gates, the whole words first, then each row's tail bits back to back."""
    _, r, cols = xy.shape
    tail = cols - whole
    bits = np.packbits(xy[:, :, whole:].astype(np.uint8).reshape(2, -1),
                       axis=1, bitorder="little")
    buf = np.zeros((2, 8 * -(-r * tail // 64)), dtype=np.uint8)
    buf[:, :bits.shape[1]] = bits
    gx, gy = np.concatenate([xy[:, :, :whole].reshape(2, -1),
                             buf.view("<u8")], axis=1)
    z = and_bits(ctx, gx, gy, count=r * (64 * whole + tail))
    bits = np.unpackbits(z[r * whole:].view(np.uint8), bitorder="little")
    return np.concatenate([z[:r * whole].reshape(r, whole),
                           bits[:r * tail].reshape(r, tail)], axis=1)


def msb(ctx: PartyContext, x: np.ndarray) -> np.ndarray:
    """XOR-shared sign bit of x: a63 ^ b63 ^ the carry into bit 63."""
    x = np.asarray(x, dtype=np.uint64)
    whole = x.size // 64
    own = _bit_rows(x.ravel())
    cols = own.shape[1]
    xy = np.zeros((2, RING_BITS - 1, cols), dtype=np.uint64)
    xy[ctx.party] = own[:-1]  # party 0 inputs (a, 0), party 1 (0, b)
    g = _and_rows(ctx, xy, whole)
    p = own[:-1]  # p[0] is never read: the bit-0 group needs no P
    while len(g) > 1:  # pair k joins groups 2k (low) and 2k + 1 (high)
        m = len(g) // 2
        p_hi = p[1:2 * m:2]
        xy = np.concatenate([p_hi, p_hi[1:], g[0:2 * m:2], p[2:2 * m:2]])
        z = _and_rows(ctx, xy.reshape(2, 2 * m - 1, cols), whole)
        g = np.concatenate([g[1:2 * m:2] ^ z[:m], g[2 * m:]])
        p = np.concatenate([p[:1], z[m:], p[2 * m:]])
    sign = own[-1] ^ g[0]
    bits = np.unpackbits(sign[:whole].view(np.uint8), bitorder="little")
    return np.concatenate([bits, sign[whole:]]).reshape(x.shape)


def b2a(ctx: PartyContext, bits: np.ndarray) -> np.ndarray:
    """Convert XOR-shared bits to arithmetic shares of the same 0/1 values.

    b0 xor b1 = b0 + b1 - 2*b0*b1; the cross product is one Beaver multiply
    of the two parties' locally-held bits.
    """
    own = np.asarray(bits, dtype=np.uint64)
    zeros = np.zeros_like(own)
    x = own if ctx.party == 0 else zeros
    y = zeros if ctx.party == 0 else own
    prod = beaver_mult(ctx, x, y)
    return own - np.uint64(2) * prod


def relu(ctx: PartyContext, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shares of max(0, x) plus the arithmetic 0/1 derivative mask."""
    x = np.asarray(x, dtype=np.uint64)
    sign = msb(ctx, x)
    if ctx.party == 0:
        sign = sign ^ _ONE
    mask = b2a(ctx, sign)
    return beaver_mult(ctx, mask, x), mask


# prefix_or_high's compress steps (runs, r, runs << r) per level: the runs at
# the positions with bits l and l+1 clear stay, those r = 2^l above move down
_SWAPS = [[(m, np.uint64(1 << l), m << np.uint64(1 << l))
           for l in range(level, 5) for m in [~(_UPPER[l] | _UPPER[l + 1])]]
          for level in range(6)]


def prefix_or_high(ctx: PartyContext, v: np.ndarray) -> np.ndarray:
    """Packed XOR-shared words whose bit i is the OR of bits i..63 of v.

    Sklansky from the top: the lower half of every block takes the bottom bit
    of its upper half. The 32 lower-half bits of each operand are compressed
    into a half word, so each level is 32 gates per element.
    """
    v = np.asarray(v, dtype=np.uint64)
    n = v.size
    for level, upper in enumerate(_UPPER):
        h = np.uint64(1 << level)
        s = ((v & (upper & ~(upper << _ONE))) >> h) * ((_ONE << h) - _ONE)
        c = np.stack([v.ravel(), s.ravel()]) & ~upper
        for runs, r, high in _SWAPS[level]:
            c = (c & runs) | ((c >> r) & high)
        halves = np.zeros((2, n + n % 2), dtype="<u4")
        halves[:, :n] = c
        z = and_bits(ctx, *halves.view("<u8"), count=32 * n)
        z = z.view("<u4")[:n].astype(np.uint64)
        for runs, r, high in reversed(_SWAPS[level]):
            z = (z & runs) | ((z & high) << r)
        v = v ^ s ^ z.reshape(v.shape)  # OR(x, y) = x ^ y ^ (x & y)
    return v


def highest_one_hot(ctx: PartyContext, x: np.ndarray) -> np.ndarray:
    """Arithmetic shares of the (..., 64) one-hot marking the highest set bit
    of x; the all-zero vector iff x = 0."""
    por = prefix_or_high(ctx, bit_decompose(ctx, x))
    onehot = (por ^ (por >> _ONE)).astype("<u8")[..., None].view(np.uint8)
    return b2a(ctx, np.unpackbits(onehot, axis=-1, bitorder="little"))
