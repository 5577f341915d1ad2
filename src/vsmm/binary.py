"""Binary-share machinery: bit decomposition via a Sklansky parallel-prefix
adder over GMW AND gates, MSB/ReLU, and highest-set-bit extraction.

XOR-shared bits are packed one uint64 word per element, bit i of the word
being bit i of the value. x = s0 + s1 mod 2^64 is decomposed by securely
adding the words (s0, 0) and (0, s1) in 1 + log2(64) = 7 AND rounds. At level
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


def msb(ctx: PartyContext, x: np.ndarray) -> np.ndarray:
    """XOR-shared sign bit of x."""
    return bit_decompose(ctx, x) >> np.uint64(RING_BITS - 1)


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
