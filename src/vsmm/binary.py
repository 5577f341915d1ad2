"""Binary-share machinery on one bit-sliced layout: the sign bit and bit
decomposition by one Sklansky parallel-prefix adder, ReLU, and highest-set-bit
extraction. x = a + b mod 2^64, party 0 holding a and party 1 holding b. A
64x64 word transpose bit-slices the shares into rows, row i holding bit i of
every element, so each level of a prefix tree is one and_bits call on its
gates' rows: and_bits takes the rows as they are, packed words then one bit
per tail element, and returns its result in the same layout.

The adder ANDs g_i = a_i & b_i for bits 0..62 (63 gates; p_i = a_i ^ b_i is
local), then runs six levels. Level l pairs each bit i of the upper half of a
2^(l+1)-bit block with j, the top bit of the lower half: a G gate sets
g_i ^= p_i & g_j and a P gate p_i = p_i & p_j. After the last level g_i is the
carry out of bit i. _levels derives each level's gates by walking back from
the carries a caller reads, so no gate runs that no carry needs.
bit_decompose reads all 63 carries: 63 + 61 + 60 + 58 + 54 + 46 + 31 = 373
gates in 7 rounds, skipping the bit-0 block's P gates (the carry into bit 0
is 0) and bit 63's G and P. msb runs the adder pruned to the carry into bit
63, as the sign of x is a63 ^ b63 ^ c63: 63 + 61 + 31 + 15 + 7 + 3 + 1 = 181
gates in 7 rounds.
prefix_or_high runs the tree from the top, ORing the bottom bit of the upper
half into the 32 lower-half rows: 6 * 32 = 192 gates in 6 rounds.

b2a turns XOR-shared bits into additive shares with dealer daBits, a random
bit r dealt both XOR-shared and as [r]: each party sends b_i ^ r_i, and
[b] = c + (1 - 2c)[r] for the opened c = b ^ r. That is 2 bits per element in
1 round. relu opens c for its 0/1 mask and x - u in the same round, the
masked daBit also dealing [u] and [r*u], so b*x = c*x + (1 - 2c)(r*(x - u) +
r*u) is local: 724 + 2 + 128 = 854 bits per element in 8 rounds.
"""

from __future__ import annotations

import numpy as np

from .protocols import and_bits
from .ring import RING_BITS
from .runtime import PartyContext

_ONE = np.uint64(1)
_TWO = np.uint64(2)
# level l's half-block width h = 2^l: a (block, half, bit) view of 64 rows or
# bits pairs each half of every 2h-bit block with the other
_HALVES = [1 << level for level in range(6)]
# U of level l: the positions with bit l set, the upper half of each block
_UPPER = [np.uint64(sum(1 << i for i in range(64) if i & h)) for h in _HALVES]
_SHIFTS = np.arange(RING_BITS, dtype=np.uint64)[:, None]
# the adder's rows: g_0..g_62, then p_0..p_62 from row _P (no gate reads p_63)
_P = RING_BITS - 1


def _levels(carries) -> list[tuple[np.ndarray, np.ndarray]]:
    """The adder levels, first to last, that the carries g_i (i in carries)
    read: per level the (2, gates) [x; y] rows, G gates then P gates each in
    bit order, and the G gates' output rows. Walking back from the last
    level, a G gate (kind 0) at upper-half bit i reads g_i, p_i and g_j, and
    a P gate (kind 1) reads p_i and p_j."""
    read, levels = {(0, i) for i in carries}, []
    for h in reversed(_HALVES):
        gates = sorted(v for v in read if v[1] & h)
        rows = np.empty((2, len(gates)), dtype=np.intp)
        for col, (kind, i) in enumerate(gates):
            j = (i & -2 * h) + h - 1
            read |= {(1, i), (kind, j)}
            rows[:, col] = _P + i, kind * _P + j
        g_gates = sum(kind == 0 for kind, _ in gates)
        levels.append((rows, rows[0, :g_gates] - _P))
    return levels[::-1]


_SUM = _levels(range(RING_BITS - 1))  # every carry: bit_decompose
_SIGN = _levels([RING_BITS - 2])  # the carry into bit 63: msb


def _carries(ctx: PartyContext, own: np.ndarray, whole: int,
             levels: list) -> np.ndarray:
    """Rows g_0..g_62 after the adder levels, the carries they compute."""
    gp = np.zeros((2, _P, own.shape[1]), dtype=np.uint64)
    gp[ctx.party] = own[:-1]  # g_i = a_i & b_i from (a, 0) and (0, b)
    gp[0] = and_bits(ctx, gp, whole)
    gp[1] = own[:-1]  # p_i = a_i ^ b_i
    gp = gp.reshape(2 * _P, -1)
    for rows, g_out in levels:
        z = and_bits(ctx, gp[rows], whole)
        gp[g_out] ^= z[:len(g_out)]
        gp[rows[0, len(g_out):]] = z[len(g_out):]
    return gp[:_P]


def bit_decompose(ctx: PartyContext, x: np.ndarray) -> np.ndarray:
    """XOR-shared bits of the reconstructed value: the 64 _bit_rows rows of
    x's elements in flat order."""
    x = np.asarray(x, dtype=np.uint64).ravel()
    own = _bit_rows(x)
    own[1:] ^= _carries(ctx, own, x.size // 64, _SUM)  # s_i = p_i ^ c_(i-1)
    return own


def _bit_rows(x: np.ndarray) -> np.ndarray:
    """Bit-sliced rows of the n words x: row i holds bit i of every element,
    packed 64 elements to a word for the n // 64 whole words, then one bit
    per entry for the n % 64 tail elements. Six masked swaps transpose each
    64x64 block, the swap at s = 2^l exchanging bit l of the row and column
    indices."""
    whole = x.size // 64
    blocks = x[:64 * whole].reshape(whole, RING_BITS).copy()
    for h, upper in zip(_HALVES, _UPPER) if whole else ():
        s = np.uint64(h)
        pairs = blocks.reshape(whole, 32 // h, 2, h)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]
        t = ((lo >> s) ^ hi) & ~upper
        lo ^= t << s
        hi ^= t
    return np.concatenate([blocks.T, x[64 * whole:] >> _SHIFTS & _ONE], axis=1)


def _unrows(rows: np.ndarray, whole: int) -> np.ndarray:
    """The (r, n) bits of r _bit_rows rows, one per entry in element order."""
    words = np.ascontiguousarray(rows[:, :whole]).view(np.uint8)
    bits = np.unpackbits(words, axis=1, bitorder="little")
    return np.concatenate([bits, rows[:, whole:]], axis=1)


def msb(ctx: PartyContext, x: np.ndarray) -> np.ndarray:
    """XOR-shared sign bit of x: a63 ^ b63 ^ the carry into bit 63."""
    x = np.asarray(x, dtype=np.uint64)
    whole = x.size // 64
    own = _bit_rows(x.ravel())
    carry = _carries(ctx, own, whole, _SIGN)[-1]
    return _unrows((own[-1] ^ carry)[None], whole).reshape(x.shape)


def b2a(ctx: PartyContext, bits: np.ndarray) -> np.ndarray:
    """Additive shares of the XOR-shared 0/1 bits b from daBits (r, [r]):
    the parties open c = b ^ r, and [b] = c + (1 - 2c)[r]."""
    bits = np.asarray(bits, dtype=np.uint64)
    with ctx.section("b2a"):
        tape = ctx.tape.dabits(bits.shape)
        c = bits ^ tape.r
        ctx.send_bits(c)
        c ^= ctx.recv_bits(c.size).reshape(c.shape)
        return c * np.uint64(1 - ctx.party) + (_ONE - _TWO * c) * tape.R


def relu(ctx: PartyContext, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shares of max(0, x) plus the arithmetic 0/1 derivative mask b. One
    round after the sign bit opens c = b ^ r and x - u, so b = c + (1 - 2c)r
    and b*x = c*x + (1 - 2c)(r*(x - u) + r*u) are local."""
    x = np.asarray(x, dtype=np.uint64)
    b = msb(ctx, x) ^ np.uint64(1 - ctx.party)  # 1 iff x >= 0
    with ctx.section("b2a"):
        tape = ctx.tape.dabits(x.shape, masked=True)
        c, e = b ^ tape.r, x - tape.u
        ctx.send_bits(c)
        ctx.send_ring(e)
        c ^= ctx.recv_bits(c.size).reshape(c.shape)
        e = e + ctx.recv_ring(e.shape)
        flip = _ONE - _TWO * c
        mask = c * np.uint64(1 - ctx.party) + flip * tape.R
        return c * x + flip * (tape.R * e + tape.ru), mask


def prefix_or_high(ctx: PartyContext, v: np.ndarray, whole: int) -> np.ndarray:
    """_bit_rows rows whose row i is the XOR-shared OR of rows i..63 of v."""
    v = v.copy()
    for h in _HALVES:
        q = v.reshape(32 // h, 2, h, v.shape[1])  # (block, half, bit)
        xy = np.empty((2,) + q[:, 0].shape, dtype=np.uint64)
        xy[0], xy[1] = q[:, 0], q[:, 1, :1]  # lower half, upper half's bottom
        z = and_bits(ctx, xy.reshape(2, RING_BITS // 2, -1), whole)
        q[:, 0] ^= xy[1] ^ z.reshape(xy[0].shape)  # x ^ y ^ (x & y) = x | y
    return v


def highest_one_hot(ctx: PartyContext, x: np.ndarray) -> np.ndarray:
    """Arithmetic shares of the (..., 64) one-hot marking the highest set bit
    of x; the all-zero vector iff x = 0."""
    x = np.asarray(x, dtype=np.uint64)
    whole = x.size // 64
    por = prefix_or_high(ctx, bit_decompose(ctx, x), whole)
    por[:-1] ^= por[1:]  # bit i set and no bit above it
    return b2a(ctx, _unrows(por, whole).T.reshape(x.shape + (RING_BITS,)))
