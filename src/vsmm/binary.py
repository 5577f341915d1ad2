"""Binary-share machinery on one bit-sliced layout: bit decomposition by a
Sklansky parallel-prefix adder, the sign bit by a carry-lookahead tree, ReLU,
and highest-set-bit extraction. x = a + b mod 2^64, party 0 holding a and
party 1 holding b. A 64x64 word transpose bit-slices the shares into rows,
row i holding bit i of every element, so each level of a tree is one
and_bits call on its rows: and_bits takes the rows as they are, packed words
then one bit per tail element, and returns its result in the same layout.

The adder ANDs g_i = a_i & b_i for bits 0..62 (63 gates; p_i = a_i ^ b_i is
local), then runs six levels. Level l pairs each bit i of the upper half of a
2^(l+1)-bit block with j, the top bit of the lower half: a G gate sets
g_i ^= p_i & g_j and a P gate p_i = p_i & p_j. After the last level g_i is the
carry out of bit i. _levels derives each level's gates by walking back from
the carries a caller reads, so no gate runs that no carry needs.
bit_decompose reads all 63 carries: 63 + 61 + 60 + 58 + 54 + 46 + 31 = 373
gates in 7 rounds, skipping the bit-0 block's P gates (the carry into bit 0
is 0) and bit 63's G and P.
prefix_or_high runs the tree from the top, ORing the bottom bit of the upper
half into the 32 lower-half rows: 6 * 32 = 192 gates in 6 rounds.

msb is a63 ^ b63 ^ the carry into bit 63, in 4 rounds of multi-input ANDs.
Round 1 splits bits 0..61 into 31 chunks of 2 bits and reads the parties'
own bits, each party opening its rows a_0..a_62 and a_(2c+1) a_2c per chunk
c as rows it owns: 94 rows a party. A chunk's carry is
G = a1 b1 ^ (a1 a0) b0 ^ a0 (b1 b0) and its propagate
P = a1 a0 ^ b1 b0 ^ a1 b0 ^ a0 b1, 5 products, or 3 for chunk 0 (no carry
reads its P); bit 62 is a unit of its own, G = a62 b62 and P = a62 ^ b62:
154 products. A radix-2 level then joins the 32 units into 16 (47 rows, 31
products), and two radix-4 levels join 16 into 4 and 4 into 1 with
G = G3 ^ P3 G2 ^ P3 P2 G1 ^ P3 P2 P1 G0: 15 mask products a node and 7
more where its P = P3 P2 P1 P0 is read (27 rows and 81 products, then 6 and
15). That is 2 * (94 + 47 + 27 + 6) = 348 online and
154 + 31 + 81 + 15 = 281 offline bits per element.

b2a turns XOR-shared bits into additive shares with dealer daBits, a random
bit r dealt both XOR-shared and as [r]: each party sends b_i ^ r_i, and
[b] = c + (1 - 2c)[r] for the opened c = b ^ r. That is 2 bits per element in
1 round. bit_mult opens c and x - u in the same round, the masked daBit also
dealing [u] and [r*u], so [b] and b*x = c*x + (1 - 2c)(r*(x - u) + r*u) are
local. relu is msb, then bit_mult on the sign bit: 348 + 2 + 128 = 478 bits
per element in 5 rounds.
"""

from __future__ import annotations

import functools

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


def _chunk_monomials() -> tuple:
    """msb's first round over each party's 94 rows, party 0's then party
    1's: its bits 0..62, then a_(2c+1) & a_2c for each chunk c of bits
    (2c, 2c + 1), c < 31. Chunk c's carry G = a1 b1 ^ (a1 a0) b0 ^ a0 (b1 b0)
    and, for c > 0, its propagate P = a1 a0 ^ b1 b0 ^ a1 b0 ^ a0 b1; bit 62
    is the last unit, G = a62 b62. The monomials come in blocks: G's three
    terms (the first with bit 62's appended), then P's two cross terms."""
    a, aa, b, bb = range(63), range(63, 94), range(94, 157), range(157, 188)
    lo, hi = range(0, 62, 2), range(1, 62, 2)
    return tuple([(a[i], b[i]) for i in [*hi, 62]]
                 + [(aa[c], b[lo[c]]) for c in range(31)]
                 + [(a[lo[c]], bb[c]) for c in range(31)]
                 + [(a[hi[c]], b[lo[c]]) for c in range(1, 31)]
                 + [(a[lo[c]], b[hi[c]]) for c in range(1, 31)])


@functools.lru_cache(maxsize=None)
def _radix_monomials(radix: int, nodes: int) -> tuple:
    """One carry level joining `radix` units into each of `nodes` nodes.
    Its rows are blocks of `nodes` rows: G_0..G_(r-2), P_1..P_(r-1), then
    P_0 of nodes 1.. (node 0 holds unit 0, whose P is never read). Node v
    has G = G_(r-1) ^ the sum over k < r - 1 of P_(r-1)..P_(k+1) G_k, and
    for v > 0 P = P_(r-1)..P_0; the monomials come in blocks, one per k,
    then P's."""
    g = [range(k * nodes, (k + 1) * nodes) for k in range(radix - 1)]
    p = [None] + [range((radix + k - 2) * nodes, (radix + k - 1) * nodes)
                  for k in range(1, radix)]
    p0 = (2 * radix - 2) * nodes - 1  # node v's P_0 is row p0 + v
    return tuple([(*(p[j][v] for j in range(k + 1, radix)), g[k][v])
                  for k in range(radix - 1) for v in range(nodes)]
                 + [(*(p[j][v] for j in range(1, radix)), p0 + v)
                    for v in range(1, nodes)])


_CHUNKS = _chunk_monomials()
_CHUNK_OWNERS = (0,) * 94 + (1,) * 94


def _carries(ctx: PartyContext, own: np.ndarray, whole: int) -> np.ndarray:
    """Rows g_0..g_62 after the adder levels: every carry."""
    gp = np.zeros((2, _P, own.shape[1]), dtype=np.uint64)
    gp[ctx.party] = own[:-1]  # g_i = a_i & b_i from (a, 0) and (0, b)
    gp[0] = and_bits(ctx, gp, whole)
    gp[1] = own[:-1]  # p_i = a_i ^ b_i
    gp = gp.reshape(2 * _P, -1)
    for rows, g_out in _SUM:
        z = and_bits(ctx, gp[rows], whole)
        gp[g_out] ^= z[:len(g_out)]
        gp[rows[0, len(g_out):]] = z[len(g_out):]
    return gp[:_P]


def bit_decompose(ctx: PartyContext, x: np.ndarray) -> np.ndarray:
    """XOR-shared bits of the reconstructed value: the 64 _bit_rows rows of
    x's elements in flat order."""
    x = np.asarray(x, dtype=np.uint64).ravel()
    own = _bit_rows(x)
    own[1:] ^= _carries(ctx, own, x.size // 64)  # s_i = p_i ^ c_(i-1)
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


def _combine(ctx: PartyContext, g: np.ndarray, p: np.ndarray, r: int,
             whole: int) -> tuple[np.ndarray, np.ndarray]:
    """One radix-r carry level: the units' G rows g and their P rows p
    (units 1.., unit 0's P is never read) to the nodes' G and P rows."""
    nodes = len(g) // r
    x = np.concatenate([g[k::r] for k in range(r - 1)]
                       + [p[k - 1::r] for k in range(1, r)] + [p[r - 1::r]])
    z = and_bits(ctx, x, whole, _radix_monomials(r, nodes))
    g = g[r - 1::r] ^ np.bitwise_xor.reduce(
        z[:(r - 1) * nodes].reshape(r - 1, nodes, -1), axis=0)
    return g, z[(r - 1) * nodes:]


def _units(ctx: PartyContext, own: np.ndarray,
           whole: int) -> tuple[np.ndarray, np.ndarray]:
    """msb's first round: the G rows of its 32 units (chunks 0..30, then bit
    62) and the P rows of units 1..31, from this party's _bit_rows rows."""
    rows = np.zeros((2, 94, own.shape[1]), dtype=np.uint64)
    rows[ctx.party] = np.concatenate([own[:63], own[1:62:2] & own[:62:2]])
    z = and_bits(ctx, rows.reshape(188, -1), whole, _CHUNKS, _CHUNK_OWNERS)
    g = z[:32]
    g[:31] ^= z[32:63] ^ z[63:94]
    p = np.concatenate([rows[ctx.party, 64:] ^ z[94:124] ^ z[124:],
                        own[62:63]])  # p_62 = a62 ^ b62
    return g, p


def msb(ctx: PartyContext, x: np.ndarray) -> np.ndarray:
    """XOR-shared sign bit of x: a63 ^ b63 ^ the carry into bit 63."""
    x = np.asarray(x, dtype=np.uint64)
    if x.size == 0:
        return np.zeros(x.shape, dtype=np.uint64)
    whole = x.size // 64
    own = _bit_rows(x.ravel())
    g, p = _units(ctx, own, whole)
    for radix in (2, 4, 4):  # 32 units, then 16, 4 and 1
        g, p = _combine(ctx, g, p, radix, whole)
    return _unrows((own[-1] ^ g[0])[None], whole).reshape(x.shape)


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


def bit_mult(ctx: PartyContext, bits: np.ndarray,
             x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shares of b*x and of b for XOR-shared 0/1 bits b and a shared x of
    one shape: one round from masked daBits (see the module docstring)."""
    with ctx.section("b2a"):
        tape = ctx.tape.dabits(x.shape, masked=True)
        c, e = bits ^ tape.r, x - tape.u
        ctx.send_bits(c)
        ctx.send_ring(e)
        c ^= ctx.recv_bits(c.size).reshape(c.shape)
        e = e + ctx.recv_ring(e.shape)
        flip = _ONE - _TWO * c
        mask = c * np.uint64(1 - ctx.party) + flip * tape.R
        return c * x + flip * (tape.R * e + tape.ru), mask


def relu(ctx: PartyContext, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shares of max(0, x) plus the arithmetic 0/1 derivative mask b: the
    sign bit, then one bit_mult round."""
    x = np.asarray(x, dtype=np.uint64)
    if x.size == 0:
        return x.copy(), x.copy()
    return bit_mult(ctx, msb(ctx, x) ^ np.uint64(1 - ctx.party), x)  # x >= 0


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
