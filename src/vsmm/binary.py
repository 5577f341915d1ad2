"""Binary-share machinery on one bit-sliced layout: one carry pipeline for
the sign bit and bit decomposition, ReLU, and highest-set-bit extraction.
x = a + b mod 2^64, party 0 holding a and party 1 holding b. A 64x64 word
transpose bit-slices the shares into rows, row i holding bit i of every
element, so each round is one and_bits call on rows: and_bits takes the rows
as they are, packed words then one bit per tail element, opens each row
once and returns any monomials over them in the same layout.

The carry pipeline runs over the low l bits of the shares: l = 64, or a
narrower msb's width. Its round 1 splits bits 0..l-3 into l/2 - 1 chunks of
2 bits and reads the parties' own bits, each party opening its rows
a_0..a_(l-2) and a_(2c+1) a_2c per chunk c as rows it owns: 3l/2 - 2 rows a
party, 94 at l = 64. A chunk's carry is G = a1 b1 ^ (a1 a0) b0 ^ a0 (b1 b0)
and its propagate P = a1 a0 ^ b1 b0 ^ a1 b0 ^ a0 b1, 5 products, or 3 for
chunk 0 (no carry reads its P); bit l - 2 is a unit of its own, G = a b and
P = a ^ b: 5l/2 - 6 products, 154 at l = 64. Sklansky levels then join the
l/2 units, for l a power of two from 4 to 64: radix 4, and radix 2 once
where log2(l/2) is odd. A level of radix r over spans of s units gives
unit i in span j of its rs-unit block
G_i ^= sum over k < j of P_i P_(t_(j-1))..P_(t_(k+1)) G_(t_k), t_k the top
unit of span k, and P_i = P_i P_(t_(j-1))..P_(t_0): each term is one
monomial, each row one opening, and a k-row monomial deals the mask AND of
each of its subsets of two or more rows once. _prefix_levels derives the
levels by walking back from the rows read at the end, so no monomial runs
that no carry reads.

msb reads the carry into bit l - 1 alone. At l = 64 its radices are 2, 4
and 4: 47, 27 and 6 rows and 31, 81 and 15 products. That is
2 * (94 + 47 + 27 + 6) = 348 online and 154 + 31 + 81 + 15 = 281 offline
bits per element, 4 rounds. At l = 32 the 16 units (15 chunks and bit 30)
take two radix-4 levels, 27 and 6 rows for 81 and 15 products, after a
round 1 of 46 rows and 74 products: 2 * (46 + 27 + 6) = 158 online and
74 + 81 + 15 = 170 offline bits per element, 3 rounds. Bit l - 1 of x mod
2^l is the sign of x when |x| < 2^(l-1) as a ring integer, a precondition
like truncation's: the reduced-bitwidth comparison of CrypTFlow2 (Rathee et
al., CCS 2020) and SiRNN (Rathee et al., S&P 2021). A narrow call opens a
subset of the full-width call's rows, each under a fresh dealer mask, so
the party views add nothing, and it bit-slices only the low l rows.

bit_decompose reads every carry at l = 64, through radices 4, 4 and 2.
Round 1 adds g_2c = a_2c b_2c for the 31 even bits below 62 (185
products), and the carry out of bit 2c, g_2c ^ p_2c C with C the carry into
the chunk, is folded into the radix-2 level as p_2c times each term of C,
monomials of at most 3 rows. Its levels open 55, 31 and 76 rows for 169,
148 and 88 products: 2 * (94 + 55 + 31 + 76) = 512 online and
185 + 169 + 148 + 88 = 590 offline bits per element, 4 rounds.

prefix_or_high computes OR as NOT AND NOT, party 0 flipping its shares: a
suffix AND over the 64 rows in three radix-4 levels, each row ANDed with
the bottom row of every span above its own, at most 4 rows a monomial. The
levels open 64, 52 and 49 rows for 176 products each: 330 online and 528
offline bits per element, 3 rounds. highest_one_hot is bit_decompose,
prefix_or_high, then b2a of the 64 bits: 8 rounds.

b2a turns XOR-shared bits into additive shares with dealer daBits, a random
bit r dealt both XOR-shared and as [r]: each party sends b_i ^ r_i, and
[b] = c + (1 - 2c)[r] for the opened c = b ^ r. That is 2 bits per element in
1 round. bit_mult opens c and x - u in one message, the masked daBit also
dealing [u] and [r*u], so [b] and b*x = c*x + (1 - 2c)(r*(x - u) + r*u) are
local. relu is msb, then bit_mult on the sign bit: 348 + 2 + 128 = 478 bits
per element in 5 rounds, or 288 in 4 at l = 32.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .protocols import and_bits
from .ring import RING_BITS
from .runtime import PartyContext

_ONE = np.uint64(1)
_TWO = np.uint64(2)
# level l's half-block width h = 2^l, widest first: a (block, half, bit) view
# of 64 rows or bits pairs each half of every 2h-bit block with the other
_HALVES = [1 << level for level in reversed(range(6))]
# U of level l: the positions with bit l set, the upper half of each block
_UPPER = [np.uint64(sum(1 << i for i in range(64) if i & h)) for h in _HALVES]
_SHIFTS = np.arange(RING_BITS, dtype=np.uint64)[:, None]

# The ring bits of the GCN's sign bits: ReLU, softmax's row max and its
# clamp. Exact for |x| < 2^31 as a ring integer, |value| < 2^15 at f = 16.
SIGN_BITS = 32


@functools.lru_cache(maxsize=None)
def _chunk_monomials(bits: int, evens: bool) -> tuple:
    """Round 1 over each party's 3 bits/2 - 2 rows, party 0's then party
    1's: its bits 0..bits - 2, then a_(2c+1) & a_2c for each chunk c of
    bits (2c, 2c + 1), 2c < bits - 2. The monomials come in blocks: G's
    three terms (the first with the top unit's G appended), then P's two
    cross terms for chunks 1 onward, and with evens g_2c = a_2c b_2c."""
    top, size = bits - 2, 3 * bits // 2 - 2
    a, aa = range(top + 1), range(top + 1, size)
    b, bb = range(size, size + top + 1), range(size + top + 1, 2 * size)
    lo, hi, chunks = range(0, top, 2), range(1, top, 2), range(bits // 2 - 1)
    return tuple([(a[i], b[i]) for i in [*hi, top]]
                 + [(aa[c], b[lo[c]]) for c in chunks]
                 + [(a[lo[c]], bb[c]) for c in chunks]
                 + [(a[hi[c]], b[lo[c]]) for c in chunks[1:]]
                 + [(a[lo[c]], b[hi[c]]) for c in chunks[1:]]
                 + [(a[i], b[i]) for i in lo] * evens)


def _carry_rows(bits: int) -> np.ndarray:
    """The state row of the carry out of bit i, which sum bit i + 1 reads:
    g_2c's for even i < bits - 2, else its unit's G."""
    even_g = 3 * bits // 2 - 1
    return np.array([even_g + i // 2 if i % 2 == 0 and i < bits - 2
                     else i // 2 for i in range(bits - 1)])


def _node(row: int, radix: int, span: int, units: int) -> tuple:
    """A G or P state row after one level (module docstring): the row it
    XORs its monomials into, or None if one monomial replaces it, and its
    monomials over state rows."""
    unit = row % units
    base, j = unit - unit % (radix * span), unit % (radix * span) // span
    tops = [base + k * span + span - 1 for k in range(j)]
    if row < units:
        return row, [(units + unit, *(units + t for t in tops[k + 1:]),
                      tops[k]) for k in range(j)]
    return (None, [(row, *(units + t for t in tops))]) if j else (row, [])


def _plan(nodes: dict) -> tuple:
    """One level's and_bits call from its nodes, each a state row mapped to
    (the row it XORs its monomials into, or None if its one monomial
    replaces it; its monomials over state rows): the rows it opens, the
    monomials over them, the rows it XORs and the (rows, terms) index of
    their sums into the results padded with a zero row, and the rows it
    replaces with their results."""
    # rows in order of first use, position by position across the
    # monomials, so that and_bits mostly reads a position's rows as a slice
    size = max((len(m) for _, terms in nodes.values() for m in terms),
               default=0)
    opened = list(dict.fromkeys(m[q] for q in range(size)
                                for _, terms in nodes.values()
                                for m in terms if q < len(m)))
    at = {v: k for k, v in enumerate(opened)}
    monomials, xors, sets = [], [], []
    for row, (keep, terms) in nodes.items():
        first = len(monomials)
        monomials += [tuple(at[v] for v in m) for m in terms]
        if keep is None:
            sets.append((row, first))
        elif terms:
            xors.append((row, range(first, len(monomials))))
    width = max((len(t) for _, t in xors), default=0)
    index = [[*t] + [len(monomials)] * (width - len(t)) for _, t in xors]
    return (np.array(opened), tuple(monomials),
            np.array([r for r, _ in xors], dtype=np.intp),
            np.array(index, dtype=np.intp).reshape(len(xors), width),
            np.array([r for r, _ in sets], dtype=np.intp),
            np.array([k for _, k in sets], dtype=np.intp))


def _run_level(ctx: PartyContext, state: np.ndarray, level: tuple,
               whole: int) -> None:
    """One _plan level on the state rows, in place: one round."""
    opened, monomials, xors, index, sets, picks = level
    z = and_bits(ctx, state[opened], whole, monomials)
    state[sets] = z[picks]
    z = np.concatenate([z, np.zeros((1, z.shape[1]), dtype=np.uint64)])
    state[xors] ^= np.bitwise_xor.reduce(z[index], axis=1)


@functools.lru_cache(maxsize=None)
def _prefix_levels(evens: bool, bits: int) -> tuple:
    """msb's levels over `bits` ring bits, or with evens bit_decompose's,
    first to last, walking back from the top unit's G, or from every G and
    the even bits' carries g_2c ^ p_2c C_(c-1), the last level multiplying
    p_2c into C_(c-1) and into each of its terms. A radix-2 level comes
    first for msb and last for bit_decompose."""
    if bits not in (4, 8, 16, 32, RING_BITS):
        raise ValueError(f"no radix plan for {bits} ring bits")
    log = bits.bit_length() - 2  # log2 of the bits/2 units
    two, fours = (2,) * (log % 2), (4,) * (log // 2)
    radices = fours + two if evens else two + fours
    units, even_g = bits // 2, 3 * bits // 2 - 1
    need = {units - 1}
    if evens:
        need |= set(range(units)) | set(range(even_g + 1, even_g + units - 1))
    levels = []
    for depth in reversed(range(len(radices))):
        radix, span = radices[depth], int(np.prod(radices[:depth]))
        nodes = {}
        for row in sorted(need):
            if row < bits:
                nodes[row] = _node(row, radix, span, units)
            elif row > even_g and depth == len(radices) - 1:
                c = row - even_g
                carry, terms = _node(c - 1, radix, span, units)
                nodes[row] = row, [(bits + c, *m) for m in [(carry,), *terms]]
            else:  # p_2c, or g_2c before the last level
                nodes[row] = row, []
        levels.append(_plan(nodes))
        need = {v for keep, terms in nodes.values()
                for v in [keep, *itertools.chain(*terms)] if v is not None}
    return tuple(levels[::-1])


def _units(ctx: PartyContext, own: np.ndarray, whole: int,
           evens: bool) -> np.ndarray:
    """Round 1: the carry pipeline's state rows from this party's l =
    len(own) _bit_rows rows, with evens the even bits' rows too: G of the
    l/2 units from row 0 and their P from row l/2 (unit 0's P is never
    read), then p_2c and g_2c of the even bits 2c < l - 2 from rows l and
    3l/2 - 1, g_2c becoming the carry out of bit 2c."""
    bits, n = own.shape
    top, units, chunks = bits - 2, bits // 2, bits // 2 - 1
    rows = np.concatenate([own[:top + 1], own[1:top:2] & own[:top:2]])
    z = and_bits(ctx, rows, whole, _chunk_monomials(bits, evens),
                 (0,) * len(rows) + (1,) * len(rows))  # each party's own
    g, g1, g2, p1, p2, g_2c = np.split(
        z, np.cumsum([units, chunks, chunks, chunks - 1, chunks - 1]))
    g[:chunks] ^= g1 ^ g2
    # the top unit's P is a_top ^ b_top, and p_2c = a_2c ^ b_2c
    return np.concatenate([g, np.zeros((1, n), dtype=np.uint64),
                           rows[top + 2:] ^ p1 ^ p2, own[top:top + 1]]
                          + [own[:top:2], g_2c] * evens)


def _carries(ctx: PartyContext, own: np.ndarray, whole: int,
             evens: bool) -> np.ndarray:
    """The carry pipeline's state rows after its last level."""
    levels = _prefix_levels(evens, len(own))  # a width without a plan raises
    state = _units(ctx, own, whole, evens)
    for level in levels:
        _run_level(ctx, state, level, whole)
    return state


def bit_decompose(ctx: PartyContext, x: np.ndarray) -> np.ndarray:
    """XOR-shared bits of the reconstructed value: the 64 _bit_rows rows of
    x's elements in flat order."""
    x = np.asarray(x, dtype=np.uint64).ravel()
    own = _bit_rows(x)
    own[1:] ^= _carries(ctx, own, x.size // 64, True)[_carry_rows(RING_BITS)]
    return own  # s_i = p_i ^ c_(i-1)


def _bit_rows(x: np.ndarray, bits: int = RING_BITS) -> np.ndarray:
    """Bit-sliced rows 0..bits - 1 of the n words x: row i holds bit i of
    every element, packed 64 elements to a word for the n // 64 whole words,
    then one bit per entry for the n % 64 tail elements. Six masked swaps,
    widest first, transpose each 64x64 block, the swap at s = 2^l exchanging
    bit l of the row and column indices; later swaps mix words only within
    runs of s, so each swap keeps just the runs that reach below `bits`."""
    whole = x.size // 64
    blocks = x[:64 * whole].reshape(whole, RING_BITS).copy()
    for h, upper in zip(_HALVES, _UPPER) if whole else ():
        s = np.uint64(h)
        pairs = blocks.reshape(whole, -1, 2, h)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]
        t = ((lo >> s) ^ hi) & ~upper
        lo ^= t << s
        hi ^= t
        blocks = blocks[:, :h * -(-bits // h)]
    return np.concatenate([blocks[:, :bits].T,
                           x[64 * whole:] >> _SHIFTS[:bits] & _ONE], axis=1)


def _unrows(rows: np.ndarray, whole: int) -> np.ndarray:
    """The (r, n) bits of r _bit_rows rows, one per entry in element order."""
    words = np.ascontiguousarray(rows[:, :whole]).view(np.uint8)
    bits = np.unpackbits(words, axis=1, bitorder="little")
    return np.concatenate([bits, rows[:, whole:]], axis=1)


def msb(ctx: PartyContext, x: np.ndarray, bits: int = RING_BITS) -> np.ndarray:
    """XOR-shared bit bits - 1 of x mod 2^bits, a_(bits-1) ^ b_(bits-1) ^
    the carry into it: the sign of x for |x| < 2^(bits-1) as a ring integer
    (module docstring)."""
    x = np.asarray(x, dtype=np.uint64)
    whole = x.size // 64
    own = _bit_rows(x.ravel(), bits)
    sign = own[-1] ^ _carries(ctx, own, whole, False)[bits // 2 - 1]
    return _unrows(sign[None], whole).reshape(x.shape)


def b2a(ctx: PartyContext, bits: np.ndarray) -> np.ndarray:
    """Additive shares of the XOR-shared 0/1 bits b from daBits (r, [r]):
    the parties open c = b ^ r, and [b] = c + (1 - 2c)[r]."""
    bits = np.asarray(bits, dtype=np.uint64)
    if bits.size == 0:
        return bits.copy()
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
    if x.size == 0:
        return tuple(np.zeros((2,) + x.shape, dtype=np.uint64))
    with ctx.section("b2a"):
        tape = ctx.tape.dabits(x.shape, masked=True)
        c, e = bits ^ tape.r, x - tape.u
        with ctx.frame():
            ctx.send_bits(c)
            ctx.send_ring(e)
        c ^= ctx.recv_bits(c.size).reshape(c.shape)
        e = e + ctx.recv_ring(e.shape)
        flip = _ONE - _TWO * c
        mask = c * np.uint64(1 - ctx.party) + flip * tape.R
        return c * x + flip * (tape.R * e + tape.ru), mask


def relu(ctx: PartyContext, x: np.ndarray,
         bits: int = RING_BITS) -> tuple[np.ndarray, np.ndarray]:
    """Shares of max(0, x) plus the arithmetic 0/1 derivative mask b: the
    sign bit over `bits` ring bits (msb), then one bit_mult round."""
    x = np.asarray(x, dtype=np.uint64)
    return bit_mult(ctx, msb(ctx, x, bits) ^ np.uint64(1 - ctx.party), x)  # x >= 0


@functools.lru_cache(maxsize=None)
def _suffix_levels() -> tuple:
    """prefix_or_high's suffix AND in three radix-4 levels: row i in span
    j < 3 of its 4-span block becomes the AND of itself and the bottom row
    of each span above j."""
    levels = []
    for span in (1, 4, 16):
        nodes = {}
        for i in range(RING_BITS):
            base, j = i - i % (4 * span), i % (4 * span) // span
            if j < 3:
                nodes[i] = None, [(i, *range(base + (j + 1) * span,
                                             base + 4 * span, span))]
        levels.append(_plan(nodes))
    return tuple(levels)


def _negate(ctx: PartyContext, v: np.ndarray, whole: int) -> np.ndarray:
    """XOR shares of NOT v: party 0 flips every bit its _bit_rows rows hold,
    64 in a packed word and one in a tail entry."""
    v = v.copy()
    if ctx.party == 0:
        v[:, :whole] ^= np.uint64(2 ** 64 - 1)
        v[:, whole:] ^= _ONE
    return v


def prefix_or_high(ctx: PartyContext, v: np.ndarray, whole: int) -> np.ndarray:
    """_bit_rows rows whose row i is the XOR-shared OR of rows i..63 of v:
    NOT of the suffix AND of NOT v, in three radix-4 levels."""
    v = _negate(ctx, v, whole)
    for level in _suffix_levels():
        _run_level(ctx, v, level, whole)
    return _negate(ctx, v, whole)


def highest_one_hot(ctx: PartyContext, x: np.ndarray) -> np.ndarray:
    """Arithmetic shares of the (..., 64) one-hot marking the highest set bit
    of x; the all-zero vector iff x = 0."""
    x = np.asarray(x, dtype=np.uint64)
    whole = x.size // 64
    por = prefix_or_high(ctx, bit_decompose(ctx, x), whole)
    por[:-1] ^= por[1:]  # bit i set and no bit above it
    return b2a(ctx, _unrows(por, whole).T.reshape(x.shape + (RING_BITS,)))
