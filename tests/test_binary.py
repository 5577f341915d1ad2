import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsmm.binary import (SIGN_BITS, _bit_rows, _carry_rows, _prefix_levels,
                         _units, _unrows, b2a, bit_decompose, bit_mult,
                         highest_one_hot, msb, prefix_or_high, relu)
from vsmm.ring import lift_signed, random_ring, reconstruct, share_secret
from vsmm.runtime import FRAME_BITS, run_two_party


def _shared(rng, x):
    return share_secret(x, random_ring(rng, x.shape))


# 0, 1, -1, 2^63 - 1 and -2^63 as ring elements
_EDGES = np.array([0, 1, 2 ** 64 - 1, 2 ** 63 - 1, 2 ** 63], dtype=np.uint64)
# one element, a word less one bit, a whole word, a tail bit, two words, a
# ragged tail and a 2-d tensor
_SHAPES = [(1,), (63,), (64,), (65,), (128,), (1000,), (40, 7)]


def _signed_values(rng, shape):
    """Ring elements of every magnitude and either sign, led by _EDGES."""
    x = random_ring(rng, shape) >> rng.integers(0, 64, shape).astype(np.uint64)
    x = np.where(rng.integers(0, 2, shape) == 1, np.uint64(0) - x, x)
    x.flat[:len(_EDGES)] = _EDGES[:x.size]
    return x


_SHIFTS = np.arange(64, dtype=np.uint64)[:, None]


def test_bit_decompose_exact(rng):
    for shape in _SHAPES:
        x = _signed_values(rng, shape)
        x0, x1 = _shared(rng, x)
        o0, o1, meter = run_two_party(bit_decompose, (x0,), (x1,))
        bits = _unrows(o0 ^ o1, x.size // 64)  # row i: bit i of each element
        assert np.array_equal(bits, x.ravel() >> _SHIFTS & np.uint64(1))
        assert meter.rounds == 4  # chunk carries, then radix 4, 4 and 2


@pytest.mark.parametrize("n", [0, 37, 64, 2597])
def test_bit_rows_at_a_width_are_the_low_rows(rng, n):
    """_bit_rows(x, bits) is _bit_rows(x)[:bits]: narrowing the transpose
    after each swap drops only rows at or above `bits`. n < 64 has no whole
    word, 2,597 has 40 and a ragged tail."""
    x = random_ring(rng, (n,))
    full = _bit_rows(x)
    assert np.array_equal(_unrows(full, n // 64), x >> _SHIFTS & np.uint64(1))
    for bits in (4, 8, 16, 32, 64):
        assert np.array_equal(_bit_rows(x, bits), full[:bits])


def _run_levels(state, evens, bits):
    """_prefix_levels evaluated in the clear on bit rows, as _carries does."""
    state = state.copy()
    for opened, monomials, xors, index, sets, picks in _prefix_levels(evens,
                                                                      bits):
        z = np.array([np.bitwise_and.reduce(state[opened][list(m)])
                      for m in monomials] + [np.zeros_like(state[0])])
        state[sets] = z[picks]
        state[xors] ^= np.bitwise_xor.reduce(z[index], axis=1)
    return state


# rows each level opens and its largest monomial, by width: radix-4
# monomials of at most 4 rows, radix-2 ones of 2, and one more where
# bit_decompose folds p_2c into the last level
_LEVEL_SHAPES = {(False, 64): ([47, 27, 6], [2, 4, 4]),
                 (True, 64): ([55, 31, 76], [4, 4, 3]),
                 (False, 32): ([27, 6], [4, 4]),
                 (True, 32): ([27, 40], [4, 5])}


@pytest.mark.parametrize("evens", [False, True])
def test_prefix_level_monomials(rng, evens):
    # unit u's carry is C_u = G_u ^ P_u C_(u-1) and an even bit's
    # g_2c ^ p_2c C_(c-1), for any bits: 64 random rows a word. The state
    # holds G of the bits/2 units, their P, then p_2c and g_2c (_units)
    for bits in (64, SIGN_BITS):
        units = bits // 2
        even_g = bits + units - 1
        state = random_ring(rng, (bits + 2 * (units - 1) * evens, 4))
        out = _run_levels(state, evens, bits)
        carry = np.zeros(4, dtype=np.uint64)
        for u in range(units):
            carry = state[u] ^ state[units + u] & carry if u else state[0]
            if evens or u == units - 1:
                assert np.array_equal(out[u], carry)
            if evens and u < units - 2:  # the carry out of bit 2(u + 1)
                g = even_g + u + 1
                assert np.array_equal(out[g],
                                      state[g] ^ state[bits + u + 1] & carry)
        if evens:
            assert np.array_equal(out[even_g], state[even_g])  # c_0 = g_0
            assert sorted(_carry_rows(bits)) \
                == [*range(units), *range(even_g, even_g + units - 1)]
        levels = _prefix_levels(evens, bits)
        # each row opened once a level
        assert ([len(set(level[0])) for level in levels],
                [max(map(len, level[1])) for level in levels]) \
            == _LEVEL_SHAPES[evens, bits]


def _prefix_or_high(ctx, x):
    """prefix_or_high of x's bits, each party's word being its XOR share."""
    return prefix_or_high(ctx, _bit_rows(x.ravel()), x.size // 64)


def test_prefix_or_high_exact(rng):
    for shape in _SHAPES:
        x = _signed_values(rng, shape)
        mask = random_ring(rng, shape)
        o0, o1, meter = run_two_party(_prefix_or_high, (mask,), (x ^ mask,))
        bits = _unrows(o0 ^ o1, x.size // 64)  # row i: OR of bits i..63
        assert np.array_equal(bits, x.ravel() >> _SHIFTS != 0)
        assert meter.rounds == 3  # three radix-4 levels


def test_msb_matches_sign(rng):
    for shape in _SHAPES:
        x = _signed_values(rng, shape)
        x0, x1 = _shared(rng, x)
        o0, o1, meter = run_two_party(msb, (x0,), (x1,))
        assert o0.shape == shape
        assert np.array_equal(o0 ^ o1, (lift_signed(x) < 0).astype(np.uint64))
        assert meter.rounds == 4  # chunk carries, then radix 2, 4 and 4


def _chunk_units(ctx, share, bits):
    whole = share.size // 64
    state = _units(ctx, _bit_rows(share, bits), whole, False)
    units = bits // 2
    return (_unrows(state[:units], whole),
            _unrows(state[units + 1:bits], whole))


def test_chunk_carry_and_propagate_exhaustive():
    # element 4a + b holds the 2-bit pair (a, b) in every chunk: party 0's
    # share a and party 1's b, so every chunk sees all 16 pairs
    a, b = np.divmod(np.arange(16, dtype=np.uint64), np.uint64(4))
    spread = np.uint64(sum(1 << 2 * c for c in range(32)))  # bits 0, 2, .., 62
    for bits in (64, SIGN_BITS):  # a narrow round 1 reads the low bits only
        units = bits // 2
        (g0, p0), (g1, p1), meter = run_two_party(
            functools.partial(_chunk_units, bits=bits),
            (a * spread,), (b * spread,))
        assert meter.rounds == 1
        g, p = (g0 ^ g1).T, (p0 ^ p1).T  # (element, unit)
        carry = (a + b) >> np.uint64(2)  # G = a1 b1 ^ (a1 a0) b0 ^ a0 (b1 b0)
        both = (a ^ b) == 3  # P = a1 a0 ^ b1 b0 ^ a1 b0 ^ a0 b1
        chunks = units - 1
        assert np.array_equal(g[:, :chunks],
                              np.repeat(carry[:, None], chunks, axis=1))
        assert np.array_equal(p[:, :chunks - 1],
                              np.repeat(both[:, None], chunks - 1, axis=1))
        # the top unit is bit bits - 2 alone, which holds a0 and b0 of the pair
        assert np.array_equal(g[:, chunks], a & b & np.uint64(1))
        assert np.array_equal(p[:, chunks - 1], (a ^ b) & np.uint64(1))


# carry chains that stop at, or run across, every chunk and radix boundary
_CHAINS = np.array([(1 << j) - 1 for j in range(65)]
                   + [2 ** 64 - (1 << j) for j in range(64)]
                   + [0, 1, 2 ** 64 - 1, 2 ** 63 - 1, 2 ** 63], dtype=np.uint64)


# share pairs (a, b) whose sum carries through every bit: 2^k - 1 + 1, the
# alternating 0x5555.. + 0xAAAA..+1, and 0, -1 and 2^63 split as x + 0
_CHAIN_PAIRS = np.array(
    [((1 << k) - 1, 1) for k in range(65)]
    + [(0x5555555555555555, 0xAAAAAAAAAAAAAAAB),
       (0xAAAAAAAAAAAAAAAA, 0x5555555555555556)]
    + [(x, 0) for x in (0, 2 ** 64 - 1, 2 ** 63)]
    + [(2 ** 64 - 1, 2 ** 64 - 1), (2 ** 63, 2 ** 63)],
    dtype=np.uint64).T


@pytest.mark.parametrize("repeat", [1, 2])
def test_bit_decompose_and_one_hot_carry_chains(repeat):
    # 72 pairs, one packed word and 8 tail entries, then 144, two and 16
    a, b = np.tile(_CHAIN_PAIRS, repeat)
    x = a + b
    o0, o1, _ = run_two_party(bit_decompose, (a,), (b,))
    bits = _unrows(o0 ^ o1, x.size // 64)
    assert np.array_equal(bits, x >> _SHIFTS & np.uint64(1))
    o0, o1, _ = run_two_party(highest_one_hot, (a,), (b,))
    top = np.array([int(v).bit_length() - 1 for v in x])
    onehot = np.arange(64) == top[:, None]
    assert np.array_equal(reconstruct(o0, o1), onehot.astype(np.uint64))


@pytest.mark.parametrize("seed", range(4))
def test_msb_carry_chains(seed):
    x0, x1 = _shared(np.random.default_rng(seed), _CHAINS)
    o0, o1, _ = run_two_party(msb, (x0,), (x1,))
    assert np.array_equal(o0 ^ o1, (lift_signed(_CHAINS) < 0).astype(np.uint64))


def _narrow_values(rng, shape):
    """Signed values of every magnitude below 2^31, led by -2^31, 2^31 - 1,
    0, -1 and 1; their shares are random over all 64 bits."""
    half = 1 << (SIGN_BITS - 1)
    x = rng.integers(-half, half, shape) >> rng.integers(0, SIGN_BITS, shape)
    x.flat[:5] = [-half, half - 1, 0, -1, 1][:x.size]
    return x


def test_narrow_msb_and_relu_exact(rng):
    for shape in _SHAPES:
        x = _narrow_values(rng, shape)
        x0, x1 = _shared(rng, x.astype(np.uint64))
        o0, o1, meter = run_two_party(msb, (x0, SIGN_BITS), (x1, SIGN_BITS))
        assert o0.shape == shape
        assert np.array_equal(o0 ^ o1, (x < 0).astype(np.uint64))
        assert meter.rounds == 3  # chunk carries, then radix 4 and 4
        (v0, m0), (v1, m1), meter = run_two_party(relu, (x0, SIGN_BITS),
                                                  (x1, SIGN_BITS))
        assert np.array_equal(lift_signed(reconstruct(v0, v1)),
                              np.maximum(x, 0))
        assert np.array_equal(reconstruct(m0, m1), (x >= 0).astype(np.uint64))
        assert meter.rounds == 4  # the narrow sign bit + one daBit opening


# _CHAIN_PAIRS over the low 32 bits: 2^k - 1 + 1 for k <= 32, the
# alternating 0x5555_5555 + 0xAAAA_AAAB and its mirror, and -1, 0 and
# -2^31 split as x + 0
_NARROW_CHAIN_PAIRS = np.array(
    [((1 << k) - 1, 1) for k in range(33)]
    + [(0x55555555, 0xAAAAAAAB), (0xAAAAAAAA, 0x55555556)]
    + [(x, 0) for x in (2 ** 64 - 1, 0, 2 ** 64 - 2 ** 31)],
    dtype=np.uint64).T


@pytest.mark.parametrize("seed", range(2))
def test_narrow_msb_carry_chains(seed):
    # random high share bits: r 2^32 added to one share, taken from the other
    a, b = _NARROW_CHAIN_PAIRS
    r = random_ring(np.random.default_rng(seed), a.shape) << np.uint64(32)
    o0, o1, _ = run_two_party(msb, (a + r, SIGN_BITS), (b - r, SIGN_BITS))
    # bit 31 of the sum: its sign but at 2^31 (k = 31), past the bound
    assert np.array_equal(o0 ^ o1, (a + b) >> np.uint64(31) & np.uint64(1))


def test_narrow_msb_past_its_bound():
    # 2^31 is positive but needs 33 signed bits, so the 32-bit sign bit reads
    # it as negative: |x| < 2^31 is the caller's precondition, as
    # truncation's is, not a fault of msb
    x = np.array([2 ** 31], dtype=np.uint64)
    x0, x1 = _shared(np.random.default_rng(0), x)
    o0, o1, _ = run_two_party(msb, (x0, SIGN_BITS), (x1, SIGN_BITS))
    assert (o0 ^ o1).tolist() == [1]
    o0, o1, _ = run_two_party(msb, (x0,), (x1,))
    assert (o0 ^ o1).tolist() == [0]


@pytest.mark.parametrize("bits, rounds", [(4, 2), (8, 2), (16, 3)])
def test_msb_exhaustive_at_small_widths(rng, bits, rounds):
    # every value of the signed range at each smaller width with a radix
    # plan: round 1, then the levels joining its 2, 4 and 8 units, radix 2,
    # radix 4, and radix 2 then 4
    x = np.arange(-(1 << (bits - 1)), 1 << (bits - 1))
    x0, x1 = _shared(rng, x.astype(np.uint64))
    o0, o1, meter = run_two_party(msb, (x0, bits), (x1, bits))
    assert np.array_equal(o0 ^ o1, (x < 0).astype(np.uint64))
    assert meter.rounds == rounds


def test_msb_width_without_a_radix_plan():
    x = np.zeros(3, dtype=np.uint64)
    with pytest.raises(ValueError, match="no radix plan"):
        run_two_party(msb, (x, 24), (x, 24))


def _run_empty(fn, *args):
    """fn's two outputs on empty inputs, after checking that it sent
    nothing, drew nothing from the dealer and took no round."""
    def proto(ctx):
        return fn(ctx, *args), ctx.tape.ctr

    (o0, ctr0), (o1, ctr1), meter = run_two_party(proto)
    assert ctr0 == ctr1 == 0
    assert meter.rounds == meter.online_bits == meter.offline_bits == 0
    assert meter.framing_bits == 0
    return o0, o1


@pytest.mark.parametrize("fn", [msb, relu, b2a, bit_mult])
@pytest.mark.parametrize("shape", [(0,), (0, 7)])
def test_sign_layers_on_empty_input(fn, shape):
    x = np.zeros(shape, dtype=np.uint64)
    o0, o1 = _run_empty(fn, *((x, x) if fn is bit_mult else (x,)))
    for o in (o0, o1) if fn in (msb, b2a) else (*o0, *o1):
        assert o.shape == shape and o.dtype == np.uint64


@pytest.mark.parametrize("fn", [bit_decompose, highest_one_hot])
@pytest.mark.parametrize("shape", [(0,), (0, 7)])
def test_bit_layers_on_empty_input(fn, shape):
    o0, o1 = _run_empty(fn, np.zeros(shape, dtype=np.uint64))
    want = (64, 0) if fn is bit_decompose else shape + (64,)
    for o in (o0, o1):
        assert o.shape == want and o.dtype == np.uint64


@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=200),
       st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_msb_sign_property(values, seed):
    x = np.array(values, dtype=np.uint64)
    x0, x1 = _shared(np.random.default_rng(seed), x)
    o0, o1, _ = run_two_party(msb, (x0,), (x1,))
    assert np.array_equal(o0 ^ o1, (lift_signed(x) < 0).astype(np.uint64))


def test_b2a(rng):
    for shape in _SHAPES:
        b = rng.integers(0, 2, shape).astype(np.uint8)
        mask = rng.integers(0, 2, shape).astype(np.uint8)
        o0, o1, meter = run_two_party(b2a, (mask,), (b ^ mask,))
        assert o0.shape == shape
        assert np.array_equal(reconstruct(o0, o1), b.astype(np.uint64))
        n = b.size
        assert meter.rounds == 1  # one opened bit c = b ^ r per party
        assert meter.online_bits == 2 * n
        assert meter.offline_bits == 64 * n  # party 1's share of [r]


def test_b2a_and_relu_return_uint64(rng):
    # numpy 1.24 promotes a uint64 array mixed with a Python int to float64
    bits = rng.integers(0, 2, 70).astype(np.uint8)
    o0, o1, _ = run_two_party(b2a, (bits,), (bits,))
    assert o0.dtype == o1.dtype == np.uint64
    x0, x1 = _shared(rng, _signed_values(rng, (70,)))
    (v0, m0), (v1, m1), _ = run_two_party(relu, (x0,), (x1,))
    assert {a.dtype for a in (v0, m0, v1, m1)} == {np.dtype(np.uint64)}


def test_relu_exact(rng):
    for shape in _SHAPES:
        x = _signed_values(rng, shape)
        x0, x1 = _shared(rng, x)
        (v0, m0), (v1, m1), meter = run_two_party(relu, (x0,), (x1,))
        got = lift_signed(reconstruct(v0, v1))
        assert np.array_equal(got, np.maximum(lift_signed(x), 0))
        mask = reconstruct(m0, m1)
        assert np.array_equal(mask, (lift_signed(x) >= 0).astype(np.uint64))
        assert meter.rounds == 5  # sign bit + one daBit opening


# ring elements at and around the signed extremes, 0 and -1
_RELU_EDGES = [0, 1, 2 ** 64 - 1, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1]


@given(st.lists(st.one_of(st.integers(0, 2 ** 64 - 1),
                          st.sampled_from(_RELU_EDGES)),
                min_size=1, max_size=200),
       st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_relu_property(values, seed):
    x = np.array(values, dtype=np.uint64)
    x0, x1 = _shared(np.random.default_rng(seed), x)
    (v0, m0), (v1, m1), _ = run_two_party(relu, (x0,), (x1,))
    assert np.array_equal(lift_signed(reconstruct(v0, v1)),
                          np.maximum(lift_signed(x), 0))
    assert np.array_equal(reconstruct(m0, m1),
                          (lift_signed(x) >= 0).astype(np.uint64))


def test_highest_one_hot(rng):
    for shape in _SHAPES:
        x = _signed_values(rng, shape)  # x.flat[0] = 0: the all-zero row
        x0, x1 = _shared(rng, x)
        o0, o1, meter = run_two_party(highest_one_hot, (x0,), (x1,))
        top = np.array([int(v).bit_length() - 1 for v in x.flat])
        onehot = np.arange(64) == top.reshape(shape + (1,))
        assert np.array_equal(reconstruct(o0, o1), onehot.astype(np.uint64))
        assert meter.rounds == 8  # bit_decompose 4, prefix OR 3, b2a 1


@pytest.mark.parametrize("n", [1, 7, 65, 1000])
@pytest.mark.parametrize("fn, online, offline, rounds, messages", [
    # bit_decompose opens msb's 94 owned rows a party in round 1, then 55,
    # 31 and 76 shared rows from both parties: 2 * (94 + 55 + 31 + 76) =
    # 512. Mask products: msb's 154 chunk terms and 31 g_2c = a_2c b_2c;
    # radix 4 over the 32 units, 15 G products a group and 7 more for its P
    # in groups 1..7: 8 * 15 + 7 * 7 = 169; radix 4 over the 8 groups, 60 G
    # products a block and 28 for block 1's P: 148; radix 2, 16 G products
    # P_i G_15 and p_2c folded into C_(c-1), 1 product for c <= 16 and 4 for
    # the 14 above (p G, p P, p G_15, p P G_15): 16 + 16 + 56 = 88. So
    # 185 + 169 + 148 + 88 = 590.
    (bit_decompose, 512, 590, 4, 8),
    # msb opens 94 rows a party in round 1 (bits 0..62 and one pair product
    # per chunk), then 47, 27 and 6 shared rows from both parties:
    # 2 * (94 + 47 + 27 + 6) = 348. Mask products: 3 + 30 * 5 + 1 = 154
    # chunk terms, 16 + 15 radix-2 gates, 4 * 15 + 3 * 7 and 15 radix-4
    # ones: 154 + 31 + 81 + 15 = 281. Each round is one message a party.
    (msb, 348, 281, 4, 8),
    # msb + 2 + 128 bits; 281 + 128 offline; bit_mult frames its two
    # openings, one message a party
    (relu, 478, 409, 5, 10),
    # msb over 32 bits opens 46 rows a party in round 1 (bits 0..30 and one
    # pair product for each of the 15 chunks), then 27 and 6 shared rows:
    # 2 * (46 + 27 + 6) = 158. Mask products: 3 + 14 * 5 + 1 = 74 chunk
    # terms, then radix 4 over the 16 units, 15 G products a group and 7
    # for its P in groups 1..3: 4 * 15 + 3 * 7 = 81, and radix 4 over the
    # 4 groups: 15. So 74 + 81 + 15 = 170, in 3 rounds of one message a party
    (functools.partial(msb, bits=SIGN_BITS), 158, 170, 3, 6),
    # msb over 32 bits + 2 + 128 bits; 170 + 128 offline
    (functools.partial(relu, bits=SIGN_BITS), 288, 298, 4, 8),
    # bit_decompose + prefix OR + 64 b2a bits (2 online, 64 offline each):
    # 512 + 330 + 128 and 590 + 528 + 4096
    (highest_one_hot, 970, 5214, 8, 16),
    # three radix-4 levels open 64, 52 and 49 rows: 2 * 165 = 330. A block
    # of 4 deals all 11 subsets of 2+ rows: 16 * 11 = 176; a block of 4
    # spans deals, per row i below the top span, the subsets holding i of i
    # and the bottoms above it (4 * 7 + 3 * 3 + 3 * 1, a bottom row's own
    # being the bottoms' subsets), and the 4 subsets of the three bottoms
    # alone: 44 a block, 4 * 44 = 176; the last level likewise
    # 16 * 7 + 15 * 3 + 15 + 4 = 176. So 528.
    (_prefix_or_high, 330, 528, 3, 6),
], ids=["bit_decompose", "msb", "relu", "msb32", "relu32", "highest_one_hot",
        "prefix_or_high"])
def test_gmw_layer_costs(rng, n, fn, online, offline, rounds, messages):
    """Online and offline bits per element, rounds and messages per call."""
    x0, x1 = _shared(rng, random_ring(rng, (n,)))
    _, _, meter = run_two_party(fn, (x0,), (x1,))
    assert meter.online_bits == online * n
    assert meter.offline_bits == offline * n
    assert meter.rounds == rounds
    assert meter.framing_bits // FRAME_BITS == messages
