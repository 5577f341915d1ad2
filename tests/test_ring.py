import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsmm.ring import (FRAC_BITS, MAX_ABS, OverflowRangeError, as_ring,
                       decode_fixed, encode_fixed, lift_signed,
                       random_ring, reconstruct, share_secret, truncate_share)


def test_fixed_point_format():
    assert FRAC_BITS == 16
    assert MAX_ABS == 2 ** 47
    assert int(encode_fixed(1.0)[0]) == 1 << FRAC_BITS


def test_encode_decode_exact_integers():
    x = np.array([0.0, 1.0, -1.0, 123.5, -0.25])
    assert np.allclose(decode_fixed(encode_fixed(x)), x)


def test_encode_range_check():
    with pytest.raises(OverflowRangeError):
        encode_fixed(np.array([2.0 ** 47]))
    encode_fixed(np.array([2.0 ** 47 - 1]))  # in range


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_encode_rejects_non_finite(bad):
    with pytest.raises(OverflowRangeError):
        encode_fixed(np.array([1.0, bad]))


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_encode_decode_roundtrip_error(x):
    err = abs(float(decode_fixed(encode_fixed(np.float64(x)))[0]) - x)
    assert err <= 2.0 ** -17  # half an ulp of the f=16 grid


@given(st.integers(min_value=-(2 ** 62), max_value=2 ** 62), st.integers(0, 2 ** 64 - 1))
@settings(max_examples=200, deadline=None)
def test_share_reconstruct_exact(x, r):
    xv = as_ring(np.array([x]))
    s0, s1 = share_secret(xv, as_ring(np.array([r])))
    assert np.array_equal(reconstruct(s0, s1), xv)


def test_share_shape_mismatch():
    with pytest.raises(ValueError):
        share_secret(np.zeros(3, np.uint64), np.zeros(4, np.uint64))


def test_truncation_error_at_most_one_ulp(rng):
    x = rng.uniform(-1000, 1000, 500)
    enc = encode_fixed(x * 1.0)
    prod = enc * encode_fixed(np.ones_like(x))  # scale 2^(2f)
    s0, s1 = share_secret(prod, random_ring(rng, prod.shape))
    out = reconstruct(truncate_share(s0, 0, 16), truncate_share(s1, 1, 16))
    err = np.abs(decode_fixed(out) - decode_fixed(enc))
    assert err.max() <= 2.0 ** -15  # one ulp plus the encoding half-ulp


def test_truncate_share_matches_integer_floor(rng):
    # party 0: floor(s / 2^f); party 1: -floor(-s / 2^f), both mod 2^64
    s = np.concatenate([random_ring(rng, (200,)), np.array(
        [0, 1, 2 ** 16 - 1, 2 ** 16, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)])
    before = s.copy()
    for party in (0, 1):
        got = truncate_share(s, party, 16)
        want = [(int(v) >> 16 if party == 0 else -((-int(v) % 2 ** 64) >> 16))
                % 2 ** 64 for v in s]
        assert got.tolist() == want
    assert np.array_equal(s, before)  # the share is not written in place


def test_lift_signed_centered():
    assert lift_signed(np.array([np.uint64(2 ** 64 - 5)]))[0] == -5
    assert lift_signed(np.array([np.uint64(7)]))[0] == 7


def test_as_ring_python_ints():
    assert as_ring(-1)[0] == np.uint64(2 ** 64 - 1)
    assert as_ring([1, 2]).dtype == np.uint64


def test_as_ring_rejects_floats():
    """A float array would be truncated toward zero, so sharing 0.5 would
    share 0; reals go through encode_fixed instead."""
    for x in (np.array([1.5, -2.7]), 0.5, np.float32(1.0)):
        with pytest.raises(TypeError, match="encode_fixed"):
            as_ring(x)
    with pytest.raises(TypeError, match="encode_fixed"):
        share_secret(np.array([0.5]), np.zeros(1, dtype=np.uint64))
    with pytest.raises(TypeError):  # a float inside an object array
        as_ring(np.array([1, 1.5], dtype=object))
    assert as_ring(np.array([2 ** 64 - 1, -1], dtype=object)).tolist() == \
        [2 ** 64 - 1] * 2
    assert as_ring(np.array([-3], dtype=np.int8))[0] == np.uint64(2 ** 64 - 3)
