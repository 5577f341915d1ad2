"""Fixed-point encoding and 2-out-of-2 additive secret sharing over Z_2^64.

All shared values are numpy arrays of dtype uint64; arithmetic wraps modulo
2^64, which is exactly the ring group law. Negative reals are embedded in
two's complement. Multiplying two fixed-point values doubles the scale, so
products are followed by a share-wise probabilistic truncation by 2^f:
party 0 floors its share, party 1 negates-floors-negates. The reconstructed
result is off by at most one unit in the last place, except for a wrap event
whose probability is bounded by |x| / 2^63.

The format is fixed: FRAC_BITS fractional bits, and encodable reals satisfy
|x| < MAX_ABS, which leaves headroom below 2^63 for one product at scale
2^(2 * FRAC_BITS) before truncation.
"""

from __future__ import annotations

from operator import index

import numpy as np

RING_BITS = 64
MASK = (1 << RING_BITS) - 1
FRAC_BITS = 16
MAX_ABS = 2 ** (RING_BITS - FRAC_BITS - 1)


class OverflowRangeError(ValueError):
    """Raised when a real value does not fit the fixed-point range."""


def as_ring(x) -> np.ndarray:
    """Coerce python ints / arrays to a uint64 ring array (at least 1-d)."""
    arr = np.asarray(x)
    if np.issubdtype(arr.dtype, np.inexact):
        raise TypeError(f"as_ring takes integers, not {arr.dtype}; "
                        "encode reals with encode_fixed")
    if arr.dtype == np.uint64:
        out = arr
    elif np.issubdtype(arr.dtype, np.integer):
        out = arr.astype(np.int64).astype(np.uint64)
    else:
        out = np.array([index(v) & MASK for v in np.atleast_1d(arr).ravel()],
                       dtype=np.uint64).reshape(np.shape(arr))
    return np.atleast_1d(out)


def encode_fixed(x) -> np.ndarray:
    """Encode reals as round(x * 2^FRAC_BITS) mod 2^64 (two's complement)."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all(np.abs(arr) < MAX_ABS):  # NaN fails the comparison too
        raise OverflowRangeError(
            f"value out of range: |x| must be < 2^{RING_BITS - FRAC_BITS - 1} "
            "and not NaN")
    scaled = np.round(arr * (1 << FRAC_BITS)).astype(np.int64)
    return scaled.astype(np.uint64)


def decode_fixed(e) -> np.ndarray:
    """Centered lift to (-2^63, 2^63] divided by 2^FRAC_BITS."""
    arr = as_ring(e)
    return arr.astype(np.int64).astype(np.float64) / (1 << FRAC_BITS)


def share_secret(x, rand) -> tuple[np.ndarray, np.ndarray]:
    """Split x into (rand, x - rand); reconstruction is exact."""
    xv = as_ring(x)
    r = as_ring(rand)
    if r.shape != xv.shape:
        raise ValueError("randomness shape must match secret shape")
    return r.copy(), xv - r


def reconstruct(s0, s1) -> np.ndarray:
    return as_ring(s0) + as_ring(s1)


def random_ring(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform ring elements from a numpy generator."""
    return rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)


def truncate_share(share, party: int, f: int) -> np.ndarray:
    """Share-wise probabilistic truncation by 2^f.

    Party 0 outputs floor(s0 / 2^f); party 1 outputs -floor(-s1 / 2^f).
    """
    s = as_ring(share)
    shift = np.uint64(f)
    if party == 0:
        return s >> shift
    out = np.negative(s)
    out >>= shift
    return np.negative(out, out=out)


def lift_signed(e) -> np.ndarray:
    """Centered integer lift of ring elements to int64."""
    return as_ring(e).astype(np.int64)
