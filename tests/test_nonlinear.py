import numpy as np
import pytest

from vsmm.nonlinear import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, QUAD_A, QUAD_B,
                            QUAD_C, adam_step, quad_poly, reciprocal, rsqrt,
                            rsqrt_eps, rsqrt_pow2, sgd_step, softmax_rows)
from vsmm.ring import (FRAC_BITS, decode_fixed, encode_fixed, random_ring,
                       reconstruct, share_secret)
from vsmm.runtime import run_two_party


def _shared(rng, x):
    return share_secret(x, random_ring(rng, x.shape))


def _run(proto, rng, *tensors):
    shares = [_shared(rng, t) for t in tensors]
    o0, o1, meter = run_two_party(proto,
                                  tuple(s[0] for s in shares),
                                  tuple(s[1] for s in shares))
    return reconstruct(o0, o1), meter


def test_quad_poly_at_one():
    assert abs(quad_poly(1.0) - 0.99641) < 2 ** -12
    # the folded coefficients agree with the (m/4)-argument quadratic
    m = np.linspace(1, 2, 9)
    assert np.allclose(QUAD_A * m ** 2 + QUAD_B * m + QUAD_C, quad_poly(m))


def test_rsqrt_pow2_exact_powers(rng):
    f = 16
    onehots = np.zeros((2, 64), dtype=np.uint64)
    onehots[0, f] = 1       # x = 1.0  -> 1/sqrt(1) = 1.0
    onehots[1, f + 2] = 1   # x = 4.0  -> 1/sqrt(4) = 0.5
    got, _ = _run(rsqrt_pow2, rng, onehots)
    assert np.allclose(decode_fixed(got), [1.0, 0.5], atol=2 ** -14)


def test_rsqrt_sweep_relative_error(rng):
    x = np.exp(rng.uniform(np.log(2.0 ** -8), np.log(2.0 ** 8), 300))
    got, _ = _run(rsqrt, rng, encode_fixed(x))
    rel = np.abs(decode_fixed(got) - 1 / np.sqrt(x)) * np.sqrt(x)
    assert rel.max() <= 0.01


def test_rsqrt_quarter_power_precision():
    # the quarter-power weights 2^((f-k)/4) group bit positions in fours
    assert FRAC_BITS % 4 == 0


def test_rsqrt_eps_zero_boundary(rng):
    eps = 0.001
    zero = np.zeros(4, dtype=np.uint64)

    def proto(ctx, v):
        return rsqrt_eps(ctx, v, eps)

    got, _ = _run(proto, rng, zero)
    assert np.abs(decode_fixed(got) - 1 / eps).max() <= 0.01 / eps


def test_rsqrt_eps_sweep(rng):
    eps = 0.01
    v = np.exp(rng.uniform(np.log(0.01), np.log(100.0), 200))

    def proto(ctx, vv):
        return rsqrt_eps(ctx, vv, eps)

    got, _ = _run(proto, rng, encode_fixed(v))
    expect = 1 / np.sqrt(v + eps * eps)
    assert (np.abs(decode_fixed(got) - expect) / expect).max() <= 0.01


def test_reciprocal(rng):
    x = np.exp(rng.uniform(np.log(0.1), np.log(100.0), 200))
    got, _ = _run(reciprocal, rng, encode_fixed(x))
    assert (np.abs(decode_fixed(got) - 1 / x) * x).max() <= 0.01


def test_softmax_rows_close_and_normalized(rng):
    y = rng.uniform(-3, 3, (40, 5))
    got, _ = _run(softmax_rows, rng, encode_fixed(y))
    sm = decode_fixed(got)
    e = np.exp(y - y.max(axis=1, keepdims=True))
    expect = e / e.sum(axis=1, keepdims=True)
    assert np.abs(sm - expect).max() <= 0.02
    assert np.abs(sm.sum(axis=1) - 1).max() <= 0.01


@pytest.mark.xfail(strict=True, reason="(1 + x/64)^64 leaves its valid range "
                   "for logit gaps of 128 or more; the rows decode to [0, 0]")
def test_softmax_large_logit_gap(rng):
    y = np.array([[0.0, -150.0], [0.0, -300.0]])
    got, _ = _run(softmax_rows, rng, encode_fixed(y))
    assert np.abs(decode_fixed(got) - [[1.0, 0.0], [1.0, 0.0]]).max() <= 0.02


def test_softmax_single_class(rng):
    y = encode_fixed(rng.uniform(-3, 3, (5, 1)))
    got, _ = _run(softmax_rows, rng, y)
    assert np.allclose(decode_fixed(got), 1.0)


def test_scale_public_and_sgd_step(rng):
    w = rng.uniform(-2, 2, 20)
    g = rng.uniform(-1, 1, 20)
    w_sh = _shared(rng, encode_fixed(w))
    g_sh = _shared(rng, encode_fixed(g))

    def proto(ctx, wv, gv):
        return sgd_step(ctx, wv, gv, lr=0.25)

    o0, o1, _ = run_two_party(proto, (w_sh[0], g_sh[0]), (w_sh[1], g_sh[1]))
    got = decode_fixed(reconstruct(o0, o1))
    assert np.abs(got - (w - 0.25 * g)).max() < 1e-3


def test_adam_step_matches_float_recurrence(rng):
    lr = 0.1
    w = rng.uniform(-1, 1, 16)
    grads = [rng.uniform(-1, 1, 16) for _ in range(3)]

    def proto(ctx, wv, *gvs):
        u = v = np.zeros(wv.shape, np.uint64)
        for gv in gvs:
            wv, u, v = adam_step(ctx, wv, gv, u, v, lr)
        return wv

    w_sh = _shared(rng, encode_fixed(w))
    g_sh = [_shared(rng, encode_fixed(g)) for g in grads]
    o0, o1, _ = run_two_party(proto,
                              (w_sh[0], *[s[0] for s in g_sh]),
                              (w_sh[1], *[s[1] for s in g_sh]))
    got = decode_fixed(reconstruct(o0, o1))

    u = np.zeros_like(w)
    v = np.zeros_like(w)
    ref = w.copy()
    for g in grads:
        u = ADAM_BETA1 * u + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g ** 2
        ref -= lr * u / np.sqrt(v + ADAM_EPS ** 2)
    assert np.abs(got - ref).max() <= 0.02
