"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
with its wall-clock budget. Tolerances are pinned in the assertions."""

import math
import time
from contextlib import contextmanager

import numpy as np

from conftest import random_sparse
from vsmm.binary import relu
from vsmm.decompose import Permutation, decompose_full, reconstruct_dense
from vsmm.gcn import (TrainConfig, clear_forward, clear_loss, init_weights,
                      make_synthetic_community, reference_train_clear,
                      secure_gradients, train_secure)
from vsmm.nonlinear import quad_poly, rsqrt, rsqrt_eps
from vsmm.protocols import op, osm
from vsmm.ring import (decode_fixed, encode_fixed, lift_signed, random_ring,
                       reconstruct, share_secret)
from vsmm.runtime import run_two_party
from vsmm.smm import SmmDims, beaver_dense_online_bits, smm, smm_online_bits


@contextmanager
def criterion(capsys, num, name, limit_s):
    start = time.time()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {num} ({name}): FAIL")
        raise
    elapsed = time.time() - start
    ok = elapsed < limit_s
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} "
              f"[{elapsed:.1f}s, budget {limit_s}s]")
    assert ok, f"time limit exceeded: {elapsed:.1f}s >= {limit_s}s"


def _shared(rng, x):
    return share_secret(x, random_ring(rng, x.shape))


def test_1_decomposition_soundness(capsys):
    with criterion(capsys, 1, "decomposition soundness, 1000 matrices", 10):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            m = int(rng.integers(1, 65))
            n = int(rng.integers(1, 65))
            t = int(rng.integers(1, 4 * max(m, n) + 1))
            a = random_sparse(rng, m, n, t)
            assert np.allclose(reconstruct_dense(decompose_full(a)),
                               a.to_dense(), atol=1e-9)


def test_2_op_osm_correctness(capsys):
    with criterion(capsys, 2, "OP/OSM exactness, payload, 1 round", 30):
        rng = np.random.default_rng(22)
        # 10^4 OP instances: 50 calls x 200 independent column instances
        for _ in range(50):
            k, d = int(rng.integers(2, 65)), 200
            sigma = Permutation(rng.permutation(k))
            x = random_ring(rng, (d, k))
            x0, x1 = _shared(rng, x)
            o0, o1, meter = run_two_party(op, (sigma, x0), (None, x1))
            assert np.array_equal(reconstruct(o0, o1), x[:, sigma.p])
            assert meter.rounds == 1
            assert meter.online_bits == d * (k * 64 + k * math.ceil(math.log2(k)))
        # 10^4 OSM instances: 10 calls x 1000 elements
        for _ in range(10):
            n = 1000
            s = rng.integers(0, 2, n).astype(np.uint64)
            x = random_ring(rng, (n,))
            x0, x1 = _shared(rng, x)
            o0, o1, meter = run_two_party(osm, (s, x0), (None, x1))
            assert np.array_equal(reconstruct(o0, o1), s * x)
            assert meter.rounds == 1
            assert meter.online_bits == n * (64 + 1)


def test_3_smm_exactness_rounds_formula(capsys):
    with criterion(capsys, 3, "SMM exactness, 2 rounds, payload formula", 60):
        rng = np.random.default_rng(33)
        for _ in range(100):
            m = int(rng.integers(2, 33))
            n = int(rng.integers(2, 33))
            t = int(rng.integers(1, 2 * max(m, n)))
            d = int(rng.integers(1, 5))
            a = random_sparse(rng, m, n, t, integer=True)
            bundle = decompose_full(a)
            dims = SmmDims(bundle.m, bundle.n, bundle.t)
            x = rng.integers(-100, 100, (n, d)).astype(np.int64).astype(np.uint64)
            x0, x1 = _shared(rng, x)

            def proto(ctx, b, xin, dims=dims):
                return smm(ctx, b, dims, xin)

            o0, o1, meter = run_two_party(proto, (bundle, x0), (None, x1))
            expect = a.to_dense().astype(np.int64) @ lift_signed(x)
            assert np.array_equal(lift_signed(reconstruct(o0, o1)), expect)
            # party 0 sends its 8 corrections in round 1 with party 1's
            # x - U; party 1's 7 later masked shares need only those, so
            # they are round 2 (formerly 8 one-round steps)
            assert meter.rounds == 2
            assert meter.online_bits == smm_online_bits(dims.m, dims.n, dims.t, d)


def _measure_smm_saving(nodes: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    a = random_sparse(rng, nodes, nodes, nodes, integer=True)
    bundle = decompose_full(a)
    dims = SmmDims(bundle.m, bundle.n, bundle.t)
    x = rng.integers(-5, 5, (nodes, 1)).astype(np.int64).astype(np.uint64)
    x0, x1 = share_secret(x, random_ring(rng, x.shape))

    def proto(ctx, b, xin):
        return smm(ctx, b, dims, xin)

    _, _, meter = run_two_party(proto, (bundle, x0), (None, x1))
    baseline = beaver_dense_online_bits(nodes, nodes, 1)
    return 1.0 - meter.online_bits / baseline


def test_4_smm_communication_saving(capsys):
    with criterion(capsys, 4, "SMM saving >= 95% at 1000, >= 99% at 5000", 360):
        assert _measure_smm_saving(1000, seed=44) >= 0.95
        assert _measure_smm_saving(5000, seed=45) >= 0.99


def test_5_rsqrt_family(capsys):
    with criterion(capsys, 5, "rsqrt family accuracy", 30):
        assert abs(quad_poly(1.0) - 0.99641) < 2 ** -12
        rng = np.random.default_rng(55)
        x = np.exp(rng.uniform(np.log(2.0 ** -8), np.log(2.0 ** 8), 400))
        x0, x1 = _shared(rng, encode_fixed(x))
        o0, o1, _ = run_two_party(rsqrt, (x0,), (x1,))
        rel = np.abs(decode_fixed(reconstruct(o0, o1)) - 1 / np.sqrt(x)) * np.sqrt(x)
        assert rel.max() <= 0.01
        # boundary: v = 0 must return ~1/eps
        eps = 0.001
        z0, z1 = _shared(rng, np.zeros(8, dtype=np.uint64))

        def proto(ctx, v):
            return rsqrt_eps(ctx, v, eps)

        o0, o1, _ = run_two_party(proto, (z0,), (z1,))
        got = decode_fixed(reconstruct(o0, o1))
        assert np.abs(got - 1 / eps).max() <= 0.01 / eps


def test_6_relu_exactness(capsys):
    with criterion(capsys, 6, "ReLU exact on 10^4 signed inputs", 30):
        rng = np.random.default_rng(66)
        x = rng.integers(-2 ** 40, 2 ** 40, 10 ** 4).astype(np.int64).astype(np.uint64)
        x0, x1 = _shared(rng, x)

        def proto(ctx, xv):
            return relu(ctx, xv)

        (v0, _), (v1, _), _ = run_two_party(proto, (x0,), (x1,))
        got = lift_signed(reconstruct(v0, v1))
        assert np.array_equal(got, np.maximum(lift_signed(x), 0))


def test_7_training_parity(capsys):
    with criterion(capsys, 7, "secure vs clear training parity (SGD, Adam)", 600):
        ds = make_synthetic_community(32, seed=0)
        for opt, lr in (("sgd", 0.5), ("adam", 0.02)):
            cfg = TrainConfig(optimizer=opt, lr=lr, epochs=50, seed=0)
            ref = reference_train_clear(ds, cfg)
            res, _ = train_secure(ds, cfg)
            assert abs(res["test_acc"] - ref["test_acc"]) <= 0.05, opt
            agree = (res["predictions"] == ref["predictions"]).mean()
            assert agree >= 0.90, opt


def test_8_transcript_data_independence(capsys):
    with criterion(capsys, 8, "transcript independent of topology", 10):
        reports = []
        for seed in (81, 82):
            rng = np.random.default_rng(seed)
            a = random_sparse(rng, 20, 20, 40, integer=True)
            bundle = decompose_full(a)
            dims = SmmDims(20, 20, 40)
            x = rng.integers(-9, 9, (20, 3)).astype(np.int64).astype(np.uint64)
            x0, x1 = share_secret(x, random_ring(rng, x.shape))

            def proto(ctx, b, xin, dims=dims):
                return smm(ctx, b, dims, xin)

            _, _, meter = run_two_party(proto, (bundle, x0), (None, x1))
            reports.append(meter.report())
        assert reports[0]["online_bits"] == reports[1]["online_bits"]
        assert reports[0]["offline_bits"] == reports[1]["offline_bits"]
        assert reports[0]["sections"] == reports[1]["sections"]


def test_9_gradient_validity(capsys):
    with criterion(capsys, 9, "secure gradients vs finite differences", 60):
        ds = make_synthetic_community(16, seed=2)
        w1, w2 = init_weights(ds.features.shape[1], 6, ds.num_classes, 2)
        g1, g2, _ = secure_gradients(ds, w1, w2)
        a = ds.adj_norm.to_dense()

        def loss_at(w1v, w2v):
            logits, _, _ = clear_forward(a, ds.features, w1v, w2v)
            return clear_loss(logits, ds.labels, ds.train_mask)

        h = 1e-5
        fd1 = np.zeros_like(w1)
        for idx in np.ndindex(w1.shape):
            up, dn = w1.copy(), w1.copy()
            up[idx] += h
            dn[idx] -= h
            fd1[idx] = (loss_at(up, w2) - loss_at(dn, w2)) / (2 * h)
        fd2 = np.zeros_like(w2)
        for idx in np.ndindex(w2.shape):
            up, dn = w2.copy(), w2.copy()
            up[idx] += h
            dn[idx] -= h
            fd2[idx] = (loss_at(w1, up) - loss_at(w1, dn)) / (2 * h)

        def cos(x, y):
            x, y = x.ravel(), y.ravel()
            return float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y)))

        assert cos(g1, fd1) >= 0.99
        assert cos(g2, fd2) >= 0.99
