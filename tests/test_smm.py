import numpy as np
import pytest

from conftest import random_sparse
from vsmm.decompose import SparseMatrixCOO, decompose_full
from vsmm.ring import (decode_fixed, encode_fixed, lift_signed, random_ring,
                       reconstruct, share_secret)
from vsmm.runtime import run_two_party
from vsmm.smm import (SmmDims, beaver_dense_online_bits, smm, smm_online_bits,
                      smm_offline_bits, smm_transpose)


def _run_smm(a, x, rng, shared=True, variant="forward", fixed_point=False):
    bundle = decompose_full(a)
    dims = SmmDims(bundle.m, bundle.n, bundle.t)
    fn = {"forward": smm, "transpose": smm_transpose}[variant]

    def proto(ctx, b, xin):
        return fn(ctx, b, dims, xin, shared=shared, fixed_point=fixed_point)

    if shared:
        x0, x1 = share_secret(x, random_ring(rng, x.shape))
    else:
        x0, x1 = np.zeros_like(x), x
    o0, o1, meter = run_two_party(proto, (bundle, x0), (None, x1))
    return reconstruct(o0, o1), meter, dims


def test_smm_integer_exact(rng):
    a = random_sparse(rng, 10, 8, 20, integer=True)
    x = rng.integers(-100, 100, (8, 3)).astype(np.int64).astype(np.uint64)
    got, meter, dims = _run_smm(a, x, rng)
    expect = a.to_dense().astype(np.int64) @ lift_signed(x)
    assert np.array_equal(lift_signed(got), expect)
    assert meter.rounds == 8


def test_smm_plain_input_mode(rng):
    a = random_sparse(rng, 6, 9, 12, integer=True)
    for variant in ("forward", "transpose"):
        dense = a.to_dense().astype(np.int64)
        if variant == "transpose":
            dense = dense.T
        x = rng.integers(-50, 50, (dense.shape[1], 2)).astype(np.int64)
        got, _, _ = _run_smm(a, x.astype(np.uint64), rng, shared=False,
                             variant=variant)
        assert np.array_equal(lift_signed(got), dense @ x)


def test_smm_fixed_point(rng):
    a = random_sparse(rng, 8, 8, 16)
    xf = rng.uniform(-5, 5, (8, 2))
    got, _, _ = _run_smm(a, encode_fixed(xf), rng, fixed_point=True)
    expect = a.to_dense() @ xf
    assert np.abs(decode_fixed(got) - expect).max() < 1e-3


def test_smm_transpose_exact(rng):
    a = random_sparse(rng, 7, 11, 18, integer=True)
    g = rng.integers(-30, 30, (7, 2)).astype(np.int64).astype(np.uint64)
    got, meter, _ = _run_smm(a, g, rng, variant="transpose")
    expect = a.to_dense().astype(np.int64).T @ lift_signed(g)
    assert np.array_equal(lift_signed(got), expect)
    assert meter.rounds == 8


def test_smm_payload_matches_formula(rng):
    a = random_sparse(rng, 12, 9, 25, integer=True)
    x = rng.integers(-5, 5, (9, 4)).astype(np.int64).astype(np.uint64)
    _, meter, dims = _run_smm(a, x, rng)
    assert meter.online_bits == smm_online_bits(dims.m, dims.n, dims.t, 4)
    assert meter.offline_bits == smm_offline_bits(dims.m, dims.n, dims.t, 4)


def test_smm_transpose_same_tape_shapes(rng):
    """Forward and transposed calls consume identical tuple sequences, so one
    provisioned tape serves either direction."""
    a = random_sparse(rng, 9, 9, 20, integer=True)
    x = rng.integers(-5, 5, (9, 2)).astype(np.int64).astype(np.uint64)
    _, m1, dims = _run_smm(a, x, rng)
    _, m2, _ = _run_smm(a, x, rng, variant="transpose")
    assert m1.online_bits == m2.online_bits
    assert m1.offline_bits == m2.offline_bits


def test_transcript_independent_of_topology(rng):
    """Same (m, n, t) but different edge placement: byte-identical metering,
    per protocol section."""
    meters = []
    for seed in (1, 2):
        r = np.random.default_rng(seed)
        a = random_sparse(r, 16, 16, 30, integer=True)
        x = r.integers(-5, 5, (16, 3)).astype(np.int64).astype(np.uint64)
        _, meter, _ = _run_smm(a, x, rng)
        meters.append(meter)
    r1, r2 = (m.report() for m in meters)
    assert r1["online_bits"] == r2["online_bits"]
    assert r1["sections"] == r2["sections"]


def test_zero_dimension_edge_single_entry(rng):
    a = SparseMatrixCOO.from_entries(4, 5, [(2, 3, 7.0)])
    x = rng.integers(-5, 5, (5, 1)).astype(np.int64).astype(np.uint64)
    got, _, _ = _run_smm(a, x, rng)
    expect = a.to_dense().astype(np.int64) @ lift_signed(x)
    assert np.array_equal(lift_signed(got), expect)


def test_dense_baseline_formula():
    assert beaver_dense_online_bits(10, 20, 3) == 2 * (200 + 60) * 64


def test_saving_exceeds_dense_at_sparse_shapes():
    v = 1000
    assert smm_online_bits(v, v, v, 1) < 0.05 * beaver_dense_online_bits(v, v, 1)


def test_bundle_dims_mismatch(rng):
    a = random_sparse(rng, 4, 4, 6, integer=True)
    bundle = decompose_full(a)
    dims = SmmDims(5, 4, 6)
    x = np.zeros((4, 1), dtype=np.uint64)

    def proto(ctx, b, xin):
        return smm(ctx, b, dims, xin)

    with pytest.raises(ValueError):
        run_two_party(proto, (bundle, x), (None, x))
