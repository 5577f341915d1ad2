from dataclasses import replace

import numpy as np
import pytest

from conftest import random_sparse
from vsmm.decompose import (DecomposeError, Perm, Permutation, Select,
                            SparseMatrixCOO, Weight, decompose_full,
                            factor_steps, reconstruct_dense)
from vsmm.protocols import op, osm, priv_mult
from vsmm.ring import (FRAC_BITS, decode_fixed, encode_fixed, lift_signed,
                       random_ring, reconstruct, share_secret, truncate_share)
from vsmm.runtime import FRAME_BITS, run_two_party
from vsmm.smm import (SmmDims, beaver_dense_online_bits, smm, smm_online_bits,
                      smm_offline_bits, smm_transpose)


def _run_smm(a, x, rng, shared=True, variant="forward"):
    bundle = decompose_full(a)
    dims = SmmDims(bundle.m, bundle.n, bundle.t)
    fn = {"forward": smm, "transpose": smm_transpose}[variant]

    def proto(ctx, b, xin):
        return fn(ctx, b, dims, xin)

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
    assert meter.rounds == 2


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
    got, _, _ = _run_smm(a, encode_fixed(xf), rng)
    expect = a.to_dense() @ xf
    assert np.abs(decode_fixed(got) - expect).max() < 1e-3


def test_smm_transpose_exact(rng):
    a = random_sparse(rng, 7, 11, 18, integer=True)
    g = rng.integers(-30, 30, (7, 2)).astype(np.int64).astype(np.uint64)
    got, meter, _ = _run_smm(a, g, rng, variant="transpose")
    expect = a.to_dense().astype(np.int64).T @ lift_signed(g)
    assert np.array_equal(lift_signed(got), expect)
    assert meter.rounds == 2


@pytest.mark.parametrize("lead, advance, gain", [
    (None, (2, 1), 2),  # equal clocks
    (0, (2, 2), 2),     # party 0's corrections reach party 1 a round later
    (1, (2, 0), 1),     # and here party 1 reads them at no cost
], ids=["equal", "party0-ahead", "party1-ahead"])
def test_smm_clock_advance_follows_the_lead(rng, lead, advance, gain):
    """One smm call from three clock states, each set by one send_ring/
    recv_ring before it: both ways for equal clocks, else from the party
    behind to the one that leads. Party 0 always advances by 2, and party
    1 by 1, 2 or 0, so the run gains 2 rounds unless party 1 starts ahead."""
    a = random_sparse(rng, 7, 9, 16, integer=True)
    bundle = decompose_full(a)
    dims = SmmDims(bundle.m, bundle.n, bundle.t)
    x = rng.integers(-50, 50, (9, 2)).astype(np.int64).astype(np.uint64)
    x0, x1 = share_secret(x, random_ring(rng, x.shape))

    def proto(ctx, b, xin):
        if lead in (None, 1 - ctx.party):
            ctx.send_ring(np.zeros(1, dtype=np.uint64))
        if lead in (None, ctx.party):
            ctx.recv_ring((1,))
        start = ctx.ep.clock
        return smm(ctx, b, dims, xin), ctx.ep.clock - start

    (o0, d0), (o1, d1), meter = run_two_party(proto, (bundle, x0), (None, x1))
    expect = a.to_dense().astype(np.int64) @ lift_signed(x)
    assert np.array_equal(lift_signed(reconstruct(o0, o1)), expect)
    assert (d0, d1) == advance
    assert meter.rounds == 1 + gain  # the clocks stood at most at 1 before


def test_smm_payload_matches_formula(rng):
    a = random_sparse(rng, 12, 9, 25, integer=True)
    x = rng.integers(-5, 5, (9, 4)).astype(np.int64).astype(np.uint64)
    _, meter, dims = _run_smm(a, x, rng)
    assert meter.online_bits == smm_online_bits(dims.m, dims.n, dims.t, 4)
    assert meter.offline_bits == smm_offline_bits(dims.m, dims.n, dims.t, 4)


@pytest.mark.parametrize("variant", ["forward", "transpose"])
@pytest.mark.parametrize("d", [1, 16])
def test_smm_sends_three_messages(rng, variant, d):
    """Party 0 frames its eight corrections as one message; party 1 sends
    x - U at once and frames its seven later masked shares as another."""
    a = random_sparse(rng, 12, 9, 25, integer=True)
    bundle = decompose_full(a)
    dims = SmmDims(bundle.m, bundle.n, bundle.t)
    fn = {"forward": smm, "transpose": smm_transpose}[variant]
    x = rng.integers(-5, 5, (a.n if variant == "forward" else a.m, d))
    x0, x1 = share_secret(x.astype(np.uint64), random_ring(rng, x.shape))

    def proto(ctx, b, xin):
        fn(ctx, b, dims, xin)
        return ctx.ep.messages

    sent0, sent1, meter = run_two_party(proto, (bundle, x0), (None, x1))
    assert (sent0, sent1) == (1, 2)
    assert meter.framing_bits == 3 * FRAME_BITS
    assert meter.online_bits == smm_online_bits(dims.m, dims.n, dims.t, d)
    assert meter.rounds == 2


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


@pytest.mark.parametrize("variant", ["forward", "transpose"])
def test_x_of_wrong_height_is_rejected(rng, variant):
    """X must have n rows for smm and m rows for smm_transpose; a flat
    reshape would read an (8, 1) X for n = 4 as (4, 2)."""
    a = random_sparse(rng, 3, 4, 6, integer=True)
    bundle = decompose_full(a)
    dims = SmmDims(bundle.m, bundle.n, bundle.t)
    fn = smm if variant == "forward" else smm_transpose
    rows = 2 * (dims.n if variant == "forward" else dims.m)
    x = np.zeros((rows, 1), dtype=np.uint64)

    def proto(ctx, b, xin):
        return fn(ctx, b, dims, xin)

    with pytest.raises(ValueError, match="rows"):
        run_two_party(proto, (bundle, x), (None, x))


@pytest.mark.parametrize("variant", ["forward", "transpose"])
def test_one_truncation_within_one_ulp(rng, variant):
    """smm is one exact ring map and one truncation, so each output is
    within 1 ulp of floor(sum encode(lam) * x_enc / 2^f), however many terms
    its row sums: here about 30, with fractional weights."""
    for _ in range(5):
        a = random_sparse(rng, 6, 40, 180)
        dense = a.to_dense() if variant == "forward" else a.to_dense().T
        lam = [[int(v) for v in row] for row in lift_signed(encode_fixed(dense))]
        x = encode_fixed(rng.uniform(-5, 5, (dense.shape[1], 3)))
        xs = [[int(v) for v in row] for row in lift_signed(x)]
        got, _, _ = _run_smm(a, x, rng, variant=variant)
        want = [[sum(lam[i][k] * xs[k][j] for k in range(len(xs)))
                 >> FRAC_BITS for j in range(3)] for i in range(len(lam))]
        assert np.abs(lift_signed(got) - np.array(want)).max() <= 1


@pytest.mark.parametrize("field", ["ncol", "nrow", "sigma1", "sigma2",
                                   "sigma3", "sigma4", "sigma5", "lam"])
def test_selector_bound_is_checked(rng, field):
    """A selector that keeps more rows than min(side, t), a permutation
    whose degree is not its factor's (n, t, t, t, m), or weights not t long
    are rejected by the clear oracle and by party 0's smm."""
    m, n = (5, 8) if field == "ncol" else (8, 5)
    b = decompose_full(random_sparse(rng, m, n, 3, integer=True))
    degree = {"sigma1": b.n - 2, "sigma2": b.t + 1, "sigma3": b.t - 1,
              "sigma4": b.t + 2, "sigma5": b.m + 2}
    if field in degree:
        value = Permutation(np.arange(degree[field]))
    else:  # min(side, t) is 3
        value = b.lam[:-1] if field == "lam" else 4
    bad = replace(b, **{field: value})
    match = "selector" if field in ("ncol", "nrow") else "degrees"
    with pytest.raises(DecomposeError, match=match):
        reconstruct_dense(bad)
    dims = SmmDims(bad.m, bad.n, bad.t)
    x = np.zeros((bad.n, 1), dtype=np.uint64)

    def proto(ctx, b, xin):
        return smm(ctx, b, dims, xin)

    with pytest.raises(DecomposeError, match=match):
        run_two_party(proto, (bad, x), (None, x))


def _one_round_walk(ctx, steps, x):
    """The step list as the one-round op, osm and priv_mult, one step at a
    time on (d, L) rows, then one truncation: 8 rounds, and the reference
    for the two-round schedule's shares."""
    y = np.asarray(x, dtype=np.uint64).reshape(steps[0].k, -1).T
    for s in steps:
        if isinstance(s, Perm):
            y = op(ctx, s.sigma, y)
        elif isinstance(s, Select):
            sel = None if s.keep is None else np.broadcast_to(
                (np.arange(s.side) < s.keep).astype(np.uint64), y.shape)
            y = osm(ctx, sel, y)
        elif isinstance(s, Weight):
            lam = None if s.lam is None else encode_fixed(s.lam)
            y = priv_mult(ctx, lam, y)
        else:
            y = s.map(y)
    return truncate_share(y, ctx.party, FRAC_BITS).T


@pytest.mark.parametrize("variant", ["forward", "transpose"])
@pytest.mark.parametrize("fractional", [False, True])
def test_two_round_shares_match_one_round_walk(rng, variant, fractional):
    """Both parties' shares are byte-identical to the one-round protocols
    run step by step, with the same payload bits, in 2 rounds and 3
    messages: party 0's clock advances by 2 and party 1's by 1. Integer
    weights times integer X, or fractional weights times fixed-point X."""
    for d in (1, 2, 5):
        m, n = (int(v) for v in rng.integers(1, 20, 2))
        a = random_sparse(rng, m, n, int(rng.integers(1, 2 * max(m, n))),
                          integer=not fractional)
        bundle = decompose_full(a)
        dims = SmmDims(bundle.m, bundle.n, bundle.t)
        rows = n if variant == "forward" else m
        x = (encode_fixed(rng.uniform(-5, 5, (rows, d))) if fractional else
             rng.integers(-50, 50, (rows, d)).astype(np.uint64))
        x0, x1 = share_secret(x, random_ring(rng, x.shape))

        def fast(ctx, b, xin):
            return (smm if variant == "forward" else smm_transpose)(
                ctx, b, dims, xin)

        def walk(ctx, b, xin):
            steps = factor_steps(dims, b)
            if variant == "transpose":
                steps = [s.T for s in reversed(steps)]
            return _one_round_walk(ctx, steps, xin)

        f0, f1, fm = run_two_party(fast, (bundle, x0), (None, x1), seed=d)
        w0, w1, wm = run_two_party(walk, (bundle, x0), (None, x1), seed=d)
        assert f0.tobytes() == w0.tobytes() and f1.tobytes() == w1.tobytes()
        assert (fm.online_bits, fm.offline_bits) == \
            (wm.online_bits, wm.offline_bits)
        assert fm.framing_bits == 3 * FRAME_BITS
        assert {k: v["online_bits"] for k, v in fm.sections.items()} == \
            {k: v["online_bits"] for k, v in wm.sections.items()}
        assert fm.clocks == [2, 1] and fm.rounds == 2 and wm.rounds == 8


@pytest.mark.parametrize("variant", ["forward", "transpose"])
def test_smm_ignores_input_layout(rng, variant):
    """smm transposes its share once on entry, so C-ordered,
    Fortran-ordered and strided (k, d) shares give the same output shares
    and meters."""
    a = random_sparse(rng, 11, 9, 30, integer=True)
    bundle = decompose_full(a)
    dims = SmmDims(bundle.m, bundle.n, bundle.t)
    rows = a.n if variant == "forward" else a.m
    x = rng.integers(-50, 50, (rows, 4)).astype(np.uint64)
    x0, x1 = share_secret(x, random_ring(rng, x.shape))
    fn = smm if variant == "forward" else smm_transpose

    def proto(ctx, b, xin):
        return fn(ctx, b, dims, xin)

    def layouts(v):
        return [np.ascontiguousarray(v), np.asfortranarray(v),
                np.ascontiguousarray(v[::-1])[::-1]]

    runs = [run_two_party(proto, (bundle, a0), (None, a1), seed=3)
            for a0, a1 in zip(layouts(x0), layouts(x1))]
    dense = a.to_dense() if variant == "forward" else a.to_dense().T
    for o0, o1, meter in runs:
        assert np.array_equal(lift_signed(reconstruct(o0, o1)),
                              dense.astype(np.int64) @ lift_signed(x))
        assert (o0.tobytes(), o1.tobytes()) == \
            (runs[0][0].tobytes(), runs[0][1].tobytes())
        assert meter.report() == runs[0][2].report()
        assert meter.clocks == runs[0][2].clocks == [2, 1]
