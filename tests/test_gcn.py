import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

import vsmm.binary as binary
import vsmm.gcn as gcn
import vsmm.nonlinear as nonlinear
from vsmm.binary import SIGN_BITS
from vsmm.decompose import decompose_full
from vsmm.gcn import (TrainConfig, accuracy, clear_forward, clear_gradients,
                      init_weights, infer_secure, load_dataset, load_model,
                      make_synthetic_community, normalize_adjacency,
                      reference_train_clear, save_dataset, save_model,
                      secure_gradients, train_secure)
from vsmm.ring import encode_fixed, lift_signed
from vsmm.smm import smm_online_bits


@pytest.fixture(scope="module")
def ds():
    return make_synthetic_community(16, seed=1)


def test_normalize_adjacency_properties():
    edges = np.array([[0, 1], [1, 2]])
    a = normalize_adjacency(edges, 3).to_dense()
    assert np.allclose(a, a.T)
    assert np.abs(np.linalg.eigvalsh(a)).max() <= 1.0 + 1e-9
    assert (np.diag(a) > 0).all()  # self-loops present


def test_normalize_adjacency_range_check():
    with pytest.raises(ValueError):
        normalize_adjacency(np.array([[0, 5]]), 3)
    with pytest.raises(ValueError, match=r"edge \(4, 9\) out of range"):
        normalize_adjacency(np.array([[0, 1], [4, 9], [-1, 0]]), 5)


def test_normalize_adjacency_equals_dense_formula():
    # a repeated edge, both orientations of one edge, a self-loop (which the
    # dense formula weights 2) and an isolated node 4
    edges = np.array([[0, 1], [0, 1], [2, 1], [1, 2], [3, 3]])
    n = 5
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    a += np.eye(n)
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    want = dinv[:, None] * a * dinv[None, :]
    got = normalize_adjacency(edges, n)
    rr, cc = np.nonzero(want)
    assert (got.m, got.n) == (n, n)
    assert np.array_equal(got.rows, rr) and np.array_equal(got.cols, cc)
    assert np.array_equal(got.weights, want[rr, cc])


def test_normalize_adjacency_at_fifty_thousand_nodes():
    # int32 edges, whose keys u*n + v pass 2^31 from n = 46,341 on: nodes 0
    # and n - 2 have degree 2 with the self-loop, node n - 1 degree 3
    n = 50_000
    a = normalize_adjacency(np.array([[0, n - 1], [n - 2, n - 1]], np.int32), n)
    assert a.t == n + 4
    got = dict(zip(zip(a.rows.tolist(), a.cols.tolist()), a.weights))
    for (u, v), want in {(0, n - 1): 1 / np.sqrt(6), (n - 1, 0): 1 / np.sqrt(6),
                         (n - 2, n - 1): 1 / np.sqrt(6),
                         (n - 1, n - 2): 1 / np.sqrt(6), (0, 0): 0.5,
                         (n - 2, n - 2): 0.5, (n - 1, n - 1): 1 / 3,
                         (1, 1): 1.0}.items():
        assert got[u, v] == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("n, seed, digest", [
    (16, 1, "18115648eb32e11096d61b511bfa8a5efefb08c1888630ce0c2778ac1e06ec42"),
    (32, 0, "e8eab3e57e5aa6e57783764e32bd8e827f886bbf6c86e396b6d1daea957b9141"),
])
def test_synthetic_dataset_is_pinned(n, seed, digest):
    g = make_synthetic_community(n, seed=seed)
    h = hashlib.sha256()
    for arr in (g.edges, g.features, g.labels, g.train_mask):
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == digest


def test_synthetic_dataset_shape():
    g = make_synthetic_community(32, seed=0)
    assert g.num_nodes == 32 and g.num_classes == 2
    assert g.features.shape == (32, 4)
    assert not (g.train_mask & g.test_mask).any()
    assert (g.train_mask | g.test_mask).all()


def test_dataset_io_roundtrip(tmp_path, ds):
    save_dataset(str(tmp_path), ds)
    back = load_dataset(str(tmp_path))
    assert back.num_nodes == ds.num_nodes
    assert np.allclose(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.train_mask, ds.train_mask)
    assert np.allclose(back.adj_norm.to_dense(), ds.adj_norm.to_dense())


def test_dataset_io_errors(tmp_path, ds):
    save_dataset(str(tmp_path), ds)
    (tmp_path / "edges.tsv").write_text("0 1 2\n")
    with pytest.raises(ValueError, match="edges.tsv:1"):
        load_dataset(str(tmp_path))


@pytest.mark.parametrize("run", [
    lambda g, w1, w2: train_secure(g, TrainConfig(epochs=1, hidden=8)),
    lambda g, w1, w2: secure_gradients(g, w1, w2),
    lambda g, w1, w2: reference_train_clear(g, TrainConfig(epochs=1)),
], ids=["train_secure", "secure_gradients", "reference_train_clear"])
def test_training_rejects_an_empty_train_mask(ds, run):
    g = dataclasses.replace(ds, train_mask=np.zeros(ds.num_nodes, dtype=bool))
    w1, w2 = init_weights(g.features.shape[1], 8, g.num_classes, 1)
    with pytest.raises(ValueError, match="the train mask selects no node"):
        run(g, w1, w2)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(optimizer="rmsprop")
    for lr in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr must be finite and positive"):
            TrainConfig(lr=lr)
    for hidden in (0, -1):
        with pytest.raises(ValueError, match="hidden must be >= 1"):
            TrainConfig(hidden=hidden)


def test_clear_reference_learns(ds):
    res = reference_train_clear(ds, TrainConfig(epochs=50, lr=0.5, seed=1))
    assert res["test_acc"] >= 0.8
    assert res["history"][-1]["loss"] < res["history"][0]["loss"]


def _cos(a, b):
    a, b = a.ravel(), b.ravel()
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_secure_matches_clear_forward_gradients(ds):
    w1, w2 = init_weights(ds.features.shape[1], 8, ds.num_classes, 1)
    g1, g2, _ = secure_gradients(ds, w1, w2)
    c1, c2, _ = clear_gradients(ds.adj_norm.to_dense(), ds.features,
                                ds.labels, ds.train_mask, w1, w2)
    assert _cos(g1, c1) >= 0.99
    assert _cos(g2, c2) >= 0.99


# (d, h) shapes on a c = 2 graph: d above and below h (AX is hoisted either
# way), and h <= c, which keeps layer 2 as (AZ)W2
ORDER_SHAPES = [(16, 2), (16, 4), (4, 8), (3, 1)]


@pytest.mark.parametrize("d, h", ORDER_SHAPES)
def test_secure_gradients_both_orders(d, h):
    g = make_synthetic_community(24, seed=3, dim=d)
    w1, w2 = init_weights(d, h, g.num_classes, 1)
    g1, g2, _ = secure_gradients(g, w1, w2)
    c1, c2, _ = clear_gradients(g.adj_norm.to_dense(), g.features, g.labels,
                                g.train_mask, w1, w2)
    assert _cos(g1, c1) >= 0.99
    assert _cos(g2, c2) >= 0.99


@pytest.mark.parametrize("classes", [2, 3])
def test_secure_gradients_on_a_partial_train_mask(classes):
    # softmax runs on the 5 train rows only; the other rows' g is zero in
    # the clear oracle too. Labels i mod 3 give the c = 3 path an AND round.
    g = make_synthetic_community(24, seed=3, dim=4)
    mask = np.isin(np.arange(24), [1, 5, 6, 17, 20])
    labels = np.arange(24) % 3 if classes == 3 else g.labels
    g = dataclasses.replace(g, labels=labels, train_mask=mask)
    w1, w2 = init_weights(4, 8, classes, 1)
    g1, g2, _ = secure_gradients(g, w1, w2)
    c1, c2, _ = clear_gradients(g.adj_norm.to_dense(), g.features, g.labels,
                                g.train_mask, w1, w2)
    for got, want in ((g1, c1), (g2, c2)):
        assert _cos(got, want) >= 0.99
        assert np.abs(got - want).max() <= 0.01


@pytest.mark.parametrize("shapes, match", [
    (((3, 4), (4, 2)), "w1 has 3 rows but the dataset has 4 features"),
    (((4, 4), (3, 2)), "w1 has 4 columns but w2 has 3 rows"),
    (((4, 4), (4, 2), (4, 3)), r"w2 shares have shapes \(4, 2\) and \(4, 3\)"),
    (((4, 4), (4,)), r"w2 shares have shapes \(4,\) and \(4,\), not one 2-d"),
], ids=["w1-rows", "inner-width", "unequal-shares", "not-2d"])
def test_infer_secure_rejects_bad_weight_shapes(ds, monkeypatch, shapes, match):
    w1, w2, *w2b = (np.zeros(s, np.uint64) for s in shapes)
    monkeypatch.setattr(gcn, "run_two_party", None)  # no secure work at all
    with pytest.raises(ValueError, match=match):
        infer_secure(ds, (w1, w1), (w2, *(w2b or [w2])))


def test_weight_check_allows_classes_missing_from_labels(ds):
    # a test set may lack the top class, so w2 may be wider than num_classes
    w1 = np.zeros((4, 4), np.uint64)
    w2 = np.zeros((4, ds.num_classes + 1), np.uint64)
    gcn.check_weight_shapes(ds, (w1, w1), (w2, w2))


def test_infer_secure_wide_features_matches_clear():
    # d = 16 > h = 2: inference hoists AX at width d, then A(ZW2) at c = 2
    g = make_synthetic_community(24, seed=3, dim=16)
    w1, w2 = init_weights(16, 2, g.num_classes, 1)
    logits, _, _ = clear_forward(g.adj_norm.to_dense(), g.features, w1, w2)
    shares = [(encode_fixed(w), np.zeros(w.shape, np.uint64)) for w in (w1, w2)]
    preds, _ = infer_secure(g, *shares)
    assert np.array_equal(preds, logits.argmax(axis=1))


def _train_recording_widths(monkeypatch, d, h):
    """A 2-epoch SGD run on the 24-node graph, recording the width of every
    smm and smm_transpose call the GCN driver makes."""
    widths = []

    def recorder(fn):
        def call(ctx, bundle, dims, x, *args, **kwargs):
            if ctx.party == 0:
                widths.append(np.asarray(x).shape[1])
            return fn(ctx, bundle, dims, x, *args, **kwargs)
        return call

    monkeypatch.setattr(gcn, "smm", recorder(gcn.smm))
    monkeypatch.setattr(gcn, "smm_transpose", recorder(gcn.smm_transpose))
    g = make_synthetic_community(24, seed=3, dim=d)
    res, _ = train_secure(g, TrainConfig(epochs=2, seed=1, hidden=h))
    return g, res, widths


@pytest.mark.parametrize("d, h, widths", [
    (16, 2, [16, 2, 2, 2, 2, 2]),      # AX once, then A(ZW2), A^T g at c
    (16, 4, [16, 2, 2, 2, 2, 2]),
    (4, 8, [4, 2, 2, 2, 2, 2]),
    (3, 1, [3, 1, 2, 1, 2, 1]),        # c >= h: (AZ)W2 at h, A^T g at c
])
def test_smm_widths_follow_public_shapes(monkeypatch, d, h, widths):
    _, _, got = _train_recording_widths(monkeypatch, d, h)
    assert got == widths


@pytest.mark.parametrize("d, h, non_smm_bytes, epoch_widths, rounds", [
    # non-smm bytes: the former order's 288,888 and 244,728 B per epoch less
    # its 22 smm columns (d + h + c + h); only the smm widths may move. The
    # carry-only sign bit then saved (1,792 - 724) / 8 = 133.5 B per ReLU
    # element: n*h hidden units plus n*(c - 1) in softmax's row max, with
    # n = 24 and c = 2, so 216 * 133.5 = 28,836 B (h = 8) and 72 * 133.5 =
    # 9,612 B (h = 2). daBits then saved (1,236 - 854) / 8 = 47.75 B per
    # ReLU element, 10,314 B (h = 8) and 3,438 B (h = 2), and with the 75
    # unread adder gates dropped, (18,944 - 2,388) / 8 = 2,069.5 B per
    # highest_one_hot element: 24 * 2,069.5 = 49,668 B for the n row sums
    # of softmax's reciprocal. ReLU's B2A and multiply share 1 round.
    # Opening each dense operand once then saved 2 * 8 B per element no
    # longer re-opened in an epoch: AX twice (n*d each), A^T g (n*c), W2
    # (h*c), and Z (n*h) in the A(ZW2) order (c < h), whose forward pass
    # opens it; the (AZ)W2 order opens Z once, in the backward pass. That is
    # (2*96 + 48 + 16 + 192) * 16 = 7,168 B (d = 4, h = 8) and
    # (2*384 + 48 + 4) * 16 = 13,120 B (d = 16, h = 2), and the backward
    # pass's gw2 and dz share one round, 67 -> 66. Softmax's last multiply
    # opens 1/sum at (n, 1): n*(c - 1) * 16 = 384 B. smm_online_bits carries
    # the per-row Weight mask.
    #
    # Softmax then ran on the n_train = 12 train rows only, in its 27-round
    # form. Per row at c = 2 (both parties' bits) it sent 6,570 bits: the
    # row max's ReLU 854, the squarings 6 * 2 * 128 = 1,536, the reciprocal
    # 3,796 (highest_one_hot 2,388 and 11 Beaver openings of 128) and the
    # last multiply 3 * 128 = 384. In its 27-round form it sent 5,252 (the
    # pairwise max's sign tree 724 and bit_mult of 2 * (2 + 128) = 260, the
    # clamp's 2 * 854 = 1,708 ReLU bits, the squarings 1,536, the [1, 2]
    # reciprocal 640 and the last multiply 384), and with the 4-round sign
    # bit of 348 bits it sends 348 + 260 + 2 * 478 + 1,536 + 640 + 384 =
    # 4,124. So 24 * 6,570 / 8 = 19,710 B became 12 * 4,124 / 8 = 6,186 B.
    # The 4-round sign bit also saved (724 - 348) / 8 = 47 B per hidden
    # unit's ReLU: n*h = 192 * 47 = 9,024 B (h = 8) and 48 * 47 = 2,256 B
    # (h = 2). The bounded quotient then took the place of the reciprocal
    # and the last multiply: per row at c = 2 it opens t and s (3 elements)
    # and then p and e (3) in each of its 2 steps, 9 * 128 = 1,152 bits
    # where they opened 640 + 384 = 1,024, so a row sends 4,252 bits and
    # the 12 rows 12 * 128 / 8 = 192 B more.
    #
    # rounds: an epoch's row holds party 0's clock delta: 25 outside smm,
    # with the 5-round ReLU and the 15-round softmax, and the reveal beside
    # the backward pass (32 with the 21-round softmax after the reveal, 41
    # with the 8- and 27-round ones), plus what the two smm calls add. A two-round call
    # advances party 0's clock by 2 and party 1's by 1, so party 0 leads
    # after it; each one-round exchange swaps the lead, and so do the
    # 5-round ReLU and the 15-round softmax. A call that starts with party
    # 1 a round ahead adds 1 round, not 2: party 0's corrections, stamped a
    # round earlier, reach party 1 without moving its clock. An epoch starts
    # with party 1 ahead after AX's opening, and ax*w1 and ReLU hand the
    # lead back to party 1. In the A(ZW2) order (h = 8) the opening of Z
    # and W2 then gives party 0 the lead before the forward call (2);
    # softmax hands it to party 1 before the backward call (1): 25 + 2 + 1
    # = 28, 36 when the reveal's swap came before softmax's. In the (AZ)W2
    # order (h = 2 = c) the forward call follows ReLU with party 1 ahead
    # (1), and the opening of AZ and softmax put two swaps before the
    # backward call, which starts with party 0 ahead (2): 25 + 1 + 2 = 28,
    # 34 with the reveal's third swap.
    #
    # AX's opening then moved into epoch 1's forward pass, where it shares
    # W1's round: epoch 1's row also carries its 2 * n*d * 8 bytes, 1,536 B
    # (d = 4) and 6,144 B (d = 16), and the later rows are as before. Epoch
    # 1 now starts right after AX's smm call, with party 0 ahead, and the
    # joint opening and ReLU hand the lead to party 0, not party 1. In the
    # A(ZW2) order the opening of Z and W2 gives it back to party 1 before
    # the forward call, which adds 1 round, not 2: epoch 1 takes 26. In the
    # (AZ)W2 order the forward call follows ReLU with party 0 ahead and adds
    # 2, not 1: epoch 1 keeps 28. Epoch 2 starts with party 1 ahead, as
    # every epoch did before, and keeps 28.
    #
    # The sign bits then ran over SIGN_BITS = 32 ring bits, where msb sends
    # 158 bits per element, not 348: (348 - 158) / 8 = 23.75 B less. ReLU's
    # n*h elements save 192 * 23.75 = 4,560 B (h = 8) and 48 * 23.75 =
    # 1,140 B (h = 2); softmax's 12 rows save it on their one row-max
    # difference and the clamp's 2 entries: 36 * 23.75 = 855 B.
    #
    # rounds: the 4-round ReLU and the 14-round softmax keep the lead where
    # the 5- and 15-round ones swapped it, and 23 rounds lie outside smm.
    # Epoch 2 starts with party 1 ahead; W1's opening hands party 0 the
    # lead and ReLU keeps it. In the A(ZW2) order the opening of Z and W2
    # gives it to party 1 before the forward call (1), and softmax keeps
    # party 0's lead before the backward call (2): 23 + 1 + 2 = 26. In the
    # (AZ)W2 order the forward call follows ReLU with party 0 ahead (2), and
    # the opening of AZ hands party 1 a lead that softmax keeps (1):
    # 23 + 2 + 1 = 26. Epoch 1 starts with party 0 ahead, so each lead
    # before its forward call flips: that call adds 2 (A(ZW2)) and 1
    # ((AZ)W2), and the backward call 2 and 1, as in epoch 2. Party 0's
    # clock starts epoch 1 a round ahead of party 1's and ends it a round
    # behind, so its row reads one round less: 23 + 2 + 2 - 1 = 26 and
    # 23 + 1 + 1 - 1 = 24.
    (4, 8, 288_888 - 22 * 6_260 - 28_836 - 10_314 - 49_668 - 7_168 - 384
     - 19_710 + 6_186 - 9_024 + 192 - 4_560 - 855, [2, 2], [26, 26]),
    (16, 2, 244_728 - 22 * 6_260 - 9_612 - 3_438 - 49_668 - 13_120 - 384
     - 19_710 + 6_186 - 2_256 + 192 - 1_140 - 855, [2, 2], [24, 26]),
], ids=["d4-h8", "d16-h2"])  # ids without the pinned bytes, which move
def test_epoch_bytes_follow_smm_widths(monkeypatch, d, h, non_smm_bytes,
                                       epoch_widths, rounds):
    g, res, _ = _train_recording_widths(monkeypatch, d, h)
    b = decompose_full(g.adj_norm)
    assert smm_online_bits(b.m, b.n, b.t, 1) == 50_080
    want = non_smm_bytes + sum(smm_online_bits(b.m, b.n, b.t, w)
                               for w in epoch_widths) // 8
    ax_opening = 2 * g.num_nodes * d * 8
    assert [r["online_bytes"] for r in res["history"]] == [want + ax_opening,
                                                           want]
    assert [r["rounds"] for r in res["history"]] == rounds


def test_section_rounds_sum_to_meter_rounds(ds):
    # each party's clock deltas, summed per section, add up to its clock,
    # and the run's rounds are the larger clock. smm's receives land in op
    # and osm on party 0 (its 2 rounds) and in op on party 1 (its 1 round).
    # The run has two ReLUs (the epoch's forward pass and the final one),
    # each 5 rounds: 4 in gmw_and and 1 in b2a, 8 before (7 and 1). Softmax
    # at c = 2 takes 21: 8 in gmw_and (the pairwise max's and the clamp's
    # sign bits), 2 in b2a and 11 in mult; 27 before (14, 2 and 11). So
    # gmw_and holds 4 sign bits of 4 rounds, 16, not 28. The clocks fell by
    # 2 * 3 + 6 - 2 = 10, from [58, 59]: the 5-round ReLU swaps the lead
    # where the 8-round one kept it, so the opening of Z and W2 gives party
    # 0 the lead before both forward smm calls (hidden 4 > c = 2: the
    # A(ZW2) order), and each adds 2 rounds, not 1. An exchange that starts
    # with one party a round ahead moves only the other party's clock, by
    # 2, so the moved leads also move which party's clock each round of b2a,
    # mult, op and osm lands on.
    #
    # Softmax then took 15 rounds: the clamp's sign bit runs beside the 6
    # squarings and keeps its 4 gmw_and rounds as the first branch, the
    # squarings' branch adds 2 mult rounds past it, and the bounded
    # quotient takes 3 (11 mult rounds before: the squarings 6, Newton 4
    # and the last multiply 1). The epoch's reveal runs as a branch after
    # the backward pass and reaches no clock past it, so it charges
    # nothing; the final reveal keeps its round. The run takes 41 rounds,
    # 49 before: softmax's 6, the reveal's 1, and 1 more because, without
    # the reveal's lead swap before softmax, the backward smm call starts
    # with party 1 ahead and adds 1 round, not 2.
    #
    # AX's opening then joined W1's, 1 mult round less, and the ReLU after
    # it hands the lead to party 0, so the opening of Z and W2 gives it to
    # party 1 and the forward smm call adds 1 round, not 2: the run takes 39
    # rounds, 41 before. The moved leads move which party's clock the
    # rounds of op, osm, mult and b2a land on.
    #
    # The sign bits then ran over 32 ring bits in 3 rounds: ReLU takes 4 (3
    # in gmw_and, 1 in b2a) and softmax 14, and neither swaps the lead any
    # more. The epoch's two saved rounds come back in its smm calls: the
    # forward and the backward call now start with party 0 ahead and add 2
    # rounds each, not 1. The final pass's ReLU saves 1, and its smm call
    # starts with party 1 ahead and adds 1, not 2: the run takes 37 rounds,
    # 39 before. gmw_and's 4 sign bits of 3 rounds advance the two clocks
    # by 2 * 12 = 24, 10 on party 0 and 14 on party 1, as a round that
    # starts with one party ahead moves only the other's clock, by 2.
    _, meter = train_secure(ds, TrainConfig(epochs=1, hidden=4))
    assert meter.party_rounds == {
        "op": [3, 5], "osm": [5, 0], "mult": [14, 12], "gmw_and": [10, 14],
        "b2a": [4, 4], "reveal": [0, 2]}
    for party in (0, 1):
        assert sum(r[party] for r in meter.party_rounds.values()) \
            == meter.clocks[party]
    assert meter.clocks == [36, 37] and meter.rounds == 37
    assert {name: sec["rounds"] for name, sec in meter.sections.items()} \
        == {name: max(r) for name, r in meter.party_rounds.items()}


def test_adam_section_rounds_sum_to_meter_rounds(ds):
    # the run above with one Adam step in place of the local SGD update:
    # adam_step takes 13 rounds, g^2 1, highest_one_hot 8 (bit_decompose 4
    # and prefix OR 3 in gmw_and, b2a 1), one opening of w, x and the shift
    # for the two rsqrt products 1, m^2 1, z v 1 and the direction 1; the
    # 1/eps fallback is local. The run takes 61 rounds, 69 before (its
    # highest_one_hot 14, a separate multiply round for each rsqrt product
    # and one for the fallback). Party 1 leads when Adam starts, and the
    # leads it moves change which party's clock the later rounds land on.
    # The 15-round softmax and the overlapped reveal then took the run
    # from 61 rounds to 53, as in the SGD run above. AX's opening joining
    # W1's then took it to 51, the same 2 rounds the SGD run saved.
    #
    # The 3-round sign bits over 32 ring bits leave it at 51: the epoch's
    # two saved rounds come back in its smm calls, as in the SGD run. The
    # final pass starts after the 13-round Adam step with party 0 ahead, so
    # its opening of W1 and the 4-round ReLU leave party 1 ahead, the
    # opening of Z and W2 hands the lead to party 0, and its smm call adds
    # 2 rounds, not 1: the round ReLU saves comes back there.
    _, meter = train_secure(ds, TrainConfig(optimizer="adam", epochs=1,
                                            hidden=4))
    assert meter.party_rounds == {
        "op": [1, 7], "osm": [7, 0], "mult": [20, 16], "gmw_and": [18, 20],
        "b2a": [4, 6], "reveal": [0, 2]}
    for party in (0, 1):
        assert sum(r[party] for r in meter.party_rounds.values()) \
            == meter.clocks[party]
    assert meter.clocks == [50, 51] and meter.rounds == 51
    assert {name: sec["rounds"] for name, sec in meter.sections.items()} \
        == {name: max(r) for name, r in meter.party_rounds.items()}


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_sign_bit_inputs_within_sign_bits(monkeypatch, optimizer):
    # every msb call in training is a narrow site (ReLU, softmax's row max
    # and its clamp), exact only for |x| < 2^(SIGN_BITS - 1) as a ring
    # integer. Both parties' inputs, reconstructed, stay inside it. Measured
    # here, the largest needs 24 signed bits with either optimizer: the
    # clamp's x + 64 = 2^22 at the row max. ReLU's pre-activations needed
    # at most 18 (SGD) and 19 (Adam), the row-max differences 19 and 20
    inputs, msb = ([], []), binary.msb

    def recording(ctx, x, bits=64):
        inputs[ctx.party].append((bits, np.array(x)))
        return msb(ctx, x, bits)

    monkeypatch.setattr(binary, "msb", recording)
    monkeypatch.setattr(nonlinear, "msb", recording)
    train_secure(make_synthetic_community(32),
                 TrainConfig(optimizer=optimizer, epochs=4, hidden=8))
    assert len(inputs[0]) == len(inputs[1]) == 13  # 3 an epoch, 1 at the end
    for (bits, x0), (_, x1) in zip(*inputs):
        assert bits == SIGN_BITS
        assert np.abs(lift_signed(x0 + x1)).max() < 2 ** (SIGN_BITS - 1)


def test_train_secure_history_and_meter(ds):
    for optimizer in ("sgd", "adam"):
        cfg = TrainConfig(optimizer=optimizer, epochs=3, lr=0.5, seed=1,
                          hidden=8)
        res, meter = train_secure(ds, cfg)
        assert len(res["history"]) == 3
        for row in res["history"]:
            assert set(row) >= {"loss", "acc", "online_bytes", "rounds"}
            assert row["online_bytes"] > 0 and row["rounds"] > 0
        assert meter.rounds >= sum(r["rounds"] for r in res["history"])
        # every epoch runs the same protocol, so its bytes are fixed, but for
        # AX's opening of 2 * n*d * 8 bytes in epoch 1; the history must not
        # depend on how the two party threads interleave
        first, *later = [r["online_bytes"] for r in res["history"]]
        assert later == [first - 2 * ds.features.size * 8] * 2
        again, _ = train_secure(ds, cfg)
        assert again["history"] == res["history"]


def test_model_save_load_infer(tmp_path, ds):
    cfg = TrainConfig(epochs=15, lr=0.5, seed=1, hidden=8)
    res, _ = train_secure(ds, cfg)
    path = tmp_path / "model.json"
    save_model(str(path), res["w1"], res["w2"])
    assert json.loads(path.read_text())["f"] == 16
    w1, w2 = load_model(str(path))
    preds, meter = infer_secure(ds, w1, w2)
    assert np.array_equal(preds, res["predictions"])
    assert meter.online_bits > 0


@pytest.mark.parametrize("f", [18, None])
def test_load_model_rejects_other_precision(tmp_path, f):
    path = tmp_path / "model.json"
    w = np.zeros((2, 2), np.uint64)
    save_model(str(path), (w, w), (w, w))
    doc = json.loads(path.read_text())
    doc["f"] = f
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: shares have {f} fractional bits, not 16")):
        load_model(str(path))


def test_accuracy_empty_mask():
    logits = np.zeros((3, 2))
    assert accuracy(logits, np.zeros(3, np.int64), np.zeros(3, bool)) == 0.0
    assert gcn.clear_loss(logits, np.zeros(3, np.int64), np.zeros(3, bool)) == 0.0
