"""End-to-end secure two-layer GCN: dataset handling, the secure trainer and
its plaintext reference oracle.

The graph owner (party 0) contributes the normalized adjacency, decomposed
once before training; the feature owner (party 1) contributes features and
labels. Weights start from a public seeded initialization and stay shared
throughout; only logits revealed for evaluation leave the sharing. AX is
computed once per run, and layer 2's smm runs on the narrower side chosen from
public shapes (see `_secure_forward`), so per-epoch transcript sizes depend
only on (|V|, t, feature dim, hidden, classes), never on values.

One per-party program, `_train_protocol`, runs training, inference (no
epoch) and the gradient check (one SGD epoch at lr 1). Each dense operand
that several products read is opened once (`protocols.open_masked`): AX once
per run, with W1 in the first forward pass, Z and W2 once per forward pass,
and A^T g once per backward pass, where it serves both gw2 = Z^T A^T g and
dz = A^T g W2^T. An epoch's evaluation reveal and its backward pass read
nothing of each other, so they run as `PartyContext.parallel` branches: the
reveal's round overlaps the backward pass.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .decompose import SparseMatrixCOO, decompose_full
from .binary import SIGN_BITS, relu
from .nonlinear import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, adam_step,
                        scale_public, sgd_step, softmax_rows)
from .protocols import beaver_mult, open_masked, reveal
from .ring import FRAC_BITS, decode_fixed, encode_fixed
from .runtime import CommMeter, run_two_party
from .smm import SmmDims, smm, smm_transpose


@dataclass
class GraphDataset:
    num_nodes: int
    edges: np.ndarray          # (E, 2) undirected, 0-based
    features: np.ndarray       # (n, dim) float
    labels: np.ndarray         # (n,) int
    train_mask: np.ndarray     # (n,) bool
    test_mask: np.ndarray      # (n,) bool
    adj_norm: SparseMatrixCOO = None

    def __post_init__(self):
        if self.adj_norm is None:
            self.adj_norm = normalize_adjacency(self.edges, self.num_nodes)

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "sgd"     # "sgd" or "adam"
    lr: float = 0.5
    epochs: int = 50
    seed: int = 0
    hidden: int = 16

    def __post_init__(self):
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError("optimizer must be sgd or adam")
        if not (math.isfinite(self.lr) and self.lr > 0) or self.epochs < 1:
            raise ValueError("lr must be finite and positive and epochs >= 1")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")


def normalize_adjacency(edges: np.ndarray, num_nodes: int) -> SparseMatrixCOO:
    """Symmetric normalization D^{-1/2} (A + I) D^{-1/2} with self-loops.

    A has a 1 at (u, v) and (v, u) for each listed edge, repeats included
    once, and I adds 1 to the diagonal, so an edge (u, u) gives weight 2.
    """
    n = num_nodes
    # 64-bit indices: the keys u*n + v overflow 32 bits from n = 46,341 on
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    bad = ((e < 0) | (e >= n)).any(axis=1)
    if bad.any():
        u, v = e[bad.argmax()]
        raise ValueError(f"edge ({u}, {v}) out of range")
    keys, count = np.unique(np.concatenate((e[:, 0] * n + e[:, 1],
                                            e[:, 1] * n + e[:, 0],
                                            np.arange(n) * (n + 1))),
                            return_counts=True)
    rows, cols = np.divmod(keys, max(n, 1))
    # a diagonal key is counted once for I and twice per self-loop edge
    w = np.where(rows == cols, np.minimum(count, 2), 1).astype(np.float64)
    dinv = 1.0 / np.sqrt(np.bincount(rows, weights=w, minlength=n))
    return SparseMatrixCOO(n, n, rows, cols, dinv[rows] * w * dinv[cols])


SYNTH_P_IN, SYNTH_P_OUT, SYNTH_TRAIN_FRAC = 0.4, 0.04, 0.5


def make_synthetic_community(num_nodes: int = 32, seed: int = 0,
                             dim: int = 4) -> GraphDataset:
    """Two-community graph with noisy community-indicator features."""
    rng = np.random.default_rng(seed)
    labels = (np.arange(num_nodes) >= num_nodes // 2).astype(np.int64)
    # one draw per pair i < j, in row-major order: the seeded stream's order
    i, j = np.triu_indices(num_nodes, 1)
    p = np.where(labels[i] == labels[j], SYNTH_P_IN, SYNTH_P_OUT)
    hit = rng.random(len(i)) < p
    feats = rng.normal(0, 0.3, (num_nodes, dim))
    feats[:, 0] += np.where(labels == 0, 1.0, -1.0)
    feats[:, 1] += np.where(labels == 1, 1.0, -1.0)
    perm = rng.permutation(num_nodes)
    n_train = int(round(SYNTH_TRAIN_FRAC * num_nodes))
    train_mask = np.zeros(num_nodes, dtype=bool)
    train_mask[perm[:n_train]] = True
    return GraphDataset(num_nodes, np.stack((i[hit], j[hit]), axis=1), feats,
                        labels, train_mask, ~train_mask)


def save_dataset(path: str, ds: GraphDataset) -> None:
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "edges.tsv"), "w") as fh:
        for u, v in ds.edges:
            fh.write(f"{u}\t{v}\n")
    np.savetxt(os.path.join(path, "features.csv"), ds.features, delimiter=",")
    np.savetxt(os.path.join(path, "labels.csv"), ds.labels, fmt="%d")
    np.savetxt(os.path.join(path, "masks.csv"),
               np.stack([ds.train_mask, ds.test_mask], axis=1), fmt="%d",
               delimiter=",", header="train,test", comments="")


def load_dataset(path: str) -> GraphDataset:
    def _fail(name, line_no, msg):
        raise ValueError(f"{os.path.join(path, name)}:{line_no}: {msg}")

    def _table(name, **kwargs):  # numpy's parse errors, with the file's path
        try:
            return np.loadtxt(os.path.join(path, name), **kwargs)
        except ValueError as exc:
            raise ValueError(f"{os.path.join(path, name)}: {exc}") from None

    edges = []
    with open(os.path.join(path, "edges.tsv")) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 2:
                _fail("edges.tsv", line_no, "expected 'u<TAB>v'")
            edges.append((int(parts[0]), int(parts[1])))
    features = _table("features.csv", delimiter=",", ndmin=2)
    labels = _table("labels.csv", dtype=np.int64, ndmin=1)
    masks = _table("masks.csv", delimiter=",", skiprows=1, dtype=np.int64,
                   ndmin=2)
    n = len(features)
    if n == 0:
        raise ValueError(f"{path}: empty graph (no feature rows)")
    if len(labels) != n or len(masks) != n:
        raise ValueError(f"{path}: labels/masks row count does not match features")
    if np.any(labels < 0):
        _fail("labels.csv", np.argmax(labels < 0) + 1, "negative class label")
    if masks.shape[1] != 2 or not np.isin(masks, (0, 1)).all():
        raise ValueError(f"{os.path.join(path, 'masks.csv')}: expected two "
                         "0/1 columns 'train,test'")
    return GraphDataset(n, np.array(edges, dtype=np.int64).reshape(-1, 2),
                        features, labels, masks[:, 0].astype(bool),
                        masks[:, 1].astype(bool))


def init_weights(dim: int, hidden: int, classes: int, seed: int):
    """Public Glorot-uniform initialization shared by both trainers."""
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-s, s, (fan_in, fan_out))

    return glorot(dim, hidden), glorot(hidden, classes)


# clear reference oracle ------------------------------------------------------

def _softmax(y: np.ndarray) -> np.ndarray:
    e = np.exp(y - y.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def clear_forward(a, x, w1, w2):
    ax = a @ x
    pre = ax @ w1
    z = np.maximum(pre, 0)
    logits = (a @ z) @ w2
    return logits, pre, z


def clear_loss(logits, labels, mask):
    if not np.any(mask):
        return 0.0
    sm = _softmax(logits)
    return float(-np.log(np.clip(sm[mask, labels[mask]], 1e-12, None)).mean())


def clear_gradients(a, x, labels, mask, w1, w2):
    n_train = int(mask.sum())
    logits, pre, z = clear_forward(a, x, w1, w2)
    g = _softmax(logits)
    g[np.arange(len(labels)), labels] -= 1.0
    g *= mask[:, None] / max(n_train, 1)
    atg = a.T @ g
    gw2 = z.T @ atg
    dpre = (atg @ w2.T) * (pre > 0)
    gw1 = x.T @ (a.T @ dpre)
    return gw1, gw2, logits


def check_train_mask(ds: GraphDataset) -> None:
    """Raise ValueError unless some node is a train node: the loss and the
    gradients average over the train rows."""
    if not np.any(ds.train_mask):
        raise ValueError("the train mask selects no node")


def reference_train_clear(ds: GraphDataset, cfg: TrainConfig) -> dict:
    """Plaintext trainer implementing the identical recurrences in floats."""
    check_train_mask(ds)
    a = ds.adj_norm.to_dense()
    x = ds.features
    w1, w2 = init_weights(x.shape[1], cfg.hidden, ds.num_classes, cfg.seed)
    u1 = np.zeros_like(w1); v1 = np.zeros_like(w1)
    u2 = np.zeros_like(w2); v2 = np.zeros_like(w2)
    history = []
    for _ in range(cfg.epochs):
        gw1, gw2, logits = clear_gradients(a, x, ds.labels, ds.train_mask, w1, w2)
        history.append({
            "loss": clear_loss(logits, ds.labels, ds.train_mask),
            "acc": accuracy(logits, ds.labels, ds.test_mask),
        })
        if cfg.optimizer == "sgd":
            w1 -= cfg.lr * gw1
            w2 -= cfg.lr * gw2
        else:
            b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
            u1 = b1 * u1 + (1 - b1) * gw1; v1 = b2 * v1 + (1 - b2) * gw1 ** 2
            u2 = b1 * u2 + (1 - b1) * gw2; v2 = b2 * v2 + (1 - b2) * gw2 ** 2
            w1 -= cfg.lr * u1 / np.sqrt(v1 + eps * eps)
            w2 -= cfg.lr * u2 / np.sqrt(v2 + eps * eps)
    logits, _, _ = clear_forward(a, x, w1, w2)
    return {"w1": w1, "w2": w2, "history": history, "logits": logits,
            "test_acc": accuracy(logits, ds.labels, ds.test_mask),
            "predictions": logits.argmax(axis=1)}


def accuracy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    if mask.sum() == 0:
        return 0.0
    return float((logits[mask].argmax(axis=1) == labels[mask]).mean())


# secure trainer --------------------------------------------------------------

def _matmul(ctx, a, b):
    return beaver_mult(ctx, a, b, matmul=True, truncate=True)


def _secure_forward(ctx, bundle, dims, ax, w1, w2):
    """Layer 1: AX, opened together with W1 in one round unless an earlier
    pass opened it, times W1, then ReLU. Layer 2 runs its smm on the
    narrower side, chosen from public shapes: A(ZW2) at width c when c < h,
    and (AZ)W2 at width h otherwise. Returns the logits, AX opened, Z, the
    ReLU mask and W2 opened; Z comes back opened in the A(ZW2) order only."""
    ax, w1 = open_masked(ctx, ax, w1)
    z, mask = relu(ctx, _matmul(ctx, ax, w1), SIGN_BITS)
    if w2.shape[1] < w2.shape[0]:
        z, w2 = open_masked(ctx, z, w2)
        logits = smm(ctx, bundle, dims, _matmul(ctx, z, w2))
    else:
        az, w2 = open_masked(ctx, smm(ctx, bundle, dims, z), w2)
        logits = _matmul(ctx, az, w2)
    return logits, ax, z, mask, w2


def _secure_backward(ctx, bundle, dims, ax, z, relu_mask, w2, logits,
                     onehot_scaled, train_mask):
    """Gradients of the masked cross-entropy; see the clear oracle for the
    plaintext identities. g is zero outside the public train mask, so
    softmax runs on the train rows only. ax is AX's opening, so
    gw1 = (AX)^T dpre needs no second smm: it equals X^T (A^T dpre). w2,
    and z if the forward pass opened it, are its openings, so gw2 and dz
    open only A^T g."""
    rows = np.flatnonzero(train_mask)
    g = np.zeros_like(logits)
    g[rows] = softmax_rows(ctx, logits[rows])
    if ctx.party == 1:
        g[rows] -= onehot_scaled[rows]
    g = scale_public(g, 1.0 / max(rows.size, 1), ctx)
    atg, z = open_masked(ctx, smm_transpose(ctx, bundle, dims, g), z)
    gw2 = _matmul(ctx, z.T, atg)
    dz = _matmul(ctx, atg, w2.T)
    dpre = beaver_mult(ctx, dz, relu_mask)  # 0/1 mask, no truncation
    return _matmul(ctx, ax.T, dpre), gw2


def _eval_logits(ctx, logits_share, pub):
    """Reveal logits (evaluation/reporting only) and score them in the clear."""
    opened = decode_fixed(reveal(ctx, logits_share))
    return {"loss": clear_loss(opened, pub["labels"], pub["train_mask"]),
            "acc": accuracy(opened, pub["labels"], pub["test_mask"])}


def _train_protocol(ctx, bundle, x, onehot_enc, w1, w2, pub, cfg):
    """Per-party program of every secure entry point: cfg.epochs epochs of
    cfg's optimizer (none when cfg is None), then a forward pass whose
    logits are revealed and scored. Each party records the bits it sent in
    each epoch; the host adds the two parties' counts after the run."""
    dims = pub["dims"]
    # Adam moments of w1 and w2 flattened together: one adam_step updates both
    u, v = np.zeros((2, w1.size + w2.size), np.uint64)
    # AX, computed once, counts in the meter's totals, not in any epoch's
    # row; the first forward pass opens it, in epoch 1's row
    ax = smm(ctx, bundle, dims, x)
    history = []
    prev_bits, prev_clock = ctx.ep.sent_bits, ctx.ep.clock
    for _ in range(cfg.epochs if cfg else 0):
        logits, ax, z, relu_mask, w2_open = _secure_forward(ctx, bundle, dims,
                                                            ax, w1, w2)
        (gw1, gw2), stats = ctx.parallel(
            lambda: _secure_backward(ctx, bundle, dims, ax, z, relu_mask,
                                     w2_open, logits, onehot_enc,
                                     pub["train_mask"]),
            lambda: _eval_logits(ctx, logits, pub))
        if cfg.optimizer == "sgd":
            w1 = sgd_step(ctx, w1, gw1, cfg.lr)
            w2 = sgd_step(ctx, w2, gw2, cfg.lr)
        else:
            w, u, v = adam_step(ctx, np.concatenate((w1.ravel(), w2.ravel())),
                                np.concatenate((gw1.ravel(), gw2.ravel())),
                                u, v, cfg.lr)
            w1, w2 = w[:w1.size].reshape(w1.shape), w[w1.size:].reshape(w2.shape)
        stats["rounds"] = ctx.ep.clock - prev_clock
        stats["sent"] = ctx.ep.sent_bits - prev_bits
        prev_bits, prev_clock = ctx.ep.sent_bits, ctx.ep.clock
        history.append(stats)
    logits = _secure_forward(ctx, bundle, dims, ax, w1, w2)[0]
    # only the test accuracy: inference's weights may have fewer classes
    # than the labels, which the loss would index past
    opened = decode_fixed(reveal(ctx, logits))
    return {"w1": w1, "w2": w2, "history": history, "logits": opened,
            "test_acc": accuracy(opened, pub["labels"], pub["test_mask"]),
            "predictions": opened.argmax(axis=1)}


def _public_shares(w: np.ndarray):
    """Shares of public weights: party 0 holds the encoding, party 1 zeros."""
    return encode_fixed(w), np.zeros(w.shape, np.uint64)


def _run_secure(ds: GraphDataset, w1_shares, w2_shares, seed: int,
                cfg: TrainConfig | None) -> tuple[dict, CommMeter]:
    """Decompose the graph, encode party 1's features and labels, and run
    `_train_protocol` for both parties. Returns the party-0 view of its
    result (histories and revealed evaluations are identical on both
    sides), with both parties' weight shares and each epoch's online bytes,
    together with the communication meter.

    Party 0 gets the bundle and a zero share of the features; party 1 gets
    the encoded features (its plaintext, also its share) and one-hot labels.
    pub holds the public shapes, masks and evaluation labels.
    """
    bundle = decompose_full(ds.adj_norm)
    pub = {"dims": SmmDims(bundle.m, bundle.n, bundle.t), "labels": ds.labels,
           "train_mask": ds.train_mask, "test_mask": ds.test_mask}
    x = encode_fixed(ds.features)
    onehot = encode_fixed(np.eye(ds.num_classes)[ds.labels])
    out0, out1, meter = run_two_party(
        _train_protocol,
        inputs0=(bundle, np.zeros_like(x), None, w1_shares[0], w2_shares[0],
                 pub, cfg),
        inputs1=(None, x, onehot, w1_shares[1], w2_shares[1], pub, cfg),
        seed=seed)
    for row, peer in zip(out0["history"], out1["history"]):
        row["online_bytes"] = (row.pop("sent") + peer["sent"] + 7) // 8
    out0["w1"] = (out0["w1"], out1["w1"])
    out0["w2"] = (out0["w2"], out1["w2"])
    return out0, meter


def train_secure(ds: GraphDataset, cfg: TrainConfig) -> tuple[dict, CommMeter]:
    """Run the full secure training loop in-process and return the party-0
    view of the result together with the communication meter."""
    check_train_mask(ds)
    w1f, w2f = init_weights(ds.features.shape[1], cfg.hidden, ds.num_classes,
                            cfg.seed)
    return _run_secure(ds, _public_shares(w1f), _public_shares(w2f), cfg.seed,
                       cfg)


def check_weight_shapes(ds: GraphDataset, w1_shares, w2_shares) -> None:
    """Raise ValueError unless w1 is (features, h) and w2 is (h, c), each as
    two shares of one shape. c is free: a test set may lack the top class."""
    (w1, w1b), (w2, w2b) = ([np.shape(s) for s in w] for w in (w1_shares, w2_shares))
    for name, s0, s1 in (("w1", w1, w1b), ("w2", w2, w2b)):
        if s0 != s1 or len(s0) != 2:
            raise ValueError(f"{name} shares have shapes {s0} and {s1}, "
                             "not one 2-d shape")
    if w1[0] != ds.features.shape[1]:
        raise ValueError(f"w1 has {w1[0]} rows but the dataset has "
                         f"{ds.features.shape[1]} features")
    if w1[1] != w2[0]:
        raise ValueError(f"w1 has {w1[1]} columns but w2 has {w2[0]} rows")


def infer_secure(ds: GraphDataset, w1_shares, w2_shares,
                 seed: int = 0) -> tuple[np.ndarray, CommMeter]:
    """Secure forward pass with shared weights; returns revealed predictions."""
    check_weight_shapes(ds, w1_shares, w2_shares)
    result, meter = _run_secure(ds, w1_shares, w2_shares, seed, None)
    return result["predictions"], meter


def secure_gradients(ds: GraphDataset, w1f: np.ndarray, w2f: np.ndarray,
                     seed: int = 0):
    """The (gw1, gw2) that one secure SGD epoch at lr 1 subtracts from the
    given plaintext weights, decoded from the difference of the weight
    shares; used to validate the gradient training applies. The meter covers
    the whole epoch, reveal and SGD step included, and the final forward
    pass and reveal: 56,053 B and 37 rounds on acceptance 9's graph."""
    check_train_mask(ds)
    result, meter = _run_secure(ds, _public_shares(w1f), _public_shares(w2f),
                                seed, TrainConfig(lr=1.0, epochs=1))
    gw1, gw2 = (decode_fixed(encode_fixed(w) - s0 - s1)
                for w, (s0, s1) in ((w1f, result["w1"]), (w2f, result["w2"])))
    return gw1, gw2, meter


# model share persistence ------------------------------------------------------

def save_model(path: str, w1_shares, w2_shares) -> None:
    doc = {"version": 1, "f": FRAC_BITS}
    for name, shares in (("w1", w1_shares), ("w2", w2_shares)):
        doc[name] = [[int(v) for v in np.asarray(s, dtype=np.uint64).ravel()]
                     for s in shares]
        doc[name + "_shape"] = list(np.asarray(shares[0]).shape)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_model(path: str):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("version") != 1:
        raise ValueError(f"{path}: unsupported model file version")
    if doc.get("f") != FRAC_BITS:
        raise ValueError(f"{path}: shares have {doc.get('f')} fractional "
                         f"bits, not {FRAC_BITS}")

    def unpack(name):
        shape = tuple(doc[name + "_shape"])
        return tuple(np.array(s, dtype=np.uint64).reshape(shape)
                     for s in doc[name])

    return unpack("w1"), unpack("w2")
