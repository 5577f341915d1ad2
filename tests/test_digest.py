"""Run-digest gate: sha256 over what every secure entry point, and each
one-round primitive under smm, returns and meters, pinned per case and seed.

Each digest covers the ring values a run leaves (weight shares, smm output
shares), what it reveals (logits, predictions, decoded gradients) and its
meter: the report, each section's per-party rounds, both clocks and the
framing; a primitive's output shares are hashed as (d, k) rows, one per
column instance. A change that moves one byte of any of these fails here.
A change that alters shares or transcripts on purpose re-pins the digests
in the same commit and says why. Losses and accuracies are left out: they pass
through float log/exp, whose last bit may differ between numpy builds.
"""

import hashlib
import json

import numpy as np
import pytest

from vsmm.decompose import Permutation, SparseMatrixCOO, decompose_full
from vsmm.gcn import (TrainConfig, infer_secure, init_weights,
                      make_synthetic_community, secure_gradients, train_secure)
from vsmm.protocols import op, osm, priv_mult
from vsmm.ring import encode_fixed, random_ring, share_secret
from vsmm.runtime import run_two_party
from vsmm.smm import SmmDims, smm, smm_transpose

TRAIN_NODES, SMM_NODES, HIDDEN, EPOCHS = 24, 40, 4, 2


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            a = np.ascontiguousarray(part)
            h.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()[:16]


def _meter(meter) -> list:
    return [meter.report(), meter.party_rounds, meter.clocks,
            meter.framing_bits]


def _train(seed: int, optimizer: str) -> str:
    ds = make_synthetic_community(TRAIN_NODES, seed=seed)
    lr = 0.5 if optimizer == "sgd" else 0.05
    out, meter = train_secure(ds, TrainConfig(optimizer=optimizer, lr=lr,
                                              epochs=EPOCHS, seed=seed,
                                              hidden=HIDDEN))
    return _digest(out["logits"], out["predictions"].astype(np.int64),
                   *out["w1"], *out["w2"], _meter(meter))


def _shared_weights(ds, seed: int):
    rng = np.random.default_rng(seed)
    return [share_secret(encode_fixed(w), random_ring(rng, w.shape))
            for w in init_weights(ds.features.shape[1], HIDDEN,
                                  ds.num_classes, seed)]


def _infer(seed: int) -> str:
    ds = make_synthetic_community(TRAIN_NODES, seed=seed)
    pred, meter = infer_secure(ds, *_shared_weights(ds, seed), seed=seed)
    return _digest(pred.astype(np.int64), _meter(meter))


def _gradients(seed: int) -> str:
    ds = make_synthetic_community(TRAIN_NODES, seed=seed)
    w1, w2 = init_weights(ds.features.shape[1], HIDDEN, ds.num_classes, seed)
    gw1, gw2, meter = secure_gradients(ds, w1, w2, seed=seed)
    return _digest(gw1, gw2, _meter(meter))


def _smm(seed: int, fn, d: int) -> str:
    # the graph's normalised adjacency on and above the diagonal: a directed
    # graph, so that A and A.T differ and smm_transpose walks its own shares
    a = make_synthetic_community(SMM_NODES, seed=seed).adj_norm
    keep = a.rows <= a.cols
    bundle = decompose_full(SparseMatrixCOO(a.m, a.n, a.rows[keep],
                                            a.cols[keep], a.weights[keep]))
    dims = SmmDims(bundle.m, bundle.n, bundle.t)
    rng = np.random.default_rng(seed)
    rows = dims.n if fn is smm else dims.m
    x = encode_fixed(rng.normal(0, 1, (rows, d)))
    x0, x1 = share_secret(x, random_ring(rng, x.shape))

    def proto(ctx, b, xin):
        return fn(ctx, b, dims, xin)

    o0, o1, meter = run_two_party(proto, (bundle, x0), (None, x1), seed=seed)
    return _digest(o0, o1, _meter(meter))


# each one-round primitive called on (d, k) rows, one per column instance
_ON_ROWS = {"op": op, "osm": osm, "priv_mult": priv_mult}


def _primitive(seed: int, name: str, d: int) -> str:
    rng = np.random.default_rng(seed)
    k = SMM_NODES
    x = random_ring(rng, (d, k))
    x0, x1 = share_secret(x, random_ring(rng, x.shape))
    secret = {"op": lambda: Permutation(rng.permutation(k)),
              "osm": lambda: rng.integers(0, 2, (d, k)).astype(np.uint64),
              "priv_mult": lambda: encode_fixed(rng.normal(0, 1, k))}[name]()
    o0, o1, meter = run_two_party(_ON_ROWS[name], (secret, x0), (None, x1),
                                  seed=seed)
    return _digest(o0, o1, _meter(meter))


CASES = {
    "train_sgd": lambda seed: _train(seed, "sgd"),
    "train_adam": lambda seed: _train(seed, "adam"),
    "infer": _infer,
    "secure_gradients": _gradients,
    **{f"smm_d{d}": lambda seed, d=d: _smm(seed, smm, d) for d in (1, 5, 16)},
    **{f"smm_transpose_d{d}": lambda seed, d=d: _smm(seed, smm_transpose, d)
       for d in (1, 5, 16)},
    **{f"{name}_d{d}": lambda seed, name=name, d=d: _primitive(seed, name, d)
       for name in _ON_ROWS for d in (1, 16)},
}

DIGESTS = {
    0: {"infer": "a45e3ea8ed486706", "secure_gradients": "811865351ab8b6cf",
        "smm_d1": "f4fcb171d653a85d", "smm_d5": "8ed4cc4dde19c5da",
        "smm_d16": "87cf0d565273a2e6", "smm_transpose_d1": "15432a49dd1e03a6",
        "smm_transpose_d5": "6839c406662861e5",
        "smm_transpose_d16": "0a4388a9b73241dc",
        "train_adam": "af7ae996740bf056", "train_sgd": "fedb488204c98e39",
        "op_d1": "33ab5c2767eecfa6", "op_d16": "b000c522e99e8c85",
        "osm_d1": "f078463f5cc4f08f", "osm_d16": "070e04e822632379",
        "priv_mult_d1": "37bccb575e5bd593",
        "priv_mult_d16": "f1afdf1cd032a39f"},
    7: {"infer": "1d2a2c281c8da505", "secure_gradients": "f4daf158c082c3ef",
        "smm_d1": "a8275fa7c1589340", "smm_d5": "df24bf528521174a",
        "smm_d16": "937917cd53071897", "smm_transpose_d1": "c6821e101a60e8da",
        "smm_transpose_d5": "6ad02587c4535c9b",
        "smm_transpose_d16": "584ce77210ebaec4",
        "train_adam": "3847595b14e84714", "train_sgd": "719fa7fb96839f79",
        "op_d1": "1d50a55c043e1131", "op_d16": "c30d79a6c15a1d95",
        "osm_d1": "88c374d749648201", "osm_d16": "f30203cd94cc3bf0",
        "priv_mult_d1": "bc7c33efd2b7db7b",
        "priv_mult_d16": "dc1ee3ebe0896a3e"},
}


@pytest.mark.parametrize("seed", sorted(DIGESTS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_run_digest(case, seed):
    assert CASES[case](seed) == DIGESTS[seed].get(case)
