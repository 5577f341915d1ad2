"""Workload definitions and seeded input generators for the GCN benchmark.

The generators live here rather than in ``vsmm.gcn`` so that a rewrite of the
library's own synthetic-data helpers cannot silently change what the
benchmark measures. Every input is a pure function of the workload seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: str            # "community" or "planted"
    nodes: int
    classes: int
    features: int
    mode: str             # "train" or "infer"
    optimizer: str = "sgd"
    lr: float = 0.5
    epochs: int = 1
    hidden: int = 16
    p_in: float = 0.0     # community graph only
    p_out: float = 0.0


# planted-partition graphs
AVG_DEGREE = 4.0
HOMOPHILY = 0.8       # share of edges that stay inside the block
ACTIVE = 6            # nonzero features per node


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="train-dense-adam",
            why="dense 160-node graph trained with Adam: degree-t dealer "
                "permutations, OP packing and the optimizer's rounds dominate",
            graph="community", nodes=160, classes=2, features=4,
            mode="train", optimizer="adam", lr=0.02, epochs=1,
            p_in=0.4, p_out=0.04),
        Workload(
            name="train-sparse-wide",
            why="Cora-shaped sparse graph trained with SGD: layer-1 smm at "
                "the feature width, ReLU and 7-way softmax dominate",
            graph="planted", nodes=1000, classes=7, features=32,
            mode="train", optimizer="sgd", lr=0.5, epochs=1),
        Workload(
            name="infer-large",
            why="2,500-node forward pass: set-up (dense normalisation, "
                "decomposition) and peak memory dominate; no transpose",
            graph="planted", nodes=2500, classes=7, features=16,
            mode="infer"),
    )
}


@dataclass
class Inputs:
    edges: np.ndarray        # (E, 2) int64, u < v, sorted, no duplicates
    features: np.ndarray     # (n, dim) float64
    labels: np.ndarray       # (n,) int64
    train_mask: np.ndarray   # (n,) bool
    w1: np.ndarray | None = None   # inference weights (dim, hidden)
    w2: np.ndarray | None = None   # (hidden, classes)

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    def digest(self) -> str:
        """SHA-256 over every generated array, for determinism checks."""
        h = hashlib.sha256()
        for arr in (self.edges, self.features, self.labels, self.train_mask,
                    self.w1, self.w2):
            if arr is not None:
                h.update(str((arr.dtype, arr.shape)).encode())
                h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def _train_mask(rng: np.random.Generator, n: int, frac: float = 0.5) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[rng.permutation(n)[:int(round(frac * n))]] = True
    return mask


def _unique_edges(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Undirected simple edges (u < v), sorted, self-loops dropped."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keep = lo != hi
    keys = np.unique(lo[keep] * n + hi[keep])
    return np.stack([keys // n, keys % n], axis=1).astype(np.int64)


def community_graph(w: Workload, rng: np.random.Generator) -> Inputs:
    """Two communities with edge probability p_in inside and p_out across,
    and noisy community-indicator features."""
    n = w.nodes
    labels = (np.arange(n) >= n // 2).astype(np.int64)
    iu, ju = np.triu_indices(n, k=1)
    p = np.where(labels[iu] == labels[ju], w.p_in, w.p_out)
    hit = rng.random(len(iu)) < p
    edges = np.stack([iu[hit], ju[hit]], axis=1).astype(np.int64)
    feats = rng.normal(0.0, 0.3, (n, w.features))
    feats[:, 0] += np.where(labels == 0, 1.0, -1.0)
    feats[:, 1] += np.where(labels == 1, 1.0, -1.0)
    return Inputs(edges, feats, labels, _train_mask(rng, n))


def planted_graph(w: Workload, rng: np.random.Generator) -> Inputs:
    """Planted partition: ``classes`` balanced blocks, about AVG_DEGREE/2
    edges per node of which a HOMOPHILY share stays inside the block, and
    ACTIVE binary features per node concentrated on a per-class topic."""
    n, k, dim = w.nodes, w.classes, w.features
    labels = rng.permutation(np.arange(n) % k).astype(np.int64)
    members = [np.flatnonzero(labels == c) for c in range(k)]
    count = int(round(n * AVG_DEGREE / 2))
    u = rng.integers(0, n, count)
    inside = rng.random(count) < HOMOPHILY
    v = rng.integers(0, n, count)
    # an in-block partner: a uniform member of u's class
    pick = rng.random(count)
    for c in range(k):
        sel = inside & (labels[u] == c)
        v[sel] = members[c][(pick[sel] * len(members[c])).astype(np.int64)]
    edges = _unique_edges(u, v, n)
    topic = np.arange(dim) % k          # feature j belongs to class j mod k
    on_topic = rng.random((n, ACTIVE)) < 0.7
    topic_cols = [np.flatnonzero(topic == c) for c in range(k)]
    cols = rng.integers(0, dim, (n, ACTIVE))
    draw = rng.random((n, ACTIVE))
    for c in range(k):
        rows = labels == c
        sel = on_topic & rows[:, None]
        cols[sel] = topic_cols[c][(draw[sel] * len(topic_cols[c])).astype(np.int64)]
    feats = np.zeros((n, dim))
    feats[np.repeat(np.arange(n), ACTIVE), cols.ravel()] = 1.0
    return Inputs(edges, feats, labels, _train_mask(rng, n))


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, (fan_in, fan_out))


def make_inputs(w: Workload, seed: int) -> Inputs:
    """All inputs of one workload at one seed."""
    rng = np.random.default_rng([seed, 0x6763_6E])
    gen = community_graph if w.graph == "community" else planted_graph
    inputs = gen(w, rng)
    if w.mode == "infer":
        inputs.w1 = glorot(rng, w.features, w.hidden)
        inputs.w2 = glorot(rng, w.hidden, w.classes)
    return inputs


def scaled(w: Workload, nodes: int) -> Workload:
    """The same workload at another node count (used by the self-tests)."""
    return replace(w, nodes=nodes)
