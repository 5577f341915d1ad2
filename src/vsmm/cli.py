"""Command-line interface: decomposition, protocol benchmarks, secure GCN
training / inference, and network-time reporting.

All subcommands emit JSON to stdout (and optionally to a file); `train` can
additionally mirror the per-epoch table as CSV. Usage errors exit 2, protocol
or input errors exit 1. `bench` also reports the process's peak resident
memory, `peak_rss_mb`, where the `resource` module exists.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from types import SimpleNamespace

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from .decompose import (DecomposeError, Permutation, SparseMatrixCOO,
                        decompose_full, read_coo_text)
from .dealer import TapeExhausted
from .gcn import (TrainConfig, check_train_mask, check_weight_shapes,
                  infer_secure, load_dataset, load_model, save_model,
                  train_secure)
from .protocols import op, osm
from .ring import FRAC_BITS, random_ring, share_secret
from .runtime import (DeadlockError, NETWORK_CONDITIONS, PeerFailedError,
                      estimate_time, run_two_party)
from .smm import SmmDims, beaver_dense_online_bits, smm, smm_online_bits


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2, default=float)
    print(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")


def _est_times(meter, names=NETWORK_CONDITIONS) -> dict:
    """Network-time estimates of a metered run, one per named condition."""
    return {name: estimate_time(meter, NETWORK_CONDITIONS[name])
            for name in names}


def _random_sparse(nodes: int, edges_per_node: int,
                   rng: np.random.Generator) -> SparseMatrixCOO:
    flat = rng.choice(nodes * nodes, nodes * edges_per_node, replace=False)
    order = np.argsort(flat)  # (row, col) order, as from_entries sorts
    rows, cols = np.divmod(flat[order], nodes)
    return SparseMatrixCOO(nodes, nodes, rows, cols,
                           rng.uniform(0.1, 2.0, flat.size)[order])


# subcommands -----------------------------------------------------------------

def cmd_decompose(args) -> int:
    a = read_coo_text(args.coo)
    bundle = decompose_full(a)
    _emit({"m": bundle.m, "n": bundle.n, "t": bundle.t,
           "ncol": bundle.ncol, "nrow": bundle.nrow}, None)
    return 0


# builders: draw the inputs, return (protocol, inputs0, inputs1, extra fields)
def _bench_op(args, rng):
    shape = (args.dim, args.nodes)
    sigma = Permutation(rng.permutation(args.nodes))
    x0, x1 = share_secret(random_ring(rng, shape), random_ring(rng, shape))
    return op, (sigma, x0), (None, x1), {}


def _bench_osm(args, rng):
    shape = (args.dim, args.nodes)
    s = rng.integers(0, 2, size=shape).astype(np.uint64)
    x0, x1 = share_secret(random_ring(rng, shape), random_ring(rng, shape))
    return osm, (s, x0), (None, x1), {}


def _bench_smm(args, rng):
    k, d = args.nodes, args.dim
    bundle = decompose_full(_random_sparse(k, args.edges_per_node, rng))
    dims = SmmDims(bundle.m, bundle.n, bundle.t)
    x0, x1 = share_secret(random_ring(rng, (k, d)), random_ring(rng, (k, d)))
    extra = {"beaver_dense_online_bits": beaver_dense_online_bits(k, k, d),
             "formula_online_bits": smm_online_bits(dims.m, dims.n, dims.t, d)}
    return smm, (bundle, dims, x0), (None, dims, x1), extra


_BENCHES = {"smm": _bench_smm, "op": _bench_op, "osm": _bench_osm}


def cmd_bench(args) -> int:
    rng = np.random.default_rng(args.seed)
    protocol, inputs0, inputs1, extra = _BENCHES[args.protocol](args, rng)
    wall, cpu = time.perf_counter(), time.process_time()
    _, _, meter = run_two_party(protocol, inputs0, inputs1, seed=args.seed)
    report = meter.report(args.protocol)
    # the two-party run alone, both party threads and the dealer
    report["wall_s"] = time.perf_counter() - wall
    report["cpu_s"] = time.process_time() - cpu
    report["est_time_by_condition"] = _est_times(meter)
    if resource is not None:  # ru_maxrss counts KiB, or bytes on macOS
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report["peak_rss_mb"] = maxrss / (2**20 if sys.platform == "darwin"
                                          else 1024)
    report.update(extra)
    if "beaver_dense_online_bits" in extra:
        report["saving_pct"] = 100.0 * (
            1 - report["online_bits"] / extra["beaver_dense_online_bits"])
    _emit(report, args.out)
    return 0


def cmd_train(args) -> int:
    ds = load_dataset(args.dataset)
    try:  # inference reads no train row, so only training needs one
        check_train_mask(ds)
    except ValueError as exc:
        raise ValueError(f"{os.path.join(args.dataset, 'masks.csv')}: "
                         f"{exc}") from None
    cfg = TrainConfig(optimizer=args.opt, lr=args.lr, epochs=args.epochs,
                      seed=args.seed, hidden=args.hidden)
    result, meter = train_secure(ds, cfg)
    report = {
        "dataset": args.dataset,
        "config": {"optimizer": cfg.optimizer, "lr": cfg.lr,
                   "epochs": cfg.epochs, "seed": cfg.seed,
                   "hidden": cfg.hidden, "f": FRAC_BITS},
        "per_epoch": result["history"],
        "totals": meter.report("gcn_train"),
        "test_acc": result["test_acc"],
        "est_time": _est_times(meter),
    }
    if args.model_out:
        save_model(args.model_out, result["w1"], result["w2"])
        report["model"] = args.model_out
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["epoch", "loss", "acc", "online_bytes", "rounds"])
            writer.writeheader()
            for i, row in enumerate(result["history"]):
                writer.writerow({"epoch": i, **row})
    _emit(report, args.out)
    return 0


def cmd_infer(args) -> int:
    ds = load_dataset(args.dataset)
    w1, w2 = load_model(args.model)
    try:
        check_weight_shapes(ds, w1, w2)
    except ValueError as exc:
        raise ValueError(f"{args.model}: {exc}") from None
    preds, meter = infer_secure(ds, w1, w2, seed=args.seed)
    acc = float((preds[ds.test_mask] == ds.labels[ds.test_mask]).mean()) \
        if ds.test_mask.any() else 0.0
    _emit({"predictions": preds.tolist(), "test_acc": acc,
           "totals": meter.report("gcn_infer"),
           "est_time": _est_times(meter)},
          args.out)
    return 0


def cmd_report(args) -> int:
    with open(args.report) as fh:
        doc = json.load(fh)
    totals = doc.get("totals", doc)
    online_bits = totals.get("online_bits", totals.get("online_bytes", 0) * 8)
    meter = SimpleNamespace(online_bits=online_bits,
                            framing_bits=totals.get("framing_bytes", 0) * 8,
                            rounds=totals["rounds"])
    _emit({"protocol": totals.get("protocol", doc.get("protocol", "")),
           "online_bytes": (online_bits + 7) // 8,
           "offline_bytes": totals.get("offline_bytes", 0),
           "rounds": meter.rounds,
           "est_time_by_condition": _est_times(
               meter, [args.net] if args.net else NETWORK_CONDITIONS)},
          args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsmm",
        description="Secure sparse-matrix 2PC toolkit: decomposition, "
                    "protocol benchmarks, and secure GCN training.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a COO text file")
    p.add_argument("coo")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("bench", help="run a protocol benchmark")
    p.add_argument("protocol", choices=list(_BENCHES))
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--edges-per-node", type=int, default=1)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("train", help="secure GCN training on a dataset dir")
    p.add_argument("--dataset", required=True)
    p.add_argument("--opt", choices=["sgd", "adam"], default="sgd")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model-out", help="save trained weight shares as JSON")
    p.add_argument("--csv", help="mirror the per-epoch table as CSV")
    p.add_argument("--out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="secure inference with saved shares")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("report", help="network-time estimates for a report")
    p.add_argument("report", help="JSON report from bench/train/infer")
    p.add_argument("--net", choices=list(NETWORK_CONDITIONS))
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DecomposeError, DeadlockError, PeerFailedError, TapeExhausted,
            ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
