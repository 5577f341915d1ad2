#!/usr/bin/env python3
"""Secure-GCN benchmark.

    python3 benchmark/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a source checkout and imports ``vsmm`` from its
``src`` directory. With ``--trace 0`` it repeats the workload's secure call
(``gcn.train_secure`` or ``gcn.infer_secure``) for about ``--seconds`` and
reports the end-to-end metrics; with ``--trace 1`` it makes one untraced and
one traced call and reports the per-layer metrics. Every call is checked
against the plaintext reference. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. See
``benchmark/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "vsmm" / "__init__.py").is_file():
    sys.exit(f"error: no vsmm sources under {SRC}; run from a source checkout")
sys.path[:0] = [str(SRC), str(HERE)]

from vsmm import decompose, gcn, ring, runtime, smm  # noqa: E402

from probe import HostSampler  # noqa: E402
from spans import Tracer, TraceError, summarize  # noqa: E402
from workloads import WORKLOADS, Inputs, Workload, make_inputs, scaled  # noqa: E402

if Path(gcn.__file__).resolve().parent != (SRC / "vsmm").resolve():
    sys.exit(f"error: vsmm imported from {gcn.__file__}, not from {SRC}")

SETUP_SLICE_S = 0.2     # set-up timing after each secure call
SETUP_MIN_REPS = 2
WARMUP_NODES = 24
OUT_DIR = ROOT / ".bench_out"

# name -> (unit, better); the order is the report order.
END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "epoch_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "online_bytes": ("B", "lower"),
    "offline_bytes": ("B", "lower"),
    "rounds": ("count", "lower"),
    "messages": ("count", "lower"),
    "net_s.normal": ("s", "lower"),
    "net_s.hl": ("s", "lower"),
    "pred_agree": ("ratio", "higher"),
}
EXACT = ("online_bytes", "offline_bytes", "rounds", "messages")


def _stats(prefix: str, names, fields):
    return [f"{prefix}.{n}.{f}" for n in names for f in fields]


PER_LAYER = (
    ["decompose.decompose_full.wall_s", "gcn.normalize_adjacency.wall_s"]
    + _stats("dealer", ("op", "osm", "privmul", "beaver", "square", "bits",
                        "permutation"), ("calls", "cpu_s"))
    + ["runtime.send.calls", "runtime.recv.wait_s.p0",
       "runtime.recv.wait_s.p1", "runtime.pack.cpu_s"]
    + _stats("protocols", ("op", "osm", "priv_mult", "beaver_mult",
                           "beaver_square", "and_bits", "reveal"),
             ("calls", "cpu_s", "self_s", "bytes", "rounds"))
    + _stats("smm", ("smm", "smm_transpose"),
             ("calls", "wall_s", "cpu_s", "bytes", "rounds"))
    + _stats("binary", ("relu", "bit_decompose", "highest_one_hot"),
             ("calls", "cpu_s", "bytes", "rounds"))
    + _stats("nonlinear", ("softmax_rows", "adam_step", "rsqrt_eps",
                           "sgd_step"), ("calls", "cpu_s", "bytes", "rounds"))
    + ["gcn.self_s", "trace_overhead_s"]
)


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if name.endswith(("_s", ".p0", ".p1")):
        return "s"
    return {"calls": "count", "bytes": "B", "rounds": "count"}[last]


class CheckFailed(RuntimeError):
    """A secure result disagreed with the plaintext reference."""


class CooOperator:
    """``A @ X`` for the normalised adjacency without a dense n-by-n copy."""

    def __init__(self, adj):
        self.adj = adj

    def __matmul__(self, x):
        a = self.adj
        out = np.zeros((a.m,) + x.shape[1:])
        np.add.at(out, a.rows, a.weights[:, None] * x[a.cols])
        return out


@dataclass
class Case:
    """One workload's inputs, prepared for repeated secure calls."""

    w: Workload
    seed: int
    inputs: Inputs
    ds: object
    reference: dict
    weight_shares: tuple | None = None


def time_setup(inputs: Inputs, budget_s: float, min_reps: int):
    """Time ``normalize_adjacency`` and ``decompose_full`` as separate calls,
    back to back, at least ``min_reps`` times and until ``budget_s`` is
    spent; returns the set-up and decompose times of each repetition."""
    setup_s, decompose_s = [], []
    while len(setup_s) < min_reps or sum(setup_s) < budget_s:
        gc.collect()
        t0 = time.perf_counter()
        adj = gcn.normalize_adjacency(inputs.edges, inputs.num_nodes)
        t1 = time.perf_counter()
        decompose.decompose_full(adj)
        t2 = time.perf_counter()
        setup_s.append(t2 - t0)
        decompose_s.append(t2 - t1)
    return setup_s, decompose_s


def prepare(w: Workload, seed: int) -> Case:
    """Generate the inputs and build the plaintext reference."""
    inputs = make_inputs(w, seed)
    n = inputs.num_nodes
    adj = gcn.normalize_adjacency(inputs.edges, n)
    ds = gcn.GraphDataset(n, inputs.edges, inputs.features, inputs.labels,
                          inputs.train_mask, ~inputs.train_mask, adj_norm=adj)
    shares = None
    if w.mode == "train":
        reference = gcn.reference_train_clear(ds, train_config(w, seed))
    else:
        logits, _, _ = gcn.clear_forward(CooOperator(adj), inputs.features,
                                         inputs.w1, inputs.w2)
        reference = {"logits": logits, "predictions": logits.argmax(axis=1)}
        rng = np.random.default_rng([seed, 0x5348])
        shares = tuple(split(rng, m) for m in (inputs.w1, inputs.w2))
    return Case(w, seed, inputs, ds, reference, shares)


def split(rng, weights):
    """Fixed-point weights as two additive shares."""
    enc = ring.encode_fixed(weights)
    mask = ring.random_ring(rng, enc.shape)
    return mask, enc - mask


def train_config(w: Workload, seed: int):
    return gcn.TrainConfig(optimizer=w.optimizer, lr=w.lr, epochs=w.epochs,
                           seed=seed, hidden=w.hidden)


def secure_call(case: Case):
    """The timed call; returns (predictions, logits or None, test_acc, meter)."""
    if case.w.mode == "train":
        res, meter = gcn.train_secure(case.ds, train_config(case.w, case.seed))
        return res["predictions"], res["logits"], res["test_acc"], meter
    w1, w2 = case.weight_shares
    pred, meter = gcn.infer_secure(case.ds, w1, w2, seed=case.seed)
    return pred, None, None, meter


def check(case: Case, pred, logits, test_acc) -> dict:
    """Compare one secure result with the plaintext reference; acceptance 7's
    thresholds for training, near-exact agreement for inference."""
    ref = case.reference
    agree = float((np.asarray(pred) == ref["predictions"]).mean())
    out = {"pred_agree": agree}
    if case.w.mode == "train":
        out["logit_err"] = float(np.abs(logits - ref["logits"]).max())
        acc_gap = abs(test_acc - ref["test_acc"])
        if not (agree >= 0.90 and acc_gap <= 0.05
                and np.isfinite(out["logit_err"])):
            raise CheckFailed(f"agree {agree:.4f}, test-acc gap {acc_gap:.4f}")
    elif agree < 0.99:
        raise CheckFailed(f"inference agree {agree:.4f} < 0.99")
    return out


def counts(meter) -> dict:
    return {
        "online_bytes": meter.online_bytes,
        "offline_bytes": meter.offline_bytes,
        "rounds": meter.rounds,
        "messages": meter.framing_bits // runtime.FRAME_BITS,
        "net_s.normal": runtime.estimate_time(
            meter, runtime.NETWORK_CONDITIONS["normal"]),
        "net_s.hl": runtime.estimate_time(meter, runtime.NETWORK_CONDITIONS["hl"]),
    }


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)
        print(f"FAIL {what}", flush=True)
        if sys.exc_info()[0] is not None:
            traceback.print_exc()


def timed_call(case: Case, tally: Tally):
    """One checked secure call; returns a sample dict, or None if it failed."""
    tally.attempted += 1
    gc.collect()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        pred, logits, acc, meter = secure_call(case)
    except Exception as exc:  # noqa: BLE001 - counted in fail_rate
        tally.fail(f"{type(exc).__name__}: {exc}")
        return None
    t1, c1 = time.perf_counter(), time.process_time()
    try:
        quality = check(case, pred, logits, acc)
    except CheckFailed as exc:
        tally.fail(str(exc))
        return None
    return {"run_s": t1 - t0, "cpu_s": c1 - c0, **counts(meter), **quality}


def warm_up(w: Workload, seed: int) -> None:
    """Run a tiny instance once so imports and lazy set-up are not timed."""
    case = prepare(scaled(w, WARMUP_NODES), seed)
    secure_call(case)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(case: Case, seconds: float, tally: Tally) -> dict:
    """Secure calls, each followed by a slice of set-up timings, while the
    next call still fits in ``seconds``. The call and the slice are each
    scaled by the host's slowdown while they ran (see ``probe.py``).
    Peak memory is read after the first secure call: each later call leaves
    the allocator holding more memory, so a reading taken at the end would
    depend on how many calls fit."""
    samples, setup_s, decompose_s, rss = [], [], [], None
    deadline = time.perf_counter() + seconds
    last = 0.0
    with HostSampler() as host:
        while not tally.attempted or time.perf_counter() + last <= deadline:
            start = time.perf_counter()
            sample = timed_call(case, tally)
            mid = time.perf_counter()
            if rss is None:
                rss = peak_rss_mb()
            setup, dec = time_setup(case.inputs, SETUP_SLICE_S, SETUP_MIN_REPS)
            end = time.perf_counter()
            slowdown = host.slowdown(mid, end)
            setup_s += [s / slowdown for s in setup]
            decompose_s += [d / slowdown for d in dec]
            last = end - start
            if sample is None:
                continue
            if samples and any(sample[k] != samples[0][k] for k in EXACT):
                tally.fail("exact counts differ between calls at one seed")
            samples.append({**sample, "slowdown": host.slowdown(start, mid)})
    if not samples:
        return {}
    return summarize_samples(case, samples, setup_s, decompose_s, rss)


def summarize_samples(case: Case, samples: list[dict], setup_s: list,
                      decompose_s: list, rss: float) -> dict:
    """Medians over the calls. Each call's ``run_s`` and ``cpu_s`` are
    divided by its ``slowdown`` (``setup_s`` and ``decompose_s`` come
    scaled already); the raw wall-clock median is kept as an extra."""
    def scaled(key):
        return [s[key] / s["slowdown"] for s in samples]

    run_s = statistics.median(scaled("run_s"))
    passes = case.w.epochs if case.w.mode == "train" else 1
    out = {
        "run_s": run_s,
        "setup_s": statistics.median(setup_s),
        "epoch_s": (run_s - statistics.median(decompose_s)) / passes,
        "cpu_s": statistics.median(scaled("cpu_s")),
        "peak_rss_mb": rss,
        **{k: samples[0][k] for k in EXACT + ("net_s.normal", "net_s.hl")},
        "pred_agree": min(s["pred_agree"] for s in samples),
    }
    slowdown = [s["slowdown"] for s in samples]
    extra = {
        "run_s.max": max(scaled("run_s")),
        "run_s.n": len(samples),
        "run_s.wall": statistics.median(s["run_s"] for s in samples),
        "setup_s.max": max(setup_s),
        "setup_s.n": len(setup_s),
        "slowdown": statistics.median(slowdown),
        "slowdown.max": max(slowdown),
    }
    if "logit_err" in samples[0]:
        extra["logit_err"] = max(s["logit_err"] for s in samples)
    return {"metrics": out, "extra": extra}


def traced_run(case: Case, tally: Tally) -> dict:
    """One untraced and one traced call; per-layer metrics from the spans."""
    base = timed_call(case, tally)
    if base is None:
        return {}
    tracer = Tracer()
    tally.attempted += 1
    try:
        with tracer:
            gcn.normalize_adjacency(case.inputs.edges, case.inputs.num_nodes)
            t0 = time.perf_counter()
            pred, logits, acc, meter = secure_call(case)
            traced_s = time.perf_counter() - t0
        check(case, pred, logits, acc)
        verify_trace(tracer.spans, base, counts(meter))
    except Exception as exc:  # noqa: BLE001 - counted in fail_rate
        tally.fail(f"traced call: {type(exc).__name__}: {exc}")
        return {}
    summary = summarize(tracer.spans)
    summary["trace_overhead_s"] = traced_s - base["run_s"]
    return {"metrics": {name: summary.get(name, 0) for name in PER_LAYER},
            "extra": {"run_s.untraced": base["run_s"], "run_s.traced": traced_s},
            "tracer": tracer}


def write_trace(case: Case, tracer: Tracer) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{case.w.name}-{case.seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": case.w.name, "seed": case.seed,
                   "spans": tracer.to_json()}, fh)
    print(f"trace: {len(tracer.spans)} spans written to "
          f"{path.relative_to(ROOT)}", flush=True)


def verify_trace(spans, base: dict, traced: dict) -> None:
    """Tracing must not change the transcript, and every smm span must carry
    exactly the formula's payload."""
    for key in EXACT:
        if traced[key] != base[key]:
            raise TraceError(f"{key}: traced {traced[key]} != untraced {base[key]}")
    sends = sum(1 for s in spans if s.name == "runtime.send")
    if sends != traced["messages"]:
        raise TraceError(f"runtime.send spans {sends} != messages {traced['messages']}")
    for name in ("smm.smm", "smm.smm_transpose"):
        p0 = [s for s in spans if s.name == name and s.thread == "p0"]
        p1 = [s for s in spans if s.name == name and s.thread == "p1"]
        if len(p0) != len(p1):
            raise TraceError(f"{name}: {len(p0)} party-0 spans, {len(p1)} party-1")
        for a, b in zip(p0, p1):
            want = smm.smm_online_bits(a.attrs["m"], a.attrs["n"],
                                           a.attrs["t"], a.attrs["d"])
            if a.bits + b.bits != want:
                raise TraceError(
                    f"{name} {a.attrs}: {a.bits + b.bits} bits, formula {want}")


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args) -> int:
    w = WORKLOADS[args.workload]
    tally = Tally()
    print(f"workload {w.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}", flush=True)
    warm_up(w, args.seed)
    case = prepare(w, args.seed)
    print(f"inputs: n={case.inputs.num_nodes} edges={len(case.inputs.edges)} "
          f"t={case.ds.adj_norm.t} digest={case.inputs.digest()[:16]}", flush=True)
    result = traced_run(case, tally) if args.trace else measure(case, args.seconds, tally)
    metrics, extra = result.get("metrics", {}), result.get("extra", {})
    if "tracer" in result:
        write_trace(case, result["tracer"])
    units = ({n: layer_unit(n) for n in PER_LAYER} if args.trace
             else {n: u for n, (u, _) in END_TO_END.items()})
    for name, value in {**metrics, **extra}.items():
        unit = units.get(name, "count" if name.endswith(".n") else
                         "abs" if name == "logit_err" else
                         "x" if name.startswith("slowdown") else "s")
        print(f"  {name:<40} {fmt(value):>14} {unit}")
    fail_rate = tally.failed / max(tally.attempted, 1)
    print(f"  {'fail_rate':<40} {fmt(fail_rate):>14} ratio "
          f"({tally.failed}/{tally.attempted})")
    correct = tally.failed == 0 and len(metrics) == len(units)
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    merged, ok, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"FAIL workload {name} exited {proc.returncode}")
            ok, failed, attempted = False, failed + 1, attempted + 1
            continue
        last = json.loads(lines[-1])
        ok = ok and last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        merged.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def pin_to_one_cpu() -> None:
    """Run both party threads on one CPU. They share one interpreter lock,
    so the simulation uses about one core anyway; on a 2-vCPU VM, handing
    the lock between threads on different vCPUs made calls slower and their
    times noisier than running both threads on one."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    pin_to_one_cpu()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
