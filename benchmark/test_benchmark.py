"""Self-tests of the benchmark's own pieces.

    python3 -m pytest -q benchmark

They are outside the repository's ``tests`` directory, so the library's own
test suite does not collect them.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from probe import HostSampler  # noqa: E402
from spans import Span, Tracer, TraceError, self_cpu, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, make_inputs, scaled  # noqa: E402

# SHA-256 of every generated array at seed 0; a change here changes what
# the benchmark measures and needs a new baseline.
GOLDEN_DIGESTS = {
    "train-dense-adam":
        "10975aec145938f1eb7a00166737475906aaefd4efdc63a3959d5ad6a0e951c9",
    "train-sparse-wide":
        "6c4dc9ce98c60e72970f61ef82cc2063a3228560f3672e4a696427d6a5f9cd9d",
    "infer-large":
        "1cd4f0569e09d17b257e651c5cb5d7da73bf6acb192073525327e81dc4d2e1dc",
}


def span(i, parent, name, start, end, thread="p0", cpu=0.0, bits=0, rounds=0):
    return Span(i, parent, name, thread, start, end, cpu, bits, rounds)


def test_self_time_on_hand_built_tree():
    tree = [
        span(0, None, "runtime.run_two_party", 0.0, 10.0, thread="main"),
        span(1, 0, "gcn.train_protocol", 1.0, 3.0, thread="p0", cpu=2.0),
        span(2, 0, "gcn.train_protocol", 2.0, 5.0, thread="p1", cpu=3.0),
        span(3, 0, "gcn.train_protocol", 8.0, 12.0, thread="p1"),  # clipped
        span(4, 1, "protocols.op", 1.5, 2.0, thread="p0", cpu=0.25),
        span(5, 1, "protocols.op", 2.5, 2.75, thread="p0", cpu=0.5),
    ]
    self_w = self_times(tree)
    # children cover [1, 5] and [8, 10] of the root's [0, 10]
    assert self_w[0] == pytest.approx(4.0)
    assert self_w[1] == pytest.approx(2.0 - 0.5 - 0.25)
    assert self_w[2] == pytest.approx(3.0)
    assert self_w[4] == pytest.approx(0.5)
    assert self_cpu(tree)[1] == pytest.approx(2.0 - 0.75)


def test_summarize_sums_both_parties_and_takes_the_slower_party_rounds():
    tree = [
        span(0, None, "binary.relu", 0.0, 4.0, thread="p0", cpu=4.0, bits=80,
             rounds=5),
        span(1, 0, "protocols.and_bits", 1.0, 2.0, thread="p0", cpu=1.0,
             bits=16, rounds=2),
        span(2, None, "binary.relu", 0.0, 3.0, thread="p1", cpu=3.0, bits=8,
             rounds=6),
    ]
    out = summarize(tree)
    assert out["binary.relu.calls"] == 2
    assert out["binary.relu.wall_s"] == pytest.approx(7.0)
    assert out["binary.relu.cpu_s"] == pytest.approx(7.0)
    assert out["binary.relu.bytes"] == pytest.approx(11.0)
    assert out["binary.relu.rounds"] == 6
    assert out["binary.relu.self_s"] == pytest.approx(3.0 + 3.0)
    assert out["protocols.and_bits.bytes"] == pytest.approx(2.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_gives_byte_identical_inputs(name):
    w = WORKLOADS[name]
    first = make_inputs(w, 0).digest()
    assert make_inputs(w, 0).digest() == first
    assert make_inputs(w, 1).digest() != first
    assert first == GOLDEN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_graphs_are_simple_and_shaped(name):
    w = WORKLOADS[name]
    inputs = make_inputs(w, 3)
    e = inputs.edges
    assert (e[:, 0] < e[:, 1]).all()
    assert len({tuple(p) for p in e.tolist()}) == len(e)
    assert inputs.features.shape == (w.nodes, w.features)
    assert set(inputs.labels.tolist()) == set(range(w.classes))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks_untraced_and_traced(name):
    w = scaled(WORKLOADS[name], 40)
    case = run.prepare(w, 5)
    tally = run.Tally()
    result = run.measure(case, 0.0, tally)
    assert tally.failed == 0, tally.errors
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(v > 0 for v in result["metrics"].values())
    traced = run.traced_run(case, tally)
    assert tally.failed == 0, tally.errors
    assert list(traced["metrics"]) == run.PER_LAYER
    assert traced["metrics"]["smm.smm.calls"] > 0
    assert json.dumps(traced["tracer"].to_json())


def test_timings_are_scaled_by_the_probe_slowdown_next_to_each_call():
    case = run.Case(WORKLOADS["train-dense-adam"], 0, None, None, {})
    same = {k: 1 for k in run.EXACT + ("net_s.normal", "net_s.hl")}
    samples = [{**same, "run_s": r, "cpu_s": r / 2, "pred_agree": 1.0,
                "slowdown": f} for r, f in ((2.0, 1.0), (3.0, 1.5), (9.0, 1.0))]
    out = run.summarize_samples(case, samples, [0.5, 0.5], [0.25], 100.0)
    metrics, extra = out["metrics"], out["extra"]
    assert metrics["run_s"] == pytest.approx(2.0)   # median of 2, 2, 9
    assert metrics["cpu_s"] == pytest.approx(1.0)
    assert metrics["epoch_s"] == pytest.approx(1.75)
    assert extra["run_s.wall"] == pytest.approx(3.0)
    assert extra["slowdown"] == pytest.approx(1.0)


def test_host_sampler_averages_the_ticks_in_a_window_and_stops():
    with HostSampler() as host:
        time.sleep(0.1)
    assert not host._thread.is_alive()
    ticks = host.ticks
    assert len(ticks) >= 3
    assert all(0.0 < s <= probe.MAX_SLOWDOWN for _, s in ticks)
    first, last = ticks[0][0], ticks[-1][0]
    assert host.slowdown(first, last) == pytest.approx(
        statistics.fmean(s for _, s in ticks))
    assert host.slowdown(last + 1.0, last + 2.0) == ticks[-1][1]


def test_failed_check_is_counted_not_raised():
    case = run.prepare(scaled(WORKLOADS["infer-large"], 40), 5)
    case.reference["predictions"] = case.reference["predictions"] + 1
    tally = run.Tally()
    assert run.timed_call(case, tally) is None
    assert (tally.attempted, tally.failed) == (1, 1)


def test_unresolved_name_fails_loudly_and_restores_the_rest():
    import vsmm.protocols as protocols
    import vsmm.smm as smm
    original = smm.op
    op_target = next(t for t in spans.TARGETS if t[2] == "protocols.op")
    targets = (op_target, ("smm", "no_such_function", "smm.x"))
    with pytest.raises(TraceError, match="layer smm"):
        Tracer().install(targets)
    assert smm.op is original and protocols.op is original


def test_install_wraps_every_binding_and_uninstall_restores_it():
    import vsmm.gcn as gcn
    import vsmm.protocols as protocols
    import vsmm.smm as smm
    originals = (protocols.op, smm.op, gcn.beaver_mult)
    with Tracer():
        assert smm.op is protocols.op and smm.op is not originals[0]
        assert gcn.beaver_mult is not originals[2]
    assert (protocols.op, smm.op, gcn.beaver_mult) == originals


def test_benchmark_json_mirrors_the_runner():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in doc["per_layer"]] == run.PER_LAYER
    for m in doc["end_to_end"]:
        assert (m["unit"], m["better"]) == run.END_TO_END[m["name"]]
    for m in doc["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
