import queue
import sys
import time

import numpy as np
import pytest

from vsmm import runtime
from vsmm.runtime import (CommMeter, DeadlockError, NETWORK_CONDITIONS,
                          NetworkModel, estimate_time, run_two_party)


def test_empty_protocol_zero_rounds():
    def proto(ctx):
        return ctx.party
    out0, out1, meter = run_two_party(proto)
    assert (out0, out1) == (0, 1)
    assert meter.rounds == 0
    assert meter.online_bits == 0


def test_simultaneous_exchange_is_one_round():
    def proto(ctx):
        ctx.send_ring(np.array([ctx.party], dtype=np.uint64))
        return int(ctx.recv_ring((1,))[0])
    out0, out1, meter = run_two_party(proto)
    assert (out0, out1) == (1, 0)
    assert meter.rounds == 1
    assert meter.online_bits == 128  # one u64 each way


def test_dependent_sends_count_rounds():
    def proto(ctx):
        if ctx.party == 0:
            ctx.send_ring(np.zeros(1, np.uint64))
            ctx.recv_ring((1,))
        else:
            ctx.recv_ring((1,))
            ctx.send_ring(np.zeros(1, np.uint64))
    _, _, meter = run_two_party(proto)
    assert meter.rounds == 2


def test_deadlock_detection():
    def proto(ctx):
        ctx.recv_ring((1,))
    with pytest.raises(DeadlockError):
        run_two_party(proto)


def test_no_false_deadlock_after_dequeue(monkeypatch):
    """A party that has taken its message off the queue, but not yet returned
    from recv, must not look blocked to its peer."""
    class SlowQueue(queue.Queue):
        def get(self, *args, **kwargs):
            item = super().get(*args, **kwargs)
            time.sleep(0.1)  # preempted between dequeue and bookkeeping
            return item

    monkeypatch.setattr(runtime.queue, "Queue", SlowQueue)

    def proto(ctx):
        if ctx.party == 0:
            time.sleep(0.05)
            ctx.send_ring(np.ones(1, np.uint64))
            return int(ctx.recv_ring((1,))[0])
        ctx.send_ring(ctx.recv_ring((1,)) + np.uint64(1))

    out0, _, _ = run_two_party(proto)
    assert out0 == 2


def test_message_storm_with_frequent_thread_switches():
    """Simultaneous and dependent exchanges while the interpreter switches
    threads as often as it can: no false deadlock, every message arrives in
    order, and the parties' own sent counts add up to the shared meter."""
    def proto(ctx):
        got = []
        for i in range(150):
            ctx.send_ring(np.array([i], np.uint64))  # simultaneous exchange
            got.append(int(ctx.recv_ring((1,))[0]))
            if ctx.party == i % 2:  # dependent exchange, alternating sides
                ctx.send_ring(np.array([i], np.uint64))
            else:
                got.append(int(ctx.recv_ring((1,))[0]))
        return got, ctx.ep.sent_bits

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        (got0, bits0), (got1, bits1), meter = run_two_party(proto)
    finally:
        sys.setswitchinterval(old)
    for party, got in ((0, got0), (1, got1)):
        assert got == [v for i in range(150)
                       for v in ([i, i] if i % 2 != party else [i])]
    assert bits0 + bits1 == meter.online_bits == 2 * 150 * 64 + 150 * 64


def test_peer_failure_propagates_original_error():
    class Boom(RuntimeError):
        pass

    def proto(ctx):
        if ctx.party == 0:
            raise Boom("party 0 failed")
        ctx.recv_ring((1,))
    with pytest.raises(Boom):
        run_two_party(proto)


def test_bit_packing_payload():
    def proto(ctx):
        if ctx.party == 0:
            ctx.send_bits(np.ones(13, np.uint8))
        else:
            assert ctx.recv_bits(13).sum() == 13
    _, _, meter = run_two_party(proto)
    assert meter.online_bits == 13


def test_perm_packing_payload():
    def proto(ctx):
        if ctx.party == 0:
            ctx.send_perm(np.arange(8), 8)
        else:
            got = ctx.recv_perm(8)
            assert np.array_equal(got, np.arange(8))
    _, _, meter = run_two_party(proto)
    assert meter.online_bits == 8 * 3  # ceil(log2 8) bits per index


def test_degree_one_perm_costs_zero_bits():
    def proto(ctx):
        if ctx.party == 0:
            ctx.send_perm(np.zeros(1, np.int64), 1)
        else:
            assert ctx.recv_perm(1)[0] == 0
    _, _, meter = run_two_party(proto)
    assert meter.online_bits == 0


def test_framing_metered_separately():
    def proto(ctx):
        ctx.send_ring(np.zeros(4, np.uint64))
        ctx.recv_ring((4,))
    _, _, meter = run_two_party(proto)
    assert meter.online_bits == 2 * 4 * 64
    assert meter.framing_bits == 2 * 48


def test_sections_and_report():
    def proto(ctx):
        with ctx.section("phase_a"):
            ctx.send_ring(np.zeros(1, np.uint64))
            ctx.recv_ring((1,))
    _, _, meter = run_two_party(proto)
    report = meter.report("demo", NETWORK_CONDITIONS)
    assert report["sections"]["phase_a"]["online_bits"] == 128
    assert report["sections"]["phase_a"]["rounds"] == 1
    assert set(report["est_time_by_condition"]) == {"normal", "nb", "hl"}


def test_estimate_time_formula():
    meter = CommMeter()
    meter.online_bits = 8_000_000
    meter.framing_bits = 0
    meter.rounds = 10
    model = NetworkModel(bandwidth_bps=8e6, latency_s=0.05)
    assert estimate_time(meter, model) == pytest.approx(10 * 0.05 + 1.0)


def test_network_conditions_table():
    assert NETWORK_CONDITIONS["normal"].bandwidth_bps == 800e6
    assert NETWORK_CONDITIONS["nb"].bandwidth_bps == 200e6
    assert NETWORK_CONDITIONS["hl"].latency_s == 50e-3
