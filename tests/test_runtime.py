import math
import queue
import sys
import threading
import time

import numpy as np
import pytest

from vsmm import runtime
from vsmm.dealer import Dealer, TapeExhausted
from vsmm.ring import reconstruct
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


def _reference_perm_bytes(indices, degree):
    """Index after index, ceil(log2 degree) bits each, most significant bit
    first; the last byte is zero-padded."""
    b = math.ceil(math.log2(degree)) if degree > 1 else 0
    bits = "".join(format(int(v), f"0{b}b") if b else "" for v in indices)
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))


@pytest.mark.parametrize("degree", [1, 2, 3, 8, 4932, 8192, 8193])
@pytest.mark.parametrize("copies", [1, 3])
def test_perm_wire_format(degree, copies):
    rng = np.random.default_rng(degree)
    indices = np.concatenate([rng.permutation(degree) for _ in range(copies)])

    def proto(ctx):
        if ctx.party == 0:
            ctx.send_perm(indices.reshape(copies, degree), degree)
            ctx.send_perm(indices, degree)
            return None
        return ctx.ep.recv(), ctx.recv_perm(degree, count=copies * degree)

    _, (payload, got), meter = run_two_party(proto)
    assert payload == _reference_perm_bytes(indices, degree)
    assert np.array_equal(got, indices)
    b = math.ceil(math.log2(degree)) if degree > 1 else 0
    assert meter.online_bits == 2 * copies * degree * b


@pytest.mark.parametrize("b", [1, 7, 8, 9, 17, 25, 33, 57])
@pytest.mark.parametrize("count", [1, 7, 9, 17])
def test_perm_wire_format_wide_and_ragged(b, count):
    # indices of up to 57 bits, in counts that leave a partial group of 8
    degree = 2 ** b
    rng = np.random.default_rng(100 * b + count)
    indices = rng.integers(0, degree, count, dtype=np.uint64).astype(np.int64)

    def proto(ctx):
        if ctx.party == 0:
            ctx.send_perm(indices, degree)
            ctx.send_perm(indices, degree)
            return None
        return ctx.ep.recv(), ctx.recv_perm(degree, count=count)

    _, (payload, got), meter = run_two_party(proto)
    assert payload == _reference_perm_bytes(indices, degree)
    assert np.array_equal(got, indices)
    assert meter.online_bits == 2 * count * b


def test_short_perm_payload_is_rejected():
    def proto(ctx):
        if ctx.party == 0:
            ctx.send_perm(np.arange(8), 8)
        else:
            ctx.recv_perm(8, count=9)

    with pytest.raises(ValueError):
        run_two_party(proto)


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
    report = meter.report("demo")
    assert report["sections"]["phase_a"]["online_bits"] == 128
    assert report["sections"]["phase_a"]["rounds"] == 1


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


# deal-once: paired TapeViews in one run share each dealer tuple

_PLAN = [("op", ("gen_op_rand", (9, 3))), ("osm", ("gen_osm_rand", (17,))),
         ("privmul", ("gen_privmul", ((4, 2),))),
         ("beaver", ("gen_beaver", ((3, 4), (4, 2), True))),
         ("square", ("gen_square", ((5,),))),
         ("bits", ("gen_bit_triples", (40,)))]


def _draw_plan(ctx):
    return [getattr(ctx.tape, kind)(*args) for kind, (_, args) in _PLAN]


def test_run_deals_each_tuple_once(monkeypatch):
    calls = []
    for _, (method, _) in _PLAN:
        original = getattr(Dealer, method)

        def counted(self, ctr, *args, _method=method, _original=original,
                    **kwargs):
            calls.append((_method, ctr))
            return _original(self, ctr, *args, **kwargs)

        monkeypatch.setattr(Dealer, method, counted)
    run_two_party(_draw_plan, seed=3)
    assert sorted(calls, key=lambda c: c[1]) == [
        (method, ctr) for ctr, (_, (method, _)) in enumerate(_PLAN)]


def test_dealt_views_match_fresh_dealer():
    views0, views1, meter = run_two_party(_draw_plan, seed=3)
    fresh = Dealer.from_seed(3)
    offline = 0
    for ctr, (_, (method, args)) in enumerate(_PLAN):
        want0, want1, bits = getattr(fresh, method)(ctr, *args)
        offline += bits
        for got, want in ((views0[ctr], want0), (views1[ctr], want1)):
            assert type(got) is type(want)
            for name, value in vars(want).items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(getattr(got, name), value), (method, name)
                else:
                    assert getattr(got, name) == value, (method, name)
    assert meter.offline_bits == offline


def test_deal_once_with_frequent_thread_switches(monkeypatch):
    """Four runs at once (eight party threads on fewer cores) racing for
    their counters with no messages between draws: every tuple is generated
    exactly once per run and both views stay correlated."""
    calls = []
    original = Dealer.gen_osm_rand

    def counted(self, ctr, *args, **kwargs):
        calls.append((id(self), ctr))
        return original(self, ctr, *args, **kwargs)

    monkeypatch.setattr(Dealer, "gen_osm_rand", counted)
    dealers = [Dealer.from_seed(seed) for seed in range(4)]
    results = {}

    def one(dealer):
        results[id(dealer)] = run_two_party(
            lambda ctx: [ctx.tape.osm(3) for _ in range(200)], dealer=dealer)

    threads = [threading.Thread(target=one, args=(d,)) for d in dealers]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert sorted(calls) == sorted((id(d), ctr) for d in dealers
                                   for ctr in range(200))
    for views0, views1, meter in results.values():
        assert meter.offline_bits == 200 * 3 * 64
        for a, b in zip(views0, views1):
            assert np.array_equal(reconstruct(a.bu, b.bu),
                                  a.b * reconstruct(a.u, b.u))


@pytest.mark.parametrize("requests", [
    (("osm", (4,)), ("osm", (5,))),
    (("op", (4, 1)), ("osm", (4,))),
    (("beaver", ((2, 2), (2, 2), True)), ("beaver", ((2, 2), (2, 2), False))),
])
def test_mismatched_draws_raise(requests):
    def proto(ctx):
        kind, args = requests[ctx.party]
        getattr(ctx.tape, kind)(*args)

    with pytest.raises(TapeExhausted):
        run_two_party(proto)
