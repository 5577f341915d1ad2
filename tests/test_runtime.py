import contextlib
import math
import platform
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_sparse
from vsmm import runtime
from vsmm.dealer import Dealer, Handoff, MaskRef, TapeExhausted
from vsmm.decompose import decompose_full
from vsmm.protocols import beaver_square
from vsmm.ring import random_ring, reconstruct, share_secret
from vsmm.runtime import (FRAME_BITS, CommMeter, DeadlockError,
                          NETWORK_CONDITIONS, NetworkModel, estimate_time,
                          run_two_party)
from vsmm.smm import SmmDims, smm


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
    class SlowQueue(runtime.deque):
        def popleft(self):
            item = super().popleft()
            time.sleep(0.1)  # preempted between dequeue and bookkeeping
            return item

    monkeypatch.setattr(runtime, "deque", SlowQueue)

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
    order, and the parties' own sent counts add up to the run's meter."""
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
            got = ctx.recv_perm(8, count=8)
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


@pytest.mark.parametrize("payload", [b"\xff", b"\xff" * 4],
                         ids=["short", "long"])
def test_bit_payload_length_is_checked(payload):
    # 13 bits travel in exactly 2 bytes; 1 byte is short, 4 bytes too long
    def proto(ctx):
        if ctx.party == 0:
            ctx.ep.send(payload, nbits=8 * len(payload))
        else:
            ctx.recv_bits(13)

    with pytest.raises(ValueError,
                       match=f"{len(payload)}-byte payload for 1x0 words "
                             "and 1x13 bits"):
        run_two_party(proto)


def test_short_perm_payload_is_rejected():
    def proto(ctx):
        if ctx.party == 0:
            ctx.send_perm(np.arange(8), 8)
        else:
            ctx.recv_perm(8, count=9)

    with pytest.raises(ValueError):
        run_two_party(proto)


@pytest.mark.parametrize("degree, count", [(8, 5), (1, 0)])
def test_long_perm_payload_is_rejected(degree, count):
    # 8 indices of 3 bits travel in 3 bytes, 5 in 2; at degree 1 an index
    # takes 0 bits, so any byte is too long
    def proto(ctx):
        if ctx.party == 0:
            ctx.send_perm(np.arange(8), 8)
        else:
            ctx.recv_perm(degree, count=count)

    with pytest.raises(ValueError, match=f"3-byte payload for {count} indices"):
        run_two_party(proto)


def test_perm_padding_bits_are_checked():
    # 8 indices of 3 bits fill 3 bytes, and so would 7 followed by 3 bits of
    # zero padding: the eighth index, 7, is not zero padding
    def proto(ctx):
        if ctx.party == 0:
            ctx.send_perm(np.arange(8), 8)
        else:
            ctx.recv_perm(8, count=7)

    with pytest.raises(ValueError, match="nonzero padding bits after 21 bits"):
        run_two_party(proto)


def test_perm_index_at_or_above_degree_is_rejected():
    # at degree 5 an index takes 3 bits, which also encode 5, 6 and 7
    def proto(ctx):
        if ctx.party == 0:
            ctx.send_perm(np.array([0, 6, 1, 4, 2]), 5)
        else:
            ctx.recv_perm(5, count=5)

    with pytest.raises(ValueError, match="index 6 not below degree 5"):
        run_two_party(proto)


def test_degree_one_perm_costs_zero_bits():
    def proto(ctx):
        if ctx.party == 0:
            ctx.send_perm(np.zeros(1, np.int64), 1)
        else:
            assert ctx.recv_perm(1, count=1)[0] == 0
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


def test_costs_charge_the_innermost_section():
    """Bits, offline bits and rounds go to the innermost section open when
    they happen, and a receive outside any section to "default"; each
    party's rounds add up to its clock, and the run's totals are the sum of
    the parties' own counts."""
    def proto(ctx):
        with ctx.section("outer"):
            ctx.send_ring(np.zeros(1, np.uint64))
            with ctx.section("inner"):
                ctx.send_ring(np.zeros(2, np.uint64))
                ctx.tape.osm(3)
                ctx.recv_ring((1,))
            ctx.recv_ring((2,))
        if ctx.party == 0:
            ctx.send_bits(np.ones(5, np.uint8))
        else:
            ctx.recv_bits(5)
        return ctx.ep.sent_bits, ctx.ep.clock

    (bits0, clock0), (bits1, clock1), meter = run_two_party(proto)
    assert meter.sections == {
        "outer": {"online_bits": 2 * 64, "offline_bits": 0, "rounds": 0},
        "inner": {"online_bits": 2 * 128, "offline_bits": 3 * 64, "rounds": 1},
        "default": {"online_bits": 5, "offline_bits": 0, "rounds": 1}}
    assert meter.party_rounds == {"outer": [0, 0], "inner": [1, 1],
                                  "default": [0, 1]}
    assert meter.online_bits == bits0 + bits1 == 2 * 3 * 64 + 5
    assert meter.offline_bits == 3 * 64
    assert meter.framing_bits == FRAME_BITS * 5  # 3 messages by p0, 2 by p1
    assert meter.clocks == [clock0, clock1] == [1, 2]
    for party in (0, 1):
        assert sum(r[party] for r in meter.party_rounds.values()) \
            == meter.clocks[party]


def _three_sections(ctx, framed):
    """Three sends in three sections, in a frame or not, then the peer's
    three in order."""
    with ctx.frame() if framed else contextlib.nullcontext():
        with ctx.section("ring"):
            ctx.send_ring(np.arange(3, dtype=np.uint64) + ctx.party)
        with ctx.section("bits"):
            ctx.send_bits(np.ones(5, np.uint8))
        with ctx.section("perm"):
            ctx.send_perm(np.array([2, 0, 1]) if ctx.party else
                          np.array([1, 2, 0]), 3)
    with ctx.section("read"):
        ring = ctx.recv_ring((3,))
        bits = ctx.recv_bits(5)
        perm = ctx.recv_perm(3, count=3)
    return ring.tolist(), bits.tolist(), perm.tolist(), ctx.ep.messages


def test_frame_sends_one_message():
    (*_, sent0), (*_, sent1), meter = run_two_party(_three_sections, (True,),
                                                    (True,))
    assert (sent0, sent1) == (1, 1)
    assert meter.framing_bits == 2 * FRAME_BITS


def test_frame_charges_each_part_to_its_section():
    """Section bits, rounds and clocks are those of the unframed sends."""
    *_, framed = run_two_party(_three_sections, (True,), (True,))
    *_, plain = run_two_party(_three_sections, (False,), (False,))
    assert framed.sections == plain.sections
    assert framed.party_rounds == plain.party_rounds == {
        "ring": [0, 0], "bits": [0, 0], "perm": [0, 0], "read": [1, 1]}
    assert framed.online_bits == plain.online_bits == 2 * (3 * 64 + 5 + 6)
    assert framed.clocks == plain.clocks == [1, 1]


def test_framing_leaves_the_sections_alike():
    """Receives that add no round charge nothing, so a section of nothing
    but such receives is absent whether they are served from a frame or
    are messages of their own."""
    def proto(ctx, framed):
        with ctx.frame() if framed else contextlib.nullcontext():
            with ctx.section("send"):
                for _ in range(3):
                    ctx.send_ring(np.zeros(1, np.uint64))
        with ctx.section("read"):
            ctx.recv_ring((1,))
        with ctx.section("late"):  # the same round's later messages
            ctx.recv_ring((1,))
            ctx.recv_ring((1,))

    *_, framed = run_two_party(proto, (True,), (True,))
    *_, plain = run_two_party(proto, (False,), (False,))
    assert framed.sections.keys() == plain.sections.keys() == {"send", "read"}


def test_frame_parts_are_read_in_order():
    out0, out1, _ = run_two_party(_three_sections, (True,), (False,))
    assert out0[:3] == ([1, 2, 3], [1] * 5, [2, 0, 1])
    assert out1[:3] == ([0, 1, 2], [1] * 5, [1, 2, 0])


def test_frame_spanning_a_clock_advance_raises():
    def proto(ctx):
        if ctx.party == 1:
            ctx.send_ring(np.zeros(1, np.uint64))
            return
        with ctx.frame():
            ctx.send_ring(np.zeros(1, np.uint64))
            ctx.recv_ring((1,))  # moves party 0's clock from 0 to 1
            ctx.send_ring(np.zeros(1, np.uint64))

    with pytest.raises(RuntimeError, match="frame spans clocks 0-1"):
        run_two_party(proto)


def test_receive_inside_both_frames_deadlocks():
    """A frame's parts wait for the end of its block, so two parties that
    each receive inside one have sent nothing: a DeadlockError, not a hang."""
    def proto(ctx):
        with ctx.frame():
            ctx.send_ring(np.zeros(1, np.uint64))
            ctx.recv_ring((1,))

    start = time.perf_counter()
    with pytest.raises(DeadlockError):
        run_two_party(proto)
    assert time.perf_counter() - start < runtime.RECV_TIMEOUT_S / 10


def _squarings(ctx, x, rounds):
    with ctx.section(f"sq{rounds}"):
        for _ in range(rounds):
            x = beaver_square(ctx, x)
    return x


@pytest.mark.parametrize("a, b", [(3, 1), (1, 3), (0, 2), (2, 2)])
def test_parallel_matches_the_sequence(a, b):
    """parallel(f, g) sends, draws and returns what f(); g() does; only the
    clock differs: the fork's clock plus the larger branch cost."""
    def proto(ctx, x, forked):
        x = beaver_square(ctx, x)  # a fork clock of 1
        branches = (lambda: _squarings(ctx, x, a),
                    lambda: _squarings(ctx, x + np.uint64(1), b))
        outs = ctx.parallel(*branches) if forked else [f() for f in branches]
        return outs, ctx.tape.ctr

    x = np.arange(5, dtype=np.uint64)
    runs = [run_two_party(proto, (x, forked), (x, forked), seed=4)
            for forked in (False, True)]
    (seq0, seq1, seq), (par0, par1, par) = runs
    for got, want in ((par0, seq0), (par1, seq1)):
        # the same dealer draws: each squaring of an array draws the mask of
        # its opening, then its (A, A^2) pair
        assert got[1] == want[1] == 2 * (1 + a + b)
        for g, w in zip(got[0], want[0]):
            assert np.array_equal(g, w)
    for key in ("online_bits", "offline_bits", "framing_bits"):
        assert getattr(par, key) == getattr(seq, key)
    assert seq.rounds == 1 + a + b
    assert par.clocks == [1 + max(a, b)] * 2 and par.rounds == 1 + max(a, b)
    for party in (0, 1):
        assert sum(r[party] for r in par.party_rounds.values()) \
            == par.clocks[party]


_LEAF = st.integers(0, 4)
_FORK = st.lists(_LEAF, min_size=1, max_size=3)  # a fork of leaves
_NESTED = st.lists(st.one_of(_LEAF, _FORK), min_size=1, max_size=3)


def _cost(node) -> int:
    """A node's rounds when every exchange is simultaneous: a leaf's count,
    a fork's largest branch."""
    return max(map(_cost, node), default=0) if isinstance(node, list) else node


def _leaves(node):
    if isinstance(node, list):
        return [leaf for n in node for leaf in _leaves(n)]
    return [node]


@given(st.lists(st.one_of(_LEAF, _NESTED), min_size=1, max_size=4),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_parallel_section_rounds_sum_to_clocks(program, lead):
    """Leaves of 0-4 exchanges, each in a section of its own, forked up to
    two deep: each party's section rounds add up to its clock. With `lead`
    party 1 starts a round ahead, so an exchange moves only one clock."""
    def run(ctx, node, got, path):
        if isinstance(node, list):
            ctx.parallel(*(lambda n=n, i=i: run(ctx, n, got, path + (i,))
                           for i, n in enumerate(node)))
            return
        with ctx.section(f"leaf{path}"):
            for k in range(node):
                ctx.send_ring(np.array([k], np.uint64))
                got.append(int(ctx.recv_ring((1,))[0]))

    def proto(ctx):
        got = []
        if lead and ctx.party == 0:
            ctx.send_ring(np.zeros(1, np.uint64))
        elif lead:
            ctx.recv_ring((1,))
        for i, node in enumerate(program):
            run(ctx, node, got, (i,))
        return got

    got0, got1, meter = run_two_party(proto)
    assert got0 == got1 == [k for leaf in _leaves(program)
                            for k in range(leaf)]
    for party in (0, 1):
        assert sum(r[party] for r in meter.party_rounds.values()) \
            == meter.clocks[party]
    assert meter.rounds == max(meter.clocks)
    if not lead:
        assert meter.clocks == [sum(map(_cost, program))] * 2


def test_parallel_branch_cannot_wait_for_a_later_branch():
    # both parties run the receiving branch first, so neither sends
    def proto(ctx):
        ctx.parallel(lambda: ctx.recv_ring((1,)),
                     lambda: ctx.send_ring(np.zeros(1, np.uint64)))

    with pytest.raises(DeadlockError):
        run_two_party(proto)


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

# a Beaver or square request names masks dealt at earlier counters
_PLAN = [("op", ("gen_op_rand", (9, 3))), ("osm", ("gen_osm_rand", (17,))),
         ("privmul", ("gen_privmul", ((4, 2),))),
         ("mask", ("gen_mask", ((3, 4),))), ("mask", ("gen_mask", ((4, 2),))),
         ("beaver", ("gen_beaver", (MaskRef(3, (3, 4)), MaskRef(4, (4, 2)),
                                    True))),
         ("mask", ("gen_mask", ((5,),))),
         ("square", ("gen_square", (MaskRef(6, (5,)),))),
         ("bits", ("gen_bit_triples", (3, 40, (None, None), ((0, 1),)))),
         ("mask", ("gen_mask", ((4, 3),))),
         ("beaver", ("gen_beaver", (MaskRef(9, (4, 3), True),
                                    MaskRef(4, (4, 2)), True))),
         ("mask", ("gen_mask", ((4, 7),))), ("mask", ("gen_mask", ((4, 1),))),
         ("beaver", ("gen_beaver", (MaskRef(11, (4, 7)), MaskRef(12, (4, 1)),
                                    False))),
         ("square", ("gen_square", (MaskRef(9, (4, 3)),)))]


def _draw_plan(ctx):
    return [getattr(ctx.tape, kind)(*args) for kind, (_, args) in _PLAN]


def test_run_deals_each_tuple_once(monkeypatch):
    calls = []
    for method in {method for _, (method, _) in _PLAN}:
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
            if method == "gen_mask":  # TapeView.mask pairs it with the counter
                assert got[0] == ctr
                got = got[1]
            assert type(got) is type(want)
            if isinstance(want, np.ndarray):  # a mask share or a C share
                assert np.array_equal(got, want), method
                continue
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


# the dealer's offline message to party 1 in each kind of tuple; gen_mask's
# view is party 1's own, and in the rest all of party 1's view is its message
_CORRECTIONS = {"gen_op_rand": {"piU"}, "gen_osm_rand": {"bu"},
                "gen_privmul": {"au"}, "gen_bit_triples": {"products"},
                "gen_dabits": {"R", "ru"}}
_DABITS = [("dabits", ("gen_dabits", ((3, 2), False))),
           ("dabits", ("gen_dabits", ((5,), True)))]


def _assert_view(got, want, method, kept=None):
    """got equals the dealer's view want; with `kept`, only those fields of
    it, the rest None."""
    if isinstance(want, np.ndarray):
        assert np.array_equal(got, want), method
        return
    assert type(got) is type(want)
    for name, value in vars(want).items():
        if kept is not None and name not in kept:
            assert getattr(got, name) is None, (method, name)
        elif isinstance(value, np.ndarray):
            assert np.array_equal(getattr(got, name), value), (method, name)
        else:
            assert getattr(got, name) == value, (method, name)


def test_party0_deal_hands_party1_its_correction_alone():
    """A tuple party 0 deals leaves in the hand-off only party 1's
    correction, and nothing for gen_mask; party 1's draw expands the rest
    from its own key into the view a fresh dealer deals."""
    plan = [request for _, request in _PLAN + _DABITS]
    dealer, fresh, handoff = Dealer.from_seed(3), Dealer.from_seed(3), Handoff()
    for ctr, request in enumerate(plan):
        handoff.draw(dealer, 0, ctr, request)
    held = {ctr: entry[1] for ctr, entry in handoff._held.items()}
    for ctr, request in enumerate(plan):
        method, args = request
        _, want, bits = getattr(fresh, method)(ctr, *args)
        if method == "gen_mask":
            assert held[ctr] is None
        else:
            _assert_view(held[ctr], want, method, _CORRECTIONS.get(method))
        view, drawn_bits = handoff.draw(dealer, 1, ctr, request)
        _assert_view(view, want, method)
        assert drawn_bits == bits
    assert not handoff._held


def test_party1_deal_hands_party0_its_whole_view():
    """A tuple party 1 deals first leaves party 0's whole view."""
    plan = [request for _, request in _PLAN + _DABITS]
    dealer, fresh, handoff = Dealer.from_seed(3), Dealer.from_seed(3), Handoff()
    for ctr, request in enumerate(plan):
        handoff.draw(dealer, 1, ctr, request)
    for ctr, (method, args) in enumerate(plan):
        want, _, bits = getattr(fresh, method)(ctr, *args)
        _assert_view(handoff._held[ctr][1], want, method)
        view, drawn_bits = handoff.draw(dealer, 0, ctr, (method, args))
        _assert_view(view, want, method)
        assert drawn_bits == bits


@pytest.mark.parametrize("requests", [
    (("osm", (4,)), ("osm", (5,))),
    (("op", (4, 1)), ("osm", (4,))),
    (("beaver", (MaskRef(0, (2, 2)), MaskRef(1, (2, 2)), True)),
     ("beaver", (MaskRef(0, (2, 2)), MaskRef(1, (2, 2)), False))),
    # the peer names another opened mask, or reads the same one transposed
    (("beaver", (MaskRef(0, (2, 2)), MaskRef(2, (2, 2)), True)),
     ("beaver", (MaskRef(1, (2, 2)), MaskRef(2, (2, 2)), True))),
    (("square", (MaskRef(0, (2, 2)),)), ("square", (MaskRef(0, (2, 2), True),))),
])
def test_mismatched_draws_raise(requests):
    def proto(ctx):
        kind, args = requests[ctx.party]
        getattr(ctx.tape, kind)(*args)

    with pytest.raises(TapeExhausted):
        run_two_party(proto)


def test_smm_call_peak_memory():
    """The hand-off holds only party 1's corrections, party 1 forms x - U
    in U's buffer and both parties gather pi(U) in place: one smm call at
    600 nodes, 5 edges per node and d = 16 peaks at about 3.6 MB of traced
    allocations, 5.3 MB when the hand-off held party 1's whole views."""
    rng = np.random.default_rng(0)
    bundle = decompose_full(random_sparse(rng, 600, 600, 600 * 5))
    dims = SmmDims(bundle.m, bundle.n, bundle.t)
    x0, x1 = share_secret(random_ring(rng, (600, 16)),
                          random_ring(rng, (600, 16)))

    def proto(ctx, b, xin):
        return smm(ctx, b, dims, xin)

    run_two_party(proto, (bundle, x0), (None, x1))  # fills lazy caches
    tracemalloc.start()
    try:
        run_two_party(proto, (bundle, x0), (None, x1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20, peak


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator set-up is glibc's")
def test_repeated_smm_calls_reuse_their_pages():
    # freed temporaries stay mapped, so a call like the one before it
    # touches no new pages; when glibc handed them back, a third call at this
    # shape took about 1,700 to 3,500 minor faults
    resource = pytest.importorskip("resource")
    rng = np.random.default_rng(0)
    bundle = decompose_full(random_sparse(rng, 600, 600, 600 * 5))
    dims = SmmDims(bundle.m, bundle.n, bundle.t)
    x0, x1 = share_secret(random_ring(rng, (600, 16)),
                          random_ring(rng, (600, 16)))

    def proto(ctx, b, xin):
        return smm(ctx, b, dims, xin)

    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_two_party(proto, (bundle, x0), (None, x1))
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)
    assert faults[-1] < 500, faults
