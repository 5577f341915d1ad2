"""In-process two-party execution harness with byte/round metering.

Both parties run concurrently as threads; channels are FIFO queues of framed
byte messages. Rounds are counted with a dependency rule implemented as a
logical clock: a message is stamped with the sender's clock, and a receive
advances the receiver's clock past the stamp. Two independent simultaneous
sends therefore cost one round, while a send that could only happen after a
receive starts a new round.

Each party meters itself: its Endpoint charges the bits it sends, the offline
bits party 1 draws and the rounds a receive adds to its clock to its innermost
open section ("default" outside any). The run's `CommMeter` sums the two
tallies once both threads have joined. Payload bits are metered exactly as
placed on the wire; a modelled 6-byte frame per message (4-byte little-endian
length + 2-byte protocol tag) is accounted separately so that formula
assertions compare payload bits only. `PartyContext.frame` sends a block's
messages as one, in one modelled frame.

`PartyContext.parallel` runs branches that read no other branch's output in
turn, each from the fork's clock, so messages and draws keep their order; a
receive charges only the advance above the largest clock an earlier branch
reached, so each party's section rounds still sum to its clock.

Both party threads allocate from one glibc malloc arena that keeps its
freed pages. Left to its defaults, glibc gives each new thread an arena of
its own and hands a freed block of more than a few MB back to the kernel,
so every smm call would fault its temporaries in afresh (about 50 MB a call
at 2,500 nodes and d = 16). The first `run_two_party` in a process
therefore calls `mallopt` once, before its threads start: one arena
(`M_ARENA_MAX` 1), blocks up to 32 MiB on the heap (`M_MMAP_THRESHOLD`, on
64-bit hosts) and no trim below 512 MiB of free heap top
(`M_TRIM_THRESHOLD`). One arena keeps one high-water mark where two would
each hold their own. The setting is process-wide: it holds for every thread
of any program that imports vsmm and runs a protocol, and freed memory
stays with the process. Where the C library is not glibc, nothing is set.
"""

from __future__ import annotations

import ctypes
import functools
import platform
import threading
import warnings
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .dealer import Dealer, Handoff, TapeView

FRAME_BITS = 48  # 4-byte length + 2-byte tag per message
RECV_TIMEOUT_S = 120.0


class DeadlockError(RuntimeError):
    """Both parties are blocked on a receive with no message in flight."""


class PeerFailedError(RuntimeError):
    """The other party's thread raised before sending the awaited message."""


class CommMeter:
    """A run's online/offline payload bits, framing overhead and rounds."""

    def __init__(self) -> None:
        self.online_bits = 0
        self.offline_bits = 0
        self.framing_bits = 0
        self.rounds = 0
        self.clocks = [0, 0]  # each party's logical clock at the end of a run
        self.sections: dict[str, dict] = {}
        self.party_rounds: dict[str, list[int]] = {}

    @classmethod
    def total(cls, parties: list[Endpoint]) -> CommMeter:
        """The run's meter, summed from both parties' tallies after the run.

        A section's rounds are the larger of the parties' sums over its
        calls, which `party_rounds` keeps. The parties' clocks can differ
        (smm advances party 0's by 2 and party 1's by 0 to 2, see smm.py),
        so the sections' rounds can add up to more than the run's."""
        meter = cls()
        meter.online_bits = sum(ep.sent_bits for ep in parties)
        meter.framing_bits = FRAME_BITS * sum(ep.messages for ep in parties)
        meter.clocks = [ep.clock for ep in parties]
        meter.rounds = max(meter.clocks)
        for name in dict.fromkeys(n for ep in parties for n in ep.tally):
            online, offline, rounds = zip(*(ep.tally.get(name, (0, 0, 0))
                                            for ep in parties))
            meter.party_rounds[name] = list(rounds)
            meter.sections[name] = {"online_bits": sum(online),
                                    "offline_bits": sum(offline),
                                    "rounds": max(rounds)}
            meter.offline_bits += sum(offline)
        return meter

    @property
    def online_bytes(self) -> int:
        return (self.online_bits + 7) // 8

    @property
    def offline_bytes(self) -> int:
        return (self.offline_bits + 7) // 8

    def report(self, protocol: str = "") -> dict:
        return {
            "protocol": protocol,
            "online_bits": self.online_bits,
            "online_bytes": self.online_bytes,
            "offline_bits": self.offline_bits,
            "offline_bytes": self.offline_bytes,
            "framing_bytes": (self.framing_bits + 7) // 8,
            "rounds": self.rounds,
            "sections": {k: dict(v) for k, v in self.sections.items()},
        }


@dataclass(frozen=True)
class NetworkModel:
    bandwidth_bps: float
    latency_s: float


NETWORK_CONDITIONS = {
    "normal": NetworkModel(800e6, 0.022e-3),
    "nb": NetworkModel(200e6, 0.022e-3),
    "hl": NetworkModel(800e6, 50e-3),
}


def estimate_time(meter: CommMeter, model: NetworkModel) -> float:
    """Analytic time: rounds * latency + transmitted bits / bandwidth."""
    bits = meter.online_bits + meter.framing_bits
    return meter.rounds * model.latency_s + bits / model.bandwidth_bps


class _Runtime:
    """The channels the parties share. Inboxes, waiting flags and failure
    flags change only under `cond`, so a party never sees its peer marked
    waiting after the peer has already taken a message."""

    def __init__(self):
        self.cond = threading.Condition()
        self.inboxes = (deque(), deque())  # per party: (payload, sender clock)
        self.waiting = [False, False]
        self.failed = [False, False]


class Endpoint:
    """One party's channel endpoint: its logical round clock and its own
    tally, each cost charged to its current section as it happens."""

    def __init__(self, runtime: _Runtime, party: int):
        self._rt = runtime
        self.party = party
        self.clock = 0
        self.sent_bits = 0
        self.messages = 0
        self.reached = 0  # the largest clock any branch has reached
        self.section = "default"
        self.tally: dict[str, list[int]] = {}  # [online bits, offline, rounds]

    def _charge(self, slot: int, amount: int) -> None:
        self.tally.setdefault(self.section, [0, 0, 0])[slot] += amount

    def charge_offline(self, bits: int) -> None:
        self._charge(1, bits)

    def charge_sent(self, bits: int) -> None:
        self.sent_bits += bits
        self._charge(0, bits)

    def send(self, payload, nbits: int | None = None) -> None:
        """One message; a frame's parts were each charged when made."""
        bits = len(payload) * 8 if nbits is None else nbits
        if not isinstance(payload, tuple):
            self.charge_sent(bits)
        self.messages += 1
        with self._rt.cond:
            self._rt.inboxes[1 - self.party].append((payload, self.clock))
            self._rt.cond.notify_all()

    def recv(self):
        rt, me, peer = self._rt, self.party, 1 - self.party
        inbox = rt.inboxes[me]
        with rt.cond:
            while not inbox:
                if rt.failed[peer]:
                    raise PeerFailedError("peer thread failed")
                if rt.waiting[peer] and not rt.inboxes[peer]:
                    raise DeadlockError(
                        "both parties blocked on receive with empty channels")
                rt.waiting[me] = True
                woke = rt.cond.wait(RECV_TIMEOUT_S)
                rt.waiting[me] = False
                if not woke:
                    raise DeadlockError("receive timed out")
            payload, stamp = inbox.popleft()
        self.clock = max(self.clock, stamp + 1)
        if self.clock > self.reached:  # a receive that adds no round charges none
            self._charge(2, self.clock - self.reached)
            self.reached = self.clock
        return payload


class PartyContext:
    """Everything one party's protocol code needs: channel and tapes."""

    def __init__(self, endpoint: Endpoint, tape):
        self.ep = endpoint
        self.tape = tape
        self.party = endpoint.party
        # the open frame's parts; the unread parts of the last frame received
        self._frame, self._parts = None, deque()

    @contextmanager
    def section(self, name: str):
        """Charge this party's costs inside the block to `name`."""
        outer, self.ep.section = self.ep.section, name
        try:
            yield
        finally:
            self.ep.section = outer

    def parallel(self, *branches) -> list:
        """The zero-argument branches' results, each run in turn from the
        fork's clock; the join's clock is the largest branch end."""
        fork, ends, outs = self.ep.clock, [self.ep.clock], []
        for branch in branches:
            self.ep.clock = fork
            outs.append(branch())
            ends.append(self.ep.clock)
        self.ep.clock = max(ends)
        return outs

    @contextmanager
    def frame(self):
        """Send the block's messages as one: each is charged to its section
        as it is made, and at the end of the block all go out, uncopied, in
        one Endpoint.send of their summed bits. The peer's recv_* calls read
        them in order. A frame is one round: a receive that moves the clock
        after its first send raises. Frames do not nest."""
        self._frame = []
        try:
            yield
            if self._frame:
                parts, bits = zip(*self._frame)
                self.ep.send(parts, nbits=sum(bits))
        finally:
            self._frame = None

    def _send(self, payload: bytes, nbits: int) -> None:
        """Send a message now, or add it to the open frame."""
        if self._frame is None:
            return self.ep.send(payload, nbits=nbits)
        self.ep.charge_sent(nbits)
        self._frame.append((payload, nbits))

    def _recv(self) -> bytes:
        """The next part of the last frame received, else the next message."""
        if not self._parts:
            clock, payload = self.ep.clock, self.ep.recv()
            if self._frame and self.ep.clock != clock:
                raise RuntimeError(f"frame spans clocks {clock}-{self.ep.clock}")
            if not isinstance(payload, tuple):
                return payload
            self._parts.extend(payload)
        return self._parts.popleft()

    # wire encodings ------------------------------------------------------

    def send_ring(self, arr: np.ndarray) -> None:
        a = np.ascontiguousarray(arr, dtype="<u8")
        self._send(a.tobytes(), 64 * a.size)

    def recv_ring(self, shape) -> np.ndarray:
        """The peer's ring elements as a read-only view of the payload."""
        return np.frombuffer(self._recv(), dtype="<u8").reshape(shape)

    def send_bits(self, bits: np.ndarray) -> None:
        """0/1 entries packed 8 to a byte, as one send_gates row."""
        self.send_gates(np.reshape(bits, (1, -1)), 0)

    def recv_bits(self, n: int) -> np.ndarray:
        """The peer's send_bits entries as n 0/1 words."""
        return self.recv_gates(0, n, 1)[0]

    def send_gates(self, gates: np.ndarray, words: int) -> None:
        """GMW openings, an (r, words + b) array: its first `words` columns
        as little-endian words, then its b 0/1 columns packed 8 to a byte;
        r*(64*words + b) bits in one message."""
        head = np.ascontiguousarray(gates[:, :words], dtype="<u8")
        tail = gates[:, words:]
        self._send(head.tobytes() + np.packbits(tail).tobytes(),
                   64 * head.size + tail.size)

    def recv_gates(self, words: int, bits: int, rows: int) -> np.ndarray:
        """The peer's send_gates openings as a (rows, words + bits) array."""
        raw = np.frombuffer(self._recv(), dtype=np.uint8)
        head = 8 * rows * words
        if raw.size != head + -(-rows * bits // 8):
            raise ValueError(f"{raw.size}-byte payload for {rows}x{words} "
                             f"words and {rows}x{bits} bits")
        tail = np.unpackbits(raw[head:])
        if tail[rows * bits:].any():
            raise ValueError(f"nonzero padding bits after {rows * bits} bits")
        tail = tail[:rows * bits].reshape(rows, bits)
        return np.concatenate(
            [raw[:head].view("<u8").reshape(rows, words), tail], axis=1)

    def send_perm(self, indices: np.ndarray, degree: int) -> None:
        """Bit-packed permutation indices: ceil(log2 degree) bits each,
        most significant bit first, zero-padded to a whole byte at the end.

        Eight consecutive b-bit indices fill exactly b bytes. Each group of
        eight is built as one 64*ceil(b/8)-bit big-endian number in uint64
        words, one shift/or pass per position in the group, and its first b
        bytes go on the wire. The last group is padded with zero indices;
        int64 indices that fill whole groups are read in place.
        """
        b = index_bits(degree)
        idx = np.ravel(indices)
        if b == 0:
            self._send(b"", 0)
            return
        if idx.size % 8 == 0 and idx.dtype == np.int64:
            groups = idx.view(np.uint64).reshape(-1, 8)
        else:
            groups = np.zeros((-(-idx.size // 8), 8), dtype=np.uint64)
            groups.ravel()[:idx.size] = idx
        words = np.zeros((len(groups), -(-b // 8)), dtype=np.uint64)
        for j, (w, lo, hi) in enumerate(_group_slots(b)):
            if hi is None:  # the index sits inside word w
                words[:, w] |= groups[:, j] << lo
            else:  # its high bits end word w, its low bits start word w + 1
                words[:, w] |= groups[:, j] >> hi
                words[:, w + 1] |= groups[:, j] << lo
        payload = words.astype(">u8").view(np.uint8)[:, :b].tobytes()
        self._send(payload[:-(-idx.size * b // 8)], idx.size * b)

    def recv_perm(self, degree: int, count: int) -> np.ndarray:
        """The peer's `count` send_perm indices below `degree`, from exactly
        ceil(count * b / 8) bytes at b = ceil(log2 degree). An index at or
        above `degree` is rejected here, so gathers by it need no check."""
        b = index_bits(degree)
        payload = self._recv()
        if len(payload) != -(-count * b // 8):
            raise ValueError(f"{len(payload)}-byte payload for {count} "
                             f"indices of {b} bits")
        if b == 0:
            return np.zeros(count, dtype=np.int64)
        n_groups = -(-count // 8)
        raw = np.zeros((n_groups, 8 * -(-b // 8)), dtype=np.uint8)
        raw[:, :b] = np.frombuffer(payload.ljust(n_groups * b, b"\0"),
                                   dtype=np.uint8).reshape(n_groups, b)
        words = raw.view(">u8")
        out = np.empty((n_groups, 8), dtype=np.int64)
        bits = out.view(np.uint64)
        for j, (w, lo, hi) in enumerate(_group_slots(b)):
            if hi is None:
                bits[:, j] = words[:, w] >> lo
            else:
                bits[:, j] = words[:, w] << hi | words[:, w + 1] >> lo
        bits &= np.uint64((1 << b) - 1)  # drop the bits of earlier indices
        if out.ravel()[count:].any():  # the padding, then zero bytes
            raise ValueError(f"nonzero padding bits after {count * b} bits")
        idx = out.ravel()[:count]
        if count and idx.max() >= degree:
            raise ValueError(f"index {idx.max()} not below degree {degree}")
        return idx


def _group_slots(b: int) -> list[tuple]:
    """Where each of the eight b-bit indices of a group sits in the group's
    big-endian uint64 words, as (w, lo, hi). An index inside word w reads as
    `word[w] >> lo` (hi is None); one that runs on into word w + 1, where
    its low hi bits are, reads as `word[w] << hi | word[w + 1] >> lo`."""
    slots = []
    for j in range(8):
        w, start = divmod(j * b, 64)
        end = start + b
        if end <= 64:
            slots.append((w, np.uint64(64 - end), None))
        else:
            slots.append((w, np.uint64(128 - end), np.uint64(end - 64)))
    return slots


def index_bits(k: int) -> int:
    """ceil(log2 k), the wire width of an index below k (0 for k <= 1)."""
    return max(k - 1, 0).bit_length()


# (param, value) for mallopt: M_ARENA_MAX, M_MMAP_THRESHOLD and
# M_TRIM_THRESHOLD from glibc's malloc.h. The mmap threshold is glibc's
# DEFAULT_MMAP_THRESHOLD_MAX (4 MiB per byte of a long), the largest value
# older versions accept
_MALLOPT = ((-8, 1), (-3, (4 << 20) * ctypes.sizeof(ctypes.c_long)),
            (-1, 512 << 20))


@functools.cache
def _keep_freed_pages() -> None:
    """Set glibc's allocator once per process (see the module docstring)."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOPT:
        if mallopt(param, value) != 1:
            warnings.warn(f"mallopt({param}, {value}) failed", RuntimeWarning)


def run_two_party(protocol, inputs0=(), inputs1=(), dealer: Dealer | None = None,
                  seed: int = 0):
    """Run protocol(ctx, *inputs) for both parties concurrently.

    Returns (out0, out1, meter). Exceptions from either party propagate.
    """
    _keep_freed_pages()
    dealer = dealer if dealer is not None else Dealer.from_seed(seed)
    rt, handoff = _Runtime(), Handoff()
    eps = [Endpoint(rt, p) for p in range(2)]
    ctxs = [PartyContext(ep, TapeView(dealer, ep.party, handoff,
                                      ep.charge_offline)) for ep in eps]
    outs: list = [None, None]
    errs: list = [None, None]

    def work(party: int, args) -> None:
        try:
            outs[party] = protocol(ctxs[party], *args)
        except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
            errs[party] = exc
            with rt.cond:
                rt.failed[party] = True
                rt.cond.notify_all()

    threads = [threading.Thread(target=work, args=(p, inp), daemon=True)
               for p, inp in ((0, inputs0), (1, inputs1))]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    failed = [exc for exc in errs if exc is not None]
    if failed:  # the root cause before a PeerFailedError it caused
        raise min(failed, key=lambda exc: isinstance(exc, PeerFailedError))
    return outs[0], outs[1], CommMeter.total(eps)
