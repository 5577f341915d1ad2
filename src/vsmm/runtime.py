"""In-process two-party execution harness with byte/round metering.

Both parties run concurrently as threads; channels are FIFO queues of framed
byte messages. Rounds are counted with a dependency rule implemented as a
logical clock: a message is stamped with the sender's clock, and a receive
advances the receiver's clock past the stamp. Two independent simultaneous
sends therefore cost one round, while a send that could only happen after a
receive starts a new round.

Payload bits are metered exactly as placed on the wire; a modelled 6-byte
frame per message (4-byte little-endian length + 2-byte protocol tag) is
accounted separately so that formula assertions compare payload bits only.
"""

from __future__ import annotations

import math
import queue
import threading
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
    """Online/offline payload bits, framing overhead and round counts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.online_bits = 0
        self.offline_bits = 0
        self.framing_bits = 0
        self.rounds = 0
        self.sections: dict[str, dict] = {}
        self._party_rounds: dict[str, list[int]] = {}

    def _section(self, name: str) -> dict:
        return self.sections.setdefault(
            name, {"online_bits": 0, "offline_bits": 0, "rounds": 0})

    def add_online(self, bits: int, section: str) -> None:
        with self._lock:
            self.online_bits += bits
            self.framing_bits += FRAME_BITS
            self._section(section)["online_bits"] += bits

    def add_offline(self, bits: int, section: str) -> None:
        with self._lock:
            self.offline_bits += bits
            self._section(section)["offline_bits"] += bits

    def note_section_rounds(self, section: str, party: int, delta: int) -> None:
        """Per-section round cost: each party's clock deltas are summed over
        the section's calls, and the section reports the larger sum."""
        with self._lock:
            sums = self._party_rounds.setdefault(section, [0, 0])
            sums[party] += delta
            self._section(section)["rounds"] = max(sums)

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
    """Shared channel state. Inboxes, waiting flags and failure flags change
    only under `cond`, so a party never sees its peer marked waiting after
    the peer has already taken a message."""

    def __init__(self, meter: CommMeter):
        self.meter = meter
        self.cond = threading.Condition()
        self.queues = (queue.Queue(), queue.Queue())  # inbox per party
        self.waiting = [False, False]
        self.failed = [False, False]


class Endpoint:
    """One party's channel endpoint, carrying the logical round clock."""

    def __init__(self, runtime: _Runtime, party: int):
        self._rt = runtime
        self.party = party
        self.clock = 0
        self.sent_bits = 0
        self.sections: list[str] = []

    @property
    def section(self) -> str:
        return self.sections[0] if self.sections else "default"

    def send(self, payload: bytes, nbits: int | None = None) -> None:
        bits = len(payload) * 8 if nbits is None else nbits
        self.sent_bits += bits
        self._rt.meter.add_online(bits, self.section)
        with self._rt.cond:
            self._rt.queues[1 - self.party].put((payload, self.clock))
            self._rt.cond.notify_all()

    def recv(self) -> bytes:
        rt, me, peer = self._rt, self.party, 1 - self.party
        inbox = rt.queues[me]
        with rt.cond:
            while inbox.empty():
                if rt.failed[peer]:
                    raise PeerFailedError("peer thread failed")
                if rt.waiting[peer] and rt.queues[peer].empty():
                    raise DeadlockError(
                        "both parties blocked on receive with empty channels")
                rt.waiting[me] = True
                woke = rt.cond.wait(RECV_TIMEOUT_S)
                rt.waiting[me] = False
                if not woke:
                    raise DeadlockError("receive timed out")
            payload, stamp = inbox.get_nowait()
        self.clock = max(self.clock, stamp + 1)
        return payload


class PartyContext:
    """Everything one party's protocol code needs: channel and tapes."""

    def __init__(self, endpoint: Endpoint, tape):
        self.ep = endpoint
        self.tape = tape
        self.party = endpoint.party

    @contextmanager
    def section(self, name: str):
        self.ep.sections.append(name)
        self.tape.section = self.ep.section
        start = self.ep.clock
        try:
            yield
        finally:
            self.ep.sections.pop()
            self.tape.section = self.ep.section
            self.ep._rt.meter.note_section_rounds(
                name, self.party, self.ep.clock - start)

    # wire encodings ------------------------------------------------------

    def send_ring(self, arr: np.ndarray) -> None:
        a = np.ascontiguousarray(arr, dtype="<u8")
        self.ep.send(a.tobytes(), nbits=64 * a.size)

    def recv_ring(self, shape) -> np.ndarray:
        """The peer's ring elements as a read-only view of the payload."""
        return np.frombuffer(self.ep.recv(), dtype="<u8").reshape(shape)

    def send_bits(self, bits: np.ndarray) -> None:
        b = np.ascontiguousarray(bits, dtype=np.uint8).ravel()
        self.ep.send(np.packbits(b).tobytes(), nbits=b.size)

    def recv_bits(self, n: int) -> np.ndarray:
        payload = self.ep.recv()
        return np.unpackbits(np.frombuffer(payload, dtype=np.uint8))[:n]

    def send_gates(self, x: np.ndarray, y: np.ndarray, count: int) -> None:
        """The first `count` bits of packed words x, then those of y, least
        significant first and back to back: 2*count bits in one message."""
        q, r = divmod(count, 8)
        xb, yb = (np.asarray(w, "<u8").ravel().view(np.uint8)[:-(-count // 8)]
                  .astype(np.uint16) for w in (x, y))
        for b in (xb, yb):  # clear the bits after `count`
            b[-1:] &= 0xff >> (-count % 8)
        yb <<= r  # y starts at bit r of byte q
        msg = np.zeros(q + yb.size + 1, dtype=np.uint16)
        msg[:xb.size] = xb
        msg[q:-1] |= yb & 0xff
        msg[q + 1:] |= yb >> 8
        self.ep.send(msg[:-(-count // 4)].astype(np.uint8).tobytes(), nbits=2 * count)

    def recv_gates(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The peer's send_gates x and y as packed words, later bits unspecified."""
        payload = self.ep.recv()
        if len(payload) != -(-count // 4):
            raise ValueError(f"{len(payload)}-byte payload for 2x{count} gates")
        q, r = divmod(count, 8)
        nb = 8 * -(-count // 64)
        msg = np.zeros(q + nb + 1, dtype=np.uint16)
        msg[:len(payload)] = np.frombuffer(payload, dtype=np.uint8)
        ys = (msg[q:-1] | msg[q + 1:] << 8) >> r
        return msg[:nb].astype(np.uint8).view("<u8"), ys.astype(np.uint8).view("<u8")

    def send_perm(self, indices: np.ndarray, degree: int) -> None:
        """Bit-packed permutation indices: ceil(log2 degree) bits each,
        most significant bit first, zero-padded to a whole byte at the end.

        Eight consecutive b-bit indices fill exactly b bytes. Each group of
        eight is built as one 64*ceil(b/8)-bit big-endian number in uint64
        words, one shift/or pass per position in the group, and its first b
        bytes go on the wire. The last group is padded with zero indices.
        """
        b = _index_bits(degree)
        idx = np.ravel(indices)
        if b == 0:
            self.ep.send(b"", nbits=0)
            return
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
        self.ep.send(payload[:-(-idx.size * b // 8)], nbits=idx.size * b)

    def recv_perm(self, degree: int, count: int | None = None) -> np.ndarray:
        """Receive `count` packed indices (default: degree, one permutation)."""
        count = degree if count is None else count
        b = _index_bits(degree)
        payload = self.ep.recv()
        if b == 0:
            return np.zeros(count, dtype=np.int64)
        if 8 * len(payload) < count * b:
            raise ValueError(f"{len(payload)}-byte payload is short of "
                             f"{count} indices of {b} bits")
        n_groups = -(-count // 8)
        raw = np.zeros((n_groups, 8 * -(-b // 8)), dtype=np.uint8)
        raw[:, :b] = np.frombuffer(
            payload[:n_groups * b].ljust(n_groups * b, b"\0"),
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
        return out.ravel()[:count]


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


def _index_bits(degree: int) -> int:
    return math.ceil(math.log2(degree)) if degree > 1 else 0


def run_two_party(protocol, inputs0=(), inputs1=(), dealer: Dealer | None = None,
                  seed: int = 0):
    """Run protocol(ctx, *inputs) for both parties concurrently.

    Returns (out0, out1, meter). Exceptions from either party propagate.
    """
    meter, handoff = CommMeter(), Handoff()
    dealer = dealer if dealer is not None else Dealer.from_seed(seed)
    rt = _Runtime(meter)
    ctxs = [PartyContext(Endpoint(rt, p), TapeView(dealer, p, meter, handoff))
            for p in range(2)]
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
    meter.rounds = max(ctxs[0].ep.clock, ctxs[1].ep.clock)
    return outs[0], outs[1], meter
