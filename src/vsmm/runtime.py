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
from numpy.lib.stride_tricks import sliding_window_view

from .dealer import Dealer, Handoff, TapeView
from .ring import DEFAULT_CFG, FixedPointConfig

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

    def note_section_rounds(self, section: str, delta: int) -> None:
        """Per-section round cost: max over the two parties' clock deltas."""
        with self._lock:
            sec = self._section(section)
            sec["rounds"] = max(sec["rounds"], delta)

    @property
    def online_bytes(self) -> int:
        return (self.online_bits + 7) // 8

    @property
    def offline_bytes(self) -> int:
        return (self.offline_bits + 7) // 8

    def report(self, protocol: str = "", models: dict | None = None) -> dict:
        out = {
            "protocol": protocol,
            "online_bits": self.online_bits,
            "online_bytes": self.online_bytes,
            "offline_bits": self.offline_bits,
            "offline_bytes": self.offline_bytes,
            "framing_bytes": (self.framing_bits + 7) // 8,
            "rounds": self.rounds,
            "sections": {k: dict(v) for k, v in self.sections.items()},
        }
        if models:
            out["est_time_by_condition"] = {
                name: estimate_time(self, model) for name, model in models.items()}
        return out


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
    """Everything one party's protocol code needs: channel, tapes, config."""

    def __init__(self, endpoint: Endpoint, tape, cfg: FixedPointConfig):
        self.ep = endpoint
        self.tape = tape
        self.cfg = cfg
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
            self.ep._rt.meter.note_section_rounds(name, self.ep.clock - start)

    # wire encodings ------------------------------------------------------

    def send_ring(self, arr: np.ndarray) -> None:
        a = np.ascontiguousarray(arr, dtype=np.uint64)
        self.ep.send(a.astype("<u8").tobytes(), nbits=64 * a.size)

    def recv_ring(self, shape) -> np.ndarray:
        payload = self.ep.recv()
        return np.frombuffer(payload, dtype="<u8").astype(np.uint64).reshape(shape)

    def send_bits(self, bits: np.ndarray) -> None:
        b = np.ascontiguousarray(bits, dtype=np.uint8).ravel()
        self.ep.send(np.packbits(b).tobytes(), nbits=b.size)

    def recv_bits(self, n: int, shape=None) -> np.ndarray:
        payload = self.ep.recv()
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))[:n]
        return bits.reshape(shape) if shape is not None else bits

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
        most significant bit first, zero-padded to a whole byte at the end."""
        b = _index_bits(degree)
        if b == 0:
            self.ep.send(b"", nbits=0)
            return
        width = next(w for w in (1, 2, 4, 8) if 8 * w >= b)
        # shift each index's b bits to the top of a big-endian word, then
        # unpack just those b bits
        idx = np.asarray(indices, dtype=np.uint64).ravel()
        top = (idx << np.uint64(8 * width - b)).astype(f">u{width}")
        bits = np.unpackbits(top.view(np.uint8).reshape(-1, width), axis=1, count=b)
        self.ep.send(np.packbits(bits).tobytes(), nbits=idx.size * b)

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
        # index i starts at bit i*b; read the big-endian 8-byte word at its
        # first byte (b <= 57 keeps the whole index inside that word)
        buf = np.frombuffer(payload + bytes(8), dtype=np.uint8)
        starts = np.arange(count, dtype=np.uint64) * np.uint64(b)
        first = (starts >> np.uint64(3)).astype(np.intp)
        words = sliding_window_view(buf, 8)[first].view(">u8").ravel()
        return ((words << (starts & np.uint64(7))) >> np.uint64(64 - b)).astype(np.int64)


def _index_bits(degree: int) -> int:
    return math.ceil(math.log2(degree)) if degree > 1 else 0


def run_two_party(protocol, inputs0=(), inputs1=(), dealer: Dealer | None = None,
                  seed: int = 0, cfg: FixedPointConfig = DEFAULT_CFG):
    """Run protocol(ctx, *inputs) for both parties concurrently.

    Returns (out0, out1, meter). Exceptions from either party propagate.
    """
    meter, handoff = CommMeter(), Handoff()
    dealer = dealer if dealer is not None else Dealer.from_seed(seed)
    rt = _Runtime(meter)
    ctxs = [PartyContext(Endpoint(rt, p), TapeView(dealer, p, meter, handoff), cfg)
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
