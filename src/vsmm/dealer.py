"""Trusted-dealer offline phase: correlated randomness from a counter-indexed PRF.

The dealer owns both party keys and derives every tuple as a pure function of
(key, tag, counter), so a tape is reproducible from the keys alone. Values a
party can expand locally from its own key cost zero offline bytes; only the
dealer-to-party-1 correction messages are charged to the offline meter. The
dealer never receives anything online: the API exposes generation only.

Permutations are the argsort of k PRF words, redrawn when two words tie, so
each is an exactly uniform element of S_k. Within one two-party run each tuple
is generated once: the first party to draw a counter keeps its own view and
leaves the peer's view in a `Handoff`, which the peer's draw takes.
"""

from __future__ import annotations

import inspect
import json
import struct
import threading
from dataclasses import dataclass, field

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .ring import random_ring

TAG_OP = b"OPRM"
TAG_OSM = b"OSMR"
TAG_BEAVER = b"BEAV"
TAG_SQUARE = b"SQRT"
TAG_PRIVMUL = b"PMUL"
TAG_BITS = b"BTRI"


class TapeExhausted(RuntimeError):
    """A party asked for more correlated randomness than was provisioned."""


class PrfStream:
    """AES-128-CTR keystream keyed per party, domain-separated by (tag, ctr)."""

    def __init__(self, key: bytes, tag: bytes, ctr: int):
        if len(key) != 16:
            raise ValueError("PRF keys are 16 bytes")
        nonce = tag[:4].ljust(4, b"\0") + struct.pack("<Q", ctr) + b"\0\0\0\0"
        self._enc = Cipher(algorithms.AES(key), modes.CTR(nonce)).encryptor()

    def bytes(self, n: int) -> bytes:
        return self._enc.update(b"\0" * n)

    def u64(self, shape) -> np.ndarray:
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        buf = self.bytes(8 * n)
        return np.frombuffer(buf, dtype="<u8").reshape(shape).astype(np.uint64)

    def bits(self, n: int) -> np.ndarray:
        buf = self.bytes((n + 7) // 8)
        return np.unpackbits(np.frombuffer(buf, dtype=np.uint8))[:n]

    def bit_words(self, count: int) -> np.ndarray:
        """`count` PRF bits packed into words, least significant first."""
        words = np.frombuffer(self.bytes(8 * -(-count // 64)), "<u8").copy()
        words[-1:] &= np.uint64(2 ** ((count - 1) % 64 + 1) - 1)
        return words

    def permutation(self, k: int) -> np.ndarray:
        """Uniform element of S_k: the argsort of k PRF words.

        Distinct words have one sorted order, so the result does not depend
        on the sort algorithm. A batch with a repeated word is discarded and
        the next k words are drawn, which keeps every permutation exactly
        equally likely.
        """
        while True:
            words = self.u64((k,))
            p = np.argsort(words)
            ranked = words[p]
            if not np.any(ranked[1:] == ranked[:-1]):
                return p


def _matmul_u64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(a, b, dtype=np.uint64)


@dataclass
class OpRandomness:
    """One party's view of an oblivious-permutation tuple (d column instances)."""

    k: int
    d: int
    pis: np.ndarray | None  # party 0: (d, k) permutations
    piU: np.ndarray          # (k, d) shares of pi(U) column-wise
    U: np.ndarray | None     # party 1: (k, d)


@dataclass
class OsmRandomness:
    b: np.ndarray | None  # party 0: (count,) selector mask bits
    u: np.ndarray          # (count,) share of u
    bu: np.ndarray         # (count,) share of b*u


@dataclass
class PrivMulRandomness:
    a: np.ndarray | None  # party 0: mask for the private factor
    u: np.ndarray
    au: np.ndarray


@dataclass
class BeaverTriple:
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


@dataclass
class SquarePair:
    a: np.ndarray
    c: np.ndarray


@dataclass
class BitTriples:
    a: np.ndarray  # packed words: bit i of word w is triple 64*w + i
    b: np.ndarray
    c: np.ndarray


class Dealer:
    """Non-interactive dealer; every tuple is a pure function of (keys, ctr)."""

    def __init__(self, key0: bytes, key1: bytes):
        self.keys = (key0, key1)

    @classmethod
    def from_seed(cls, seed: int) -> "Dealer":
        rng = np.random.Generator(np.random.PCG64(seed))
        k0, k1 = rng.bytes(16), rng.bytes(16)
        return cls(k0, k1)

    def _streams(self, tag: bytes, ctr: int) -> tuple[PrfStream, PrfStream]:
        return PrfStream(self.keys[0], tag, ctr), PrfStream(self.keys[1], tag, ctr)

    def gen_op_rand(self, ctr: int, k: int, d: int = 1):
        """Party 0 gets (pi, <piU>0); party 1 gets (U, <piU>1); offline cost k*L*d."""
        if k < 1:
            raise ValueError("permutation degree must be >= 1")
        s0, s1 = self._streams(TAG_OP, ctr)
        pis = np.stack([s0.permutation(k) for _ in range(d)])
        piU0 = s0.u64((k, d))
        U = s1.u64((k, d))
        piU = np.take_along_axis(U, pis.T, axis=0)
        piU1 = piU - piU0
        view0 = OpRandomness(k, d, pis, piU0, None)
        view1 = OpRandomness(k, d, None, piU1, U)
        return view0, view1, k * 64 * d

    def gen_osm_rand(self, ctr: int, count: int):
        if count < 1:
            raise ValueError("count must be >= 1")
        s0, s1 = self._streams(TAG_OSM, ctr)
        b = s0.bits(count).astype(np.uint64)
        u0 = s0.u64((count,))
        bu0 = s0.u64((count,))
        u1 = s1.u64((count,))
        bu1 = b * (u0 + u1) - bu0
        return OsmRandomness(b, u0, bu0), OsmRandomness(None, u1, bu1), count * 64

    def gen_privmul(self, ctr: int, shape):
        s0, s1 = self._streams(TAG_PRIVMUL, ctr)
        a = s0.u64(shape)
        u0 = s0.u64(shape)
        au0 = s0.u64(shape)
        u1 = s1.u64(shape)
        au1 = a * (u0 + u1) - au0
        size = int(np.prod(shape, dtype=np.int64))
        return (PrivMulRandomness(a, u0, au0),
                PrivMulRandomness(None, u1, au1), size * 64)

    def gen_beaver(self, ctr: int, shape_x, shape_y, matmul: bool = False):
        s0, s1 = self._streams(TAG_BEAVER, ctr)
        a0, b0 = s0.u64(shape_x), s0.u64(shape_y)
        a1, b1 = s1.u64(shape_x), s1.u64(shape_y)
        if matmul:
            if len(shape_x) != 2 or len(shape_y) != 2 or shape_x[1] != shape_y[0]:
                raise ValueError("matmul triples need compatible 2-d shapes")
            out_shape = (shape_x[0], shape_y[1])
        else:
            if tuple(shape_x) != tuple(shape_y):
                raise ValueError("elementwise triples need equal shapes")
            out_shape = tuple(shape_x)
        c0 = s0.u64(out_shape)
        a, b = a0 + a1, b0 + b1
        c = _matmul_u64(a, b) if matmul else a * b
        c1 = c - c0
        size = int(np.prod(c.shape, dtype=np.int64))
        return BeaverTriple(a0, b0, c0), BeaverTriple(a1, b1, c1), size * 64

    def gen_square(self, ctr: int, shape):
        s0, s1 = self._streams(TAG_SQUARE, ctr)
        a0, c0 = s0.u64(shape), s0.u64(shape)
        a1 = s1.u64(shape)
        a = a0 + a1
        c1 = a * a - c0
        size = int(np.prod(shape, dtype=np.int64))
        return SquarePair(a0, c0), SquarePair(a1, c1), size * 64

    def gen_bit_triples(self, ctr: int, count: int):
        s0, s1 = self._streams(TAG_BITS, ctr)
        a0, b0, c0, a1, b1 = (s.bit_words(count) for s in (s0, s0, s0, s1, s1))
        c1 = ((a0 ^ a1) & (b0 ^ b1)) ^ c0
        return BitTriples(a0, b0, c0), BitTriples(a1, b1, c1), count


_KINDS = {
    "op": ("gen_op_rand", OpRandomness),
    "osm": ("gen_osm_rand", OsmRandomness),
    "privmul": ("gen_privmul", PrivMulRandomness),
    "beaver": ("gen_beaver", BeaverTriple),
    "square": ("gen_square", SquarePair),
    "bits": ("gen_bit_triples", BitTriples),
}


class Handoff:
    """Per-run slot that lets two paired TapeViews generate each tuple once.

    The first party to draw a counter runs the dealer, keeps its own view and
    leaves the peer's view here with the request that produced it; the peer's
    draw at that counter takes the entry out. A peer asking for another kind
    or other arguments at the same counter gets TapeExhausted.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._held: dict[int, tuple] = {}

    def draw(self, dealer: Dealer, party: int, ctr: int, request: tuple):
        """This party's view of tuple `ctr` and its offline bits."""
        kind, args, kwargs = request
        with self._lock:
            held = self._held.pop(ctr, None)
            if held is None:
                views = getattr(dealer, _KINDS[kind][0])(ctr, *args, **kwargs)
                self._held[ctr] = (request, views[1 - party], views[2])
                return views[party], views[2]
        if held[0] != request:
            raise TapeExhausted(
                f"counter {ctr}: party {party} asked for {kind}{args}, "
                f"the peer drew {held[0][0]}{held[0][1]}")
        return held[1], held[2]


@dataclass
class TapeView:
    """One party's synchronized cursor into the dealer's tuple sequence.

    Both parties issue the identical request sequence (protocol structure is
    data-independent), so their counters stay aligned without coordination.
    Paired views that share a `Handoff` generate each tuple once between
    them; a standalone view generates both parties' views and keeps its own.
    Each view checks its own budget, and offline bytes are charged when
    party 1 draws its correction view.
    """

    dealer: Dealer
    party: int
    meter: object | None = None
    budget: int | None = None
    ctr: int = 0
    section: str = ""
    handoff: Handoff | None = None

    def _draw(self, kind: str, *args, **kwargs):
        if self.budget is not None and self.ctr >= self.budget:
            raise TapeExhausted(
                f"tape budget {self.budget} exhausted at counter {self.ctr} ({kind})")
        if self.handoff is None:
            views = getattr(self.dealer, _KINDS[kind][0])(self.ctr, *args, **kwargs)
            view, offline_bits = views[self.party], views[2]
        else:
            view, offline_bits = self.handoff.draw(
                self.dealer, self.party, self.ctr, (kind, args, kwargs))
        self.ctr += 1
        if self.party == 1 and self.meter is not None:
            self.meter.add_offline(offline_bits, self.section)
        return view

    def op(self, k: int, d: int = 1) -> OpRandomness:
        return self._draw("op", k, d)

    def osm(self, count: int) -> OsmRandomness:
        return self._draw("osm", count)

    def privmul(self, shape) -> PrivMulRandomness:
        return self._draw("privmul", shape)

    def beaver(self, shape_x, shape_y, matmul: bool = False) -> BeaverTriple:
        return self._draw("beaver", shape_x, shape_y, matmul)

    def square(self, shape) -> SquarePair:
        return self._draw("square", shape)

    def bits(self, count: int) -> BitTriples:
        return self._draw("bits", count)


MAGIC = b"VSMM"
TAPE_VERSION = 2


def save_tape(path: str, party: int, plan: list[tuple], dealer: Dealer,
              start_ctr: int = 0) -> None:
    """Materialize a request plan to a binary tape file.

    plan entries are (kind, args...) tuples, e.g. ("op", 8, 1) or ("osm", 100).
    """
    view = TapeView(dealer, party, ctr=start_ctr)
    records = []
    for kind, *args in plan:
        rec = getattr(view, kind)(*args)
        arrays = [getattr(rec, f) for f in vars(rec)
                  if isinstance(getattr(rec, f), np.ndarray)]
        names = [f for f in vars(rec) if isinstance(getattr(rec, f), np.ndarray)]
        header = {
            "kind": kind,
            "args": [list(a) if isinstance(a, (tuple, list)) else a for a in args],
            "fields": [[n, str(a.dtype), list(a.shape)] for n, a in zip(names, arrays)],
        }
        records.append((header, arrays))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HQI", TAPE_VERSION, start_ctr, len(records)))
        for header, arrays in records:
            hb = json.dumps(header).encode()
            fh.write(struct.pack("<I", len(hb)))
            fh.write(hb)
            for a in arrays:
                raw = np.ascontiguousarray(a).tobytes()
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)


def _request_args(kind: str, args) -> dict:
    """The named arguments of TapeView request `kind`, defaults filled in and
    sequences as lists, the form in which a tape header can be compared."""
    bound = inspect.signature(getattr(TapeView, kind)).bind(None, *args)
    bound.apply_defaults()
    return {name: list(v) if isinstance(v, (tuple, list)) else v
            for name, v in list(bound.arguments.items())[1:]}


class RecordedTape(TapeView):
    """Tape replay from a file written by save_tape; same requests as TapeView.

    Each request must match the next record's kind and arguments, or it
    raises TapeExhausted.
    """

    def __init__(self, path: str, party: int, meter=None):
        self.records = []
        with open(path, "rb") as fh:
            if fh.read(4) != MAGIC:
                raise ValueError("not a tape file")
            version, start_ctr, count = struct.unpack("<HQI", fh.read(14))
            if version != TAPE_VERSION:
                raise ValueError(f"unsupported tape version {version}")
            for _ in range(count):
                (hlen,) = struct.unpack("<I", fh.read(4))
                header = json.loads(fh.read(hlen))
                fields = {}
                for name, dtype, shape in header["fields"]:
                    (blen,) = struct.unpack("<I", fh.read(4))
                    fields[name] = np.frombuffer(
                        fh.read(blen), dtype=dtype).reshape(shape).copy()
                kind = header["kind"]
                if kind not in _KINDS:
                    raise ValueError(f"unknown tape record kind {kind!r}")
                self.records.append(
                    (kind, _request_args(kind, header["args"]), fields))
        self.cursor = 0
        super().__init__(None, party, meter, ctr=start_ctr)

    def _draw(self, kind: str, *args):
        if self.cursor >= len(self.records):
            raise TapeExhausted("recorded tape exhausted")
        rec_kind, rec_args, fields = self.records[self.cursor]
        want = _request_args(kind, args)
        if (rec_kind, rec_args) != (kind, want):
            raise TapeExhausted(f"tape record mismatch: wanted {kind}{want}, "
                                f"tape has {rec_kind}{rec_args}")
        self.cursor += 1
        cls = _KINDS[kind][1]
        return cls(**{name: fields.get(name, rec_args.get(name))
                      for name in cls.__dataclass_fields__})
