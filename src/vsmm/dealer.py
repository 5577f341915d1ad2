"""Trusted-dealer offline phase: correlated randomness from a counter-indexed PRF.

The dealer owns both party keys and derives every tuple as a pure function of
(key, tag, counter), so every tuple is reproducible from the keys alone. Values
a party can expand locally from its own key cost zero offline bytes; party 1's
tally is charged only for the dealer-to-party-1 correction messages. The dealer
never receives anything online: the API exposes generation only.

Permutations are the argsort of k PRF words, redrawn when two words tie, so
each is an exactly uniform element of S_k; `PrfStream.permutation` reads
them from one row-wise sort of packed keys, falling back to the argsort
itself when the keys' order is not the words'. In an oblivious-permutation
tuple that argsort is dealt to party 0 as pi^-1, which is as uniform as pi
and is the form the protocol uses. OP and Weight tuples are dealt as (d, k)
rows, one per column instance, the layout the protocols and smm work on.

Within one two-party run each tuple is generated once: the first party to
draw a counter keeps its own view and leaves the peer's part in a
`Handoff`, which the peer's draw takes. When party 0 draws first, that part
is the dealer's offline message to party 1, the correction party 1 is
charged offline bits for: the OP's pi(U) share, the OSM and Weight [b*u] and
[a*u] shares, the Beaver and square C shares, the GMW product shares and the
daBit R and r*u. Party 1 expands the rest of its view from its own key when
it draws: the OP's U, the OSM and Weight u, its gen_mask share, its GMW
masks and its daBit r and u, the same keystream bytes the dealer read, so
its view is the one the dealer dealt. A tuple party 1 draws first leaves
party 0's whole view; party 0 draws nearly all large tuples first, in smm's
first pass.

A daBit (Rotaru and Wood, INDOCRYPT 2019) is a random bit r dealt both
XOR-shared and additively shared; its masked form also deals a fresh additive
mask u and [r*u]. The online phase opens c = b ^ r and, in ReLU, x - u. Each
daBit is drawn for one opening only, so r is a uniform bit used once and c is
independent of b; u is uniform over the ring and fresh, so x - u is
independent of x. Neither opening tells a party anything about b or x.

`gen_bit_triples` deals and_bits' multi-input AND, the dealer acting as the
client of Ohata and Nuida's client-aided protocols (FC 2020). Each variable
row gets a fresh uniform mask m and is opened once, as x ^ m. A shared row's
mask is XOR-shared, each party expanding its share from its own key. A row
one party holds in the clear is masked and sent by that party alone, and its
mask belongs to its owner alone: the peer never learns m, so x ^ m is
uniform to it. The AND of the masks over each subset of two or more rows
that a monomial needs is dealt XOR-shared, party 0's share from its key and
party 1's share the correction. Besides one opening per row, a party sees
only its own shares of masks and mask products, so the openings reveal
nothing about the rows.

Every additive mask covers exactly one value, and that value is opened once.
A Beaver product names the openings of its operands by `MaskRef`s, and an
opening x - a may serve several products (SecureML, Mohassel and Zhang, S&P
2017, section 4.2): `gen_mask` deals a uniform a for one opening, each party
expanding its share from its own key, and each product gets a fresh
[op(A) op(B)] whose C is formed from the masks regenerated from their
counters, never stored. A party then sees x - a once and only fresh
correlations besides, so reuse reveals nothing that one opening does not.
The Weight mask of `gen_privmul` is one uniform value per entry of a row,
fresh in every call, broadcast over the column instances: it masks party
0's lambda, opened once per entry.
"""

from __future__ import annotations

import functools
import math
import struct
import threading
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

TAG_OP = b"OPRM"
TAG_OSM = b"OSMR"
TAG_BEAVER = b"BEAV"
TAG_SQUARE = b"SQRT"
TAG_PRIVMUL = b"PMUL"
TAG_BITS = b"BTRI"
TAG_DABITS = b"DABT"
TAG_MASK = b"MASK"

_ZEROS = memoryview(bytes(1 << 16))  # keystream plaintext; read-only, shared
_aes = functools.lru_cache(maxsize=64)(algorithms.AES)  # one key object per key


class TapeExhausted(RuntimeError):
    """The two parties asked for different tuples at the same counter."""


class PrfStream:
    """AES-128-CTR keystream keyed per party, domain-separated by (tag, ctr)."""

    def __init__(self, key: bytes, tag: bytes, ctr: int):
        if len(key) != 16:
            raise ValueError("PRF keys are 16 bytes")
        nonce = tag[:4].ljust(4, b"\0") + struct.pack("<Q", ctr) + b"\0\0\0\0"
        self._enc = Cipher(_aes(key), modes.CTR(nonce)).encryptor()

    def bytes(self, n: int) -> bytes:
        return self._enc.update(b"\0" * n)

    def u64(self, shape) -> np.ndarray:
        """The next 8*size keystream bytes as little-endian words, decrypted
        straight into a fresh writable array."""
        # math.prod: np.prod costs microseconds, a dealer draw's fixed cost
        n = int(math.prod(shape) if np.iterable(shape) else shape)
        out = np.empty(n + 2, dtype="<u8")  # CTR's update_into wants 15 spare bytes
        buf = out.view(np.uint8)
        for start in range(0, 8 * n, len(_ZEROS)):
            self._enc.update_into(_ZEROS[:8 * n - start], buf[start:])
        return out[:n].reshape(shape)

    def bits(self, n: int) -> np.ndarray:
        buf = self.bytes((n + 7) // 8)
        return np.unpackbits(np.frombuffer(buf, dtype=np.uint8))[:n]

    def gate_rows(self, rows: int, words: int, bits: int) -> np.ndarray:
        """(rows, words + bits) in and_bits' layout: u64((rows, words)),
        then bits(rows * bits) one per entry, read on from the keystream."""
        if not bits:
            return self.u64((rows, words))
        out = np.empty((rows, words + bits), dtype=np.uint64)
        out[:, :words] = self.u64((rows, words))
        out[:, words:] = self.bits(rows * bits).reshape(rows, bits)
        return out

    def permutation(self, k: int, rows: int | None = None) -> np.ndarray:
        """Uniform element of S_k: the argsort of k PRF words; with `rows`,
        a (rows, k) array of them, one per row of a (rows, k) word draw.

        Distinct words have one sorted order, so the result does not depend
        on the sort algorithm. A row with a repeated word is discarded and
        redrawn from the next k words, after the whole draw, which keeps
        every permutation exactly equally likely; rows without one are
        those of `rows` successive single draws. Each row's argsort is read
        off one in-place sort of keys, each word with its low b =
        ceil(log2 k) bits replaced by its index, unless two words share
        their high 64 - b bits and so their keys need not sort in the
        words' order; then that row's words are argsorted.
        """
        out, repeated = _argsort_rows(
            self.u64((1 if rows is None else rows, k)), k)
        for r in np.flatnonzero(repeated):
            while repeated[r]:
                row, again = _argsort_rows(self.u64((k,)), k)
                out[r], repeated[r] = row[0], again[0]
        return out if rows is not None else out[0]


def _argsort_rows(words: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's argsort of PRF words read as rows of k, and whether the
    row has a repeated word (PrfStream.permutation)."""
    words = words.reshape(-1, k)
    low = np.uint64((1 << (k - 1).bit_length()) - 1)  # the index bits
    keys = words & ~low
    keys |= np.arange(k, dtype=np.uint64)
    keys.sort(axis=1)
    tied = np.any((keys[:, 1:] ^ keys[:, :-1]) <= low, axis=1)
    keys &= low
    out, repeated = keys.view(np.int64), np.zeros(len(words), dtype=bool)
    for r in np.flatnonzero(tied):
        out[r] = np.argsort(words[r])
        ranked = words[r, out[r]]
        repeated[r] = np.any(ranked[1:] == ranked[:-1])
    return out, repeated


def rows_index(rows) -> slice | np.ndarray:
    """Row indices as a slice when they rise in equal steps, so that numpy
    reads a view, and as an index array otherwise."""
    rows = np.asarray(rows, dtype=np.intp)
    if len(rows) < 2:
        return slice(int(rows[0]), int(rows[0]) + 1) if len(rows) else slice(0)
    step = int(rows[1] - rows[0])
    if step > 0 and np.all(np.diff(rows) == step):
        return slice(int(rows[0]), int(rows[-1]) + 1, step)
    return rows


@functools.lru_cache(maxsize=None)
def _deal_rows(owners: tuple, products: tuple):
    """gen_bit_triples' indices for one request: per party, the rows whose
    mask it draws; and per product size, which products have that size and
    the rows ANDed at each position of them."""
    held = [np.flatnonzero([o != 1 - party for o in owners])
            for party in (0, 1)]
    sizes = []
    for size in sorted(set(map(len, products))):
        sel = [j for j, t in enumerate(products) if len(t) == size]
        sizes.append((rows_index(sel), [rows_index([products[j][q]
                                                    for j in sel])
                                        for q in range(size)]))
    return held, sizes


# What party 1 expands from its own key in each kind of tuple, drawn by the
# gen_* method and, for a tuple party 0 deals, again by party 1 (Handoff):
# per dealer method, the tag, the fields of party 1's view the values fill
# (None: the value is the whole view) and the expansion from party 1's
# stream and the request's arguments, which returns them in field order.

def _op_own(s1: PrfStream, k: int, d: int) -> tuple:
    return s1.u64((d, k)),


def _osm_own(s1: PrfStream, count: int) -> tuple:
    return s1.u64((count,)),


def _privmul_own(s1: PrfStream, shape) -> tuple:
    return s1.u64(tuple(shape)),


def _mask_own(s1: PrfStream, shape) -> np.ndarray:
    return s1.u64(shape)


def _bits_own(s1: PrfStream, words: int, bits: int, owners: tuple,
              products: tuple) -> tuple:
    held, _ = _deal_rows(tuple(owners), tuple(map(tuple, products)))
    return s1.gate_rows(len(held[1]), words, bits),


def _dabits_own(s1: PrfStream, shape, masked: bool) -> tuple:
    size = math.prod(shape)
    r1 = s1.bits(size).astype(np.uint64).reshape(shape)
    return r1, s1.u64(shape) if masked else None


_OWN = {"gen_op_rand": (TAG_OP, ("U",), _op_own),
        "gen_osm_rand": (TAG_OSM, ("u",), _osm_own),
        "gen_privmul": (TAG_PRIVMUL, ("u",), _privmul_own),
        "gen_mask": (TAG_MASK, None, _mask_own),
        "gen_bit_triples": (TAG_BITS, ("masks",), _bits_own),
        "gen_dabits": (TAG_DABITS, ("r", "u"), _dabits_own)}


def _correction(method: str, view1):
    """Party 1's view of a `method` tuple less what it expands from its own
    key: the dealer's offline message to party 1 (None for gen_mask)."""
    if method not in _OWN:
        return view1
    fields = _OWN[method][1]
    return None if fields is None else replace(view1, **dict.fromkeys(fields))


@dataclass
class OpRandomness:
    """One party's view of an oblivious-permutation tuple, as (d, k) rows."""

    pinv: np.ndarray | None  # party 0: row c is pi_c^-1
    piU: np.ndarray           # shares of pi(U): piU[c, i] = U[c, pi_c[i]]
    U: np.ndarray | None     # party 1


@dataclass
class OsmRandomness:
    b: np.ndarray | None  # party 0: (count,) selector mask bits
    u: np.ndarray          # (count,) share of u
    bu: np.ndarray         # (count,) share of b*u


@dataclass
class PrivMulRandomness:
    a: np.ndarray | None  # party 0: (L,) mask for the private factor
    u: np.ndarray          # (..., L): the operand's shape
    au: np.ndarray


@dataclass(frozen=True)
class MaskRef:
    """A Beaver operand opened earlier under the gen_mask tuple `ctr`, whose
    mask has `shape`; the product reads it transposed if `transposed`."""

    ctr: int
    shape: tuple
    transposed: bool = False


@dataclass
class DaBits:
    r: np.ndarray          # XOR share of the random bit r, 0/1 words
    R: np.ndarray          # additive share of r
    u: np.ndarray | None   # masked form: additive share of a fresh mask u
    ru: np.ndarray | None  # masked form: additive share of r*u


@dataclass
class BitTriples:
    """One party's view of a multi-input AND tuple, in and_bits' rows: each
    row holds packed words, then one 0/1 entry per tail gate."""

    masks: np.ndarray     # share of the mask of each row this party sends
    products: np.ndarray  # (len(products), ...) share of each mask product


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

    def gen_op_rand(self, ctr: int, k: int, d: int):
        """Party 0 gets (pi^-1, <piU>0); party 1 gets (U, <piU>1); offline
        cost k*L*d. U[c, j] lands at piU[c, pi_c^-1[j]], scattered one
        (d, k) row, one column instance, at a time."""
        if k < 1:
            raise ValueError("permutation degree must be >= 1")
        s0, s1 = self._streams(TAG_OP, ctr)
        pinv = s0.permutation(k, rows=d)
        piU0 = s0.u64((d, k))
        U, = _op_own(s1, k, d)
        piU1 = np.empty_like(U)
        for dst, p, u in zip(piU1, pinv, U):
            dst[p] = u
        piU1 -= piU0
        return (OpRandomness(pinv, piU0, None), OpRandomness(None, piU1, U),
                k * 64 * d)

    def gen_osm_rand(self, ctr: int, count: int):
        if count < 1:
            raise ValueError("count must be >= 1")
        s0, s1 = self._streams(TAG_OSM, ctr)
        b = s0.bits(count).astype(np.uint64)
        u0 = s0.u64((count,))
        bu0 = s0.u64((count,))
        u1, = _osm_own(s1, count)
        bu1 = b * (u0 + u1) - bu0
        return OsmRandomness(b, u0, bu0), OsmRandomness(None, u1, bu1), count * 64

    def gen_privmul(self, ctr: int, shape):
        """Weight-step randomness for a shared operand of shape (..., L): a
        mask a of shape (L,), broadcast over the leading axes, and u and
        [a*u] of the operand's shape; offline cost L per element."""
        s0, s1 = self._streams(TAG_PRIVMUL, ctr)
        a = s0.u64(tuple(shape[-1:]))
        u0, au0 = s0.u64(tuple(shape)), s0.u64(tuple(shape))
        u1, = _privmul_own(s1, shape)
        au1 = a * (u0 + u1) - au0
        return (PrivMulRandomness(a, u0, au0),
                PrivMulRandomness(None, u1, au1), u0.size * 64)

    def gen_mask(self, ctr: int, shape):
        """Both shares of a uniform mask for one opening. Each party expands
        its share from its own key, so the mask costs no offline bits."""
        s0, s1 = self._streams(TAG_MASK, ctr)
        return s0.u64(shape), _mask_own(s1, shape), 0

    def _mask(self, ref: MaskRef) -> np.ndarray:
        """The whole mask of the opening `ref` names, as the product reads it."""
        a0, a1 = (s.u64(ref.shape) for s in self._streams(TAG_MASK, ref.ctr))
        return (a0 + a1).T if ref.transposed else a0 + a1

    def gen_beaver(self, ctr: int, x: MaskRef, y: MaskRef,
                   matmul: bool = False):
        """Shares of C = op(A) op(B) for the masks of two openings,
        elementwise (broadcasting) or a matrix product: party 0's from its
        key, party 1's the correction; offline cost L per element of C."""
        a, b = self._mask(x), self._mask(y)
        if matmul and (a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]):
            raise ValueError("matmul triples need compatible 2-d shapes")
        c = np.matmul(a, b, dtype=np.uint64) if matmul else a * b
        c0 = PrfStream(self.keys[0], TAG_BEAVER, ctr).u64(c.shape)
        return c0, c - c0, c.size * 64

    def gen_square(self, ctr: int, x: MaskRef):
        """Shares of C = A^2 for the mask of an opening, dealt as in
        gen_beaver."""
        a = self._mask(x)
        c0 = PrfStream(self.keys[0], TAG_SQUARE, ctr).u64(a.shape)
        return c0, a * a - c0, a.size * 64

    def gen_bit_triples(self, ctr: int, words: int, bits: int, owners: tuple,
                        products: tuple):
        """Masks for len(owners) variable rows of `words` words and `bits`
        0/1 entries each, and XOR shares of the AND of the masks over each
        tuple of rows in products. A row whose owner is None has its mask
        XOR-shared, each party expanding its share from its own key; a row
        owned by party p has its whole mask from p's key, and the peer gets
        nothing for it. Each view's masks hold its party's rows in order.
        Party 1's product shares are the corrections: one offline bit per
        product per gate."""
        s0, s1 = self._streams(TAG_BITS, ctr)
        held, sizes = _deal_rows(tuple(owners), tuple(map(tuple, products)))
        drawn = s0.gate_rows(len(held[0]) + len(products), words, bits)
        masks = [drawn[:len(held[0])], *_bits_own(s1, words, bits, owners,
                                                  products)]
        c0 = drawn[len(held[0]):]
        full = np.zeros((len(owners), words + bits), dtype=np.uint64)
        full[held[0]] = masks[0]
        full[held[1]] ^= masks[1]
        c1 = np.empty_like(c0)
        for sel, columns in sizes:
            c1[sel] = full[columns[0]]
            for rows in columns[1:]:
                c1[sel] &= full[rows]
        c1 ^= c0
        return (BitTriples(masks[0], c0), BitTriples(masks[1], c1),
                len(products) * (64 * words + bits))

    def gen_dabits(self, ctr: int, shape, masked: bool = False):
        """daBits: r dealt both XOR-shared and additively shared, plus in the
        masked form a fresh additive mask u and [r*u]. Party 1's additive
        shares of r and r*u are the corrections: 64 or 128 offline bits per
        element."""
        s0, s1 = self._streams(TAG_DABITS, ctr)
        size = math.prod(shape)
        r1, u1 = _dabits_own(s1, shape, masked)
        r0 = s0.bits(size).astype(np.uint64).reshape(shape)
        R0 = s0.u64(shape)
        r = r0 ^ r1
        view0 = DaBits(r0, R0, None, None)
        view1 = DaBits(r1, r - R0, u1, None)
        if masked:
            view0.u, view0.ru = s0.u64(shape), s0.u64(shape)
            view1.ru = r * (view0.u + u1) - view0.ru
        return view0, view1, size * 64 * (1 + masked)

    def party1_view(self, method: str, ctr: int, args: tuple, held):
        """Party 1's view of tuple `ctr`, a `method` request with `args`
        that party 0 dealt: the correction `held` with the values party 1
        expands from its own key filled in."""
        if method not in _OWN:
            return held
        tag, fields, expand = _OWN[method]
        own = expand(PrfStream(self.keys[1], tag, ctr), *args)
        return own if fields is None else replace(held, **dict(zip(fields, own)))


class Handoff:
    """Per-run slot that lets two paired TapeViews generate each tuple once.

    The first party to draw a counter runs the dealer, keeps its own view and
    leaves the peer's share of the tuple here with the request that produced
    it; the peer's draw at that counter takes the entry out. When party 0
    deals, the entry is the dealer's offline message to party 1, its
    correction, and party 1 expands the rest of its view from its own key
    as it draws. When party 1 deals first, which is rare for large tuples,
    the entry is party 0's whole view. A peer asking for another kind or
    other arguments at the same counter gets TapeExhausted.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._held: dict[int, tuple] = {}

    def draw(self, dealer: Dealer, party: int, ctr: int, request: tuple):
        """This party's view of tuple `ctr` and its offline bits, for the
        request (dealer method name, arguments after the counter)."""
        method, args = request
        with self._lock:
            held = self._held.pop(ctr, None)
            if held is None:
                view0, view1, bits = getattr(dealer, method)(ctr, *args)
                peer = view0 if party else _correction(method, view1)
                self._held[ctr] = (request, peer, bits)
                return view1 if party else view0, bits
        if held[0] != request:
            raise TapeExhausted(
                f"counter {ctr}: party {party} asked for {method}{args}, "
                f"the peer drew {held[0][0]}{held[0][1]}")
        if party:
            return dealer.party1_view(method, ctr, args, held[1]), held[2]
        return held[1], held[2]


@dataclass
class TapeView:
    """One party's synchronized cursor into the dealer's tuple sequence.

    Both parties issue the identical request sequence (protocol structure is
    data-independent), so their counters stay aligned without coordination.
    The two views of a run share a `Handoff`, so each tuple is generated once
    between them and carries to party 1 only the dealer's offline message,
    when party 0 draws first; party 1's view passes the offline bits of each
    correction it draws to `charge`.
    """

    dealer: Dealer
    party: int
    handoff: Handoff
    charge: Callable[[int], None]
    ctr: int = 0

    def _draw(self, method: str, *args):
        view, offline_bits = self.handoff.draw(
            self.dealer, self.party, self.ctr, (method, args))
        self.ctr += 1
        if self.party == 1:
            self.charge(offline_bits)
        return view

    def op(self, k: int, d: int) -> OpRandomness:
        return self._draw("gen_op_rand", k, d)

    def osm(self, count: int) -> OsmRandomness:
        return self._draw("gen_osm_rand", count)

    def privmul(self, shape) -> PrivMulRandomness:
        return self._draw("gen_privmul", shape)

    def mask(self, shape) -> tuple[int, np.ndarray]:
        """This party's share of a fresh gen_mask tuple, with its counter."""
        ctr = self.ctr
        return ctr, self._draw("gen_mask", tuple(shape))

    def beaver(self, x: MaskRef, y: MaskRef,
               matmul: bool = False) -> np.ndarray:
        return self._draw("gen_beaver", x, y, matmul)

    def square(self, x: MaskRef) -> np.ndarray:
        return self._draw("gen_square", x)

    def bits(self, words: int, bits: int, owners: tuple,
             products: tuple) -> BitTriples:
        return self._draw("gen_bit_triples", words, bits, owners, products)

    def dabits(self, shape, masked: bool = False) -> DaBits:
        return self._draw("gen_dabits", tuple(shape), masked)
