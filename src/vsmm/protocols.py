"""Core two-party primitives: oblivious permutation, oblivious
selection-multiplication, private multiplication, masked openings and the
Beaver products on them, the GMW AND, and the reveal.

Every primitive is at most one round: each party sends one message before
blocking on the peer's, so the logical clock advances once per invocation.
Party 0's message in op, osm and priv_mult does not depend on the shared
input, so its half of each starts with a `*_correction` function that draws
the tuple, sends the message and returns the constant its output share adds;
`smm` sends every correction of a call before it receives anything. A
Beaver product reads its operands only as openings (`open_masked`): it opens
the arrays among them together, in one round, and is local from there, so
an operand opened earlier costs it nothing. Payload encodings are bit-exact:
permutations are k indices of ceil(log2 k) bits, selector masks are 1 bit
per instance, ring elements are 8 bytes little-endian.

op, osm and priv_mult take (d, k) arrays, one row per column instance, the
layout smm walks, and return C-contiguous rows; their ring messages go in
that row order. op gathers those rows, and pi^-1 sigma, with
`decompose.gather_rows`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .dealer import MaskRef, rows_index
from .decompose import Permutation, gather_rows
from .ring import FRAC_BITS, truncate_share
from .runtime import PartyContext


def op_correction(ctx: PartyContext, sigma: Permutation,
                  shape: tuple) -> np.ndarray:
    """Party 0's half of op that needs no input: draw the tuple for a (d, k)
    operand, send pi_c^-1 sigma and return the constant c of its output
    share, which is sigma applied to each row of (x0 + x1 - U), plus c."""
    d, k = shape
    tape = ctx.tape.op(k, d)
    if sigma is None or sigma.degree != k:
        raise ValueError("party 0 must supply a degree-k permutation")
    # row c: pi_c^-1[sigma], in the rows of pi^-1, which it uses up
    delta_sigma = gather_rows(tape.pinv, sigma.p, out=tape.pinv)
    piU = tape.piU
    del tape
    ctx.send_perm(delta_sigma, k)
    return gather_rows(piU, delta_sigma, out=piU)


def op(ctx: PartyContext, sigma: Permutation | None,
       x: np.ndarray) -> np.ndarray:
    """Oblivious permutation: party 0 holds sigma, and each party its share
    of the (d, k) input; party 1's plaintext is a share whose party-0 half is
    zero. Returns this party's (d, k) share of sigma applied to each row.
    """
    with ctx.section("op"):
        x = np.asarray(x, dtype=np.uint64)
        if ctx.party == 0:
            c = op_correction(ctx, sigma, x.shape)
            # permute x1 - U + x0 with one gather along the rows
            c += gather_rows(ctx.recv_ring(x.shape) + x, sigma.p)
            return c
        tape = ctx.tape.op(x.shape[1], len(x))
        ctx.send_ring(np.subtract(x, tape.U, out=tape.U))  # U is used up
        piU = tape.piU
        del tape  # frees U while party 1 waits
        delta_sigma = ctx.recv_perm(x.shape[1], count=x.size)
        return gather_rows(piU, delta_sigma.reshape(x.shape), out=piU)


def osm_correction(ctx: PartyContext, s: np.ndarray) -> np.ndarray:
    """Party 0's half of osm that needs no input: draw the tuple, send
    s xor b and return the constant c of its output share s*(x0 + x1 - u)
    + c, in the shape and order of s."""
    s = np.asarray(s, dtype=np.uint64)
    flat = s.ravel()
    tape = ctx.tape.osm(flat.size)
    delta_s = (flat ^ tape.b).astype(np.uint8)
    ctx.send_bits(delta_s)
    ds = delta_s.astype(np.uint64)
    sign = np.uint64(1) - np.uint64(2) * ds
    return ((ds - flat) * tape.u + sign * tape.bu).reshape(s.shape)


def osm(ctx: PartyContext, s: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """Oblivious selection-multiplication: party 0's private bit vector s
    times the shared vector x, elementwise; returns shares of s*x.
    Payload is 65 bits per element (1-bit selector delta plus one masked
    ring element), one round, its instances in the order of x.
    """
    x = np.asarray(x, dtype=np.uint64)
    with ctx.section("osm"):
        if ctx.party == 0:
            c = osm_correction(ctx, s)
            c += np.asarray(s, dtype=np.uint64) * (x + ctx.recv_ring(x.shape))
            return c
        tape = ctx.tape.osm(x.size)
        ctx.send_ring(x.ravel() - tape.u)
        delta_s = ctx.recv_bits(x.size)
        sign = np.uint64(1) - np.uint64(2) * delta_s
        return (delta_s * tape.u + sign * tape.bu).reshape(x.shape)


def priv_mult_correction(ctx: PartyContext, lam: np.ndarray,
                         shape) -> np.ndarray:
    """Party 0's half of priv_mult that needs no input: draw the tuple for
    an operand of `shape`, send lam - a and return the constant c of its
    output share lam*(y0 + y1 - u) + c. lam is a ring vector of one value
    per entry of the last axis."""
    tape = ctx.tape.privmul(shape)
    ctx.send_ring(lam - tape.a)
    return tape.au - tape.a * tape.u


def priv_mult(ctx: PartyContext, lam: np.ndarray | None,
              y: np.ndarray) -> np.ndarray:
    """Multiply party 0's private ring vector lam into the shared tensor y
    along its last axis, broadcast over the rows. One round: party 0
    opens lam - a, L bits per entry of lam, and party 1 opens y - u, L bits
    per element, in the order of y.
    """
    y = np.asarray(y, dtype=np.uint64)
    with ctx.section("mult"):
        if ctx.party == 0:
            lam = np.asarray(lam, dtype=np.uint64).reshape(y.shape[-1:])
            out = priv_mult_correction(ctx, lam, y.shape)
            out += lam * (y + ctx.recv_ring(y.shape))
            return out
        tape = ctx.tape.privmul(y.shape)
        ctx.send_ring(y - tape.u)
        return ctx.recv_ring(y.shape[-1:]) * tape.u + tape.au


@dataclass(frozen=True, eq=False)
class Opened:
    """A shared tensor x opened once under a `gen_mask` tuple: the dealer's
    name for the mask (its counter, shape and whether it is read
    transposed), this party's share of the mask a, and the public x - a.
    `.T` reads the same opening transposed. Only `open_masked` makes one."""

    ref: MaskRef
    mask: np.ndarray
    public: np.ndarray

    def __post_init__(self):
        self.mask.flags.writeable = self.public.flags.writeable = False

    @property
    def shape(self) -> tuple:
        return self.public.shape

    @property
    def T(self) -> "Opened":
        return Opened(replace(self.ref, transposed=not self.ref.transposed),
                      self.mask.T, self.public.T)


def open_masked(ctx: PartyContext, *xs) -> tuple[Opened, ...]:
    """Open each shared array in xs under a fresh `gen_mask` tuple, all in
    one message each way, one round; an Opened or an empty array in xs comes
    back as it is. Any number of beaver_mult and beaver_square calls can
    then take the results in place of the arrays without opening them again.
    """
    xs = [x if isinstance(x, Opened) else np.asarray(x, dtype=np.uint64)
          for x in xs]
    fresh = [i for i, x in enumerate(xs) if not isinstance(x, Opened) and x.size]
    with ctx.section("mult"):
        masks = [ctx.tape.mask(xs[i].shape) for i in fresh]
        sent = [xs[i] - a for i, (_, a) in zip(fresh, masks)]
        if sent:
            ctx.send_ring(np.concatenate([e.ravel() for e in sent]))
            peer = np.split(ctx.recv_ring(-1),
                            np.cumsum([e.size for e in sent[:-1]]))
            for i, (ctr, a), e, f in zip(fresh, masks, sent, peer):
                xs[i] = Opened(MaskRef(ctr, e.shape), a, e + f.reshape(e.shape))
    return tuple(xs)


def _beaver_local(ctx: PartyContext, c: np.ndarray, x: Opened, y: Opened,
                  matmul: bool, truncate: bool) -> np.ndarray:
    """This party's share of the product of the openings x and y from its
    share c of C = op(A) op(B): c + (x - a) b + a (y - b), and party 0 adds
    (x - a)(y - b), folded into the first product."""
    mul = functools.partial(np.matmul, dtype=np.uint64) if matmul \
        else np.multiply
    b = y.mask + y.public if ctx.party == 0 else y.mask
    c += mul(x.public, b) + mul(x.mask, y.public)
    if truncate:
        c = truncate_share(c, ctx.party, FRAC_BITS)
    return c


def beaver_mult(ctx: PartyContext, x, y, matmul: bool = False,
                truncate: bool = False) -> np.ndarray:
    """Beaver multiplication of two shared tensors: elementwise, with
    numpy broadcasting, or a matrix product. The operands are openings:
    `open_masked` opens those that are arrays, together, in one round, and
    the product is local from each x - a, this party's a and a fresh C =
    op(A) op(B) from the dealer. A product with an empty operand is 0 and
    costs nothing.
    """
    sx, sy = np.shape(x), np.shape(y)
    if 0 in sx + sy:
        return np.zeros((sx[0], sy[1]) if matmul else
                        np.broadcast_shapes(sx, sy), dtype=np.uint64)
    x, y = open_masked(ctx, x, y)
    with ctx.section("mult"):
        c = ctx.tape.beaver(x.ref, y.ref, matmul)
    return _beaver_local(ctx, c, x, y, matmul, truncate)


def beaver_square(ctx: PartyContext, x, truncate: bool = False) -> np.ndarray:
    """Square a shared tensor, or an Opened, from its opening x - a and a
    fresh C = A^2; at most one opening, one round; an empty x costs
    nothing."""
    x, = open_masked(ctx, x)
    if 0 in x.shape:
        return np.zeros(x.shape, dtype=np.uint64)
    with ctx.section("mult"):
        c = ctx.tape.square(x.ref)
    return _beaver_local(ctx, c, x, x, False, truncate)


@dataclass(frozen=True)
class _AndPlan:
    """How and_bits evaluates its monomials over `rows` variable rows.

    With e_i = x_i ^ m_i the opened row i and m_T the AND of the masks over
    the rows T, a monomial S is the XOR over T in S of e_(S - T) & m_T:
    e_S on party 0 alone for T empty, this party's share of m_T alone for
    T = S. `products` lists the T of two or more rows that the terms read,
    in order of first use. Per party, `groups` holds the monomials of one
    size and one owner pattern, so that each term is one read per row
    position across them: (output rows, their count, the opened rows at each
    position, terms), a term being (None for T empty, else whether m_T is a
    dealt product and its rows; the positions of S - T). A party's terms
    leave out those its share of m_T makes 0. Rows are slices where they
    rise in equal steps."""

    owners: tuple
    products: tuple
    exchange: tuple  # per party: the rows it sends, receives, and their count
    groups: tuple


@functools.lru_cache(maxsize=None)
def _and_plan(rows: int, monomials: tuple, owners: tuple | None) -> _AndPlan:
    owners = (None,) * rows if owners is None else owners
    monomials = [tuple(sorted(set(m))) for m in monomials]
    if not all(monomials):
        raise ValueError("every monomial needs at least one row")
    dealt = {}  # each product's index, in order of first use
    for m in monomials:
        for k in range(2, len(m) + 1):
            for t in itertools.combinations(m, k):
                dealt.setdefault(t, len(dealt))
    sent = [[i for i, o in enumerate(owners) if o != 1 - p] for p in (0, 1)]
    held = [{i: k for k, i in enumerate(rows_p)} for rows_p in sent]
    patterns: dict[tuple, list[int]] = {}
    for out, m in enumerate(monomials):
        patterns.setdefault(tuple(owners[v] for v in m), []).append(out)
    groups = ([], [])
    for pattern, outs in patterns.items():
        terms = ([], [])
        for size in range(len(pattern) + 1):
            for pos in itertools.combinations(range(len(pattern)), size):
                subsets = [tuple(monomials[o][q] for q in pos) for o in outs]
                public = tuple(q for q in range(len(pattern)) if q not in pos)
                for p in (0, 1):
                    if size == 0 and p == 0:
                        terms[p].append((None, public))
                    elif size == 1 and pattern[pos[0]] in (None, p):
                        # an owned row's mask is its owner's alone
                        terms[p].append(((False, rows_index(
                            [held[p][t[0]] for t in subsets])), public))
                    elif size > 1:
                        terms[p].append(((True, rows_index(
                            [dealt[t] for t in subsets])), public))
        columns = tuple(rows_index([monomials[o][q] for o in outs])
                        for q in range(len(pattern)))
        for p in (0, 1):
            groups[p].append((rows_index(outs), len(outs), columns,
                              tuple(terms[p])))
    return _AndPlan(owners, tuple(dealt),
                    tuple((rows_index(sent[p]), rows_index(sent[1 - p]),
                           len(sent[1 - p])) for p in (0, 1)),
                    tuple(map(tuple, groups)))


def and_bits(ctx: PartyContext, x: np.ndarray, whole: int, monomials,
             owners: tuple | None = None) -> np.ndarray:
    """GMW AND of XOR-shared bit rows in one round: any list of monomials
    over the rows, each a tuple of row indices, from one opening per row.

    x holds _bit_rows rows of n columns: packed words in the first `whole`
    columns, then one 0/1 bit per entry. Returns each monomial's AND of its
    rows, an (len(monomials), n) XOR share.

    owners[i] is None for a row XOR-shared between the parties, as is every
    row without owners, or the party holding row i in the clear. x holds
    the shared rows and this party's own, in row order, and it sends each
    under a fresh dealer mask (dealer docstring): 1 bit per row per element.
    The dealer deals the AND of the masks over every subset of two or more
    rows of a monomial, once per subset: 2^k - k - 1 offline bits per
    element for a k-row monomial, 1 per two-input gate.
    """
    x = np.asarray(x, dtype=np.uint64)
    rows, n = len(x) if owners is None else len(owners), x.shape[1]
    plan = _and_plan(rows, tuple(map(tuple, monomials)),
                     None if owners is None else tuple(owners))
    if n == 0:
        return np.zeros((len(monomials), 0), dtype=np.uint64)
    with ctx.section("gmw_and"):
        tape = ctx.tape.bits(whole, n - whole, plan.owners, plan.products)
        mine, theirs, received = plan.exchange[ctx.party]
        opened = np.zeros((rows, n), dtype=np.uint64)
        opened[mine] = x ^ tape.masks
        ctx.send_gates(opened[mine], whole)
        opened[theirs] ^= ctx.recv_gates(whole, n - whole, received)
        groups = plan.groups[ctx.party]
        out = None if len(groups) == 1 else \
            np.empty((len(monomials), n), dtype=np.uint64)
        for outs, count, columns, terms in groups:
            acc, buf = np.zeros((count, n), dtype=np.uint64), None
            e = [opened[at] for at in columns]  # each position's rows once
            for mask, public in terms:
                reads = [e[q] for q in public]
                if mask is not None:
                    dealt, at = mask
                    reads.append((tape.products if dealt else tape.masks)[at])
                if len(reads) > 1:
                    buf = np.bitwise_and(reads[0], reads[1], out=buf)
                    for more in reads[2:]:
                        buf &= more
                    reads[0] = buf
                acc ^= reads[0]
            if out is None:
                return acc
            out[outs] = acc
        return out


def reveal(ctx: PartyContext, share: np.ndarray) -> np.ndarray:
    """Open a shared tensor to both parties (evaluation/reporting only)."""
    share = np.asarray(share, dtype=np.uint64)
    with ctx.section("reveal"):
        ctx.send_ring(share)
        return share + ctx.recv_ring(share.shape)
