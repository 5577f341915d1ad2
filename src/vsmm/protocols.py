"""Core two-party primitives: oblivious permutation, oblivious
selection-multiplication, Beaver multiplication and small composites.

Every primitive is one round: each party sends its message(s) before blocking
on the peer's, so the logical clock advances once per invocation. Payload
encodings are bit-exact: permutations are k indices of ceil(log2 k) bits,
selector masks are 1 bit per instance, ring elements are 8 bytes
little-endian.
"""

from __future__ import annotations

import numpy as np

from .decompose import Permutation
from .ring import FRAC_BITS, truncate_share
from .runtime import PartyContext


def _as2d(x: np.ndarray) -> np.ndarray:
    return x.reshape(len(x), -1)


def op(ctx: PartyContext, sigma: Permutation | None, x: np.ndarray | None,
       k: int, d: int, shared: bool) -> np.ndarray:
    """Oblivious permutation: party 0 holds sigma, the (k, d) input is
    party 1's plaintext (shared=False) or additively shared (shared=True).
    Returns this party's (k, d) share of sigma applied to the rows.
    """
    with ctx.section("op"):
        tape = ctx.tape.op(k, d)
        if ctx.party == 0:
            if sigma is None or sigma.degree != k:
                raise ValueError("party 0 must supply a degree-k permutation")
            delta_sigma = tape.pinv[:, sigma.p]  # (d, k): pi_c^{-1}[sigma[i]]
            ctx.send_perm(delta_sigma, k)
            delta_x = ctx.recv_ring((k, d))
            if shared:  # permute delta_x + x with one gather
                delta_x = delta_x + _as2d(np.asarray(x, dtype=np.uint64))
            return delta_x[sigma.p] + np.take_along_axis(
                tape.piU, delta_sigma.T, axis=0)
        x2 = _as2d(np.asarray(x, dtype=np.uint64))
        if x2.shape != (k, d):
            raise ValueError(f"expected ({k}, {d}) input, got {x2.shape}")
        ctx.send_ring(x2 - tape.U)
        delta_sigma = ctx.recv_perm(k, count=d * k).reshape(d, k)
        return np.take_along_axis(tape.piU, delta_sigma.T, axis=0)


def osm(ctx: PartyContext, s: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """Oblivious selection-multiplication: party 0's private bit vector s
    times the shared vector x, elementwise; returns shares of s*x.
    Payload is 65 bits per element (1-bit selector delta plus one masked
    ring element), one round.
    """
    x = np.asarray(x, dtype=np.uint64)
    shape = x.shape
    n = x.size
    with ctx.section("osm"):
        tape = ctx.tape.osm(n)
        if ctx.party == 0:
            s = np.asarray(s, dtype=np.uint64).ravel()
            delta_s = (s ^ tape.b).astype(np.uint8)
            ctx.send_bits(delta_s)
            delta_x1 = ctx.recv_ring((n,))
            delta_x = x.ravel() - tape.u + delta_x1
            ds = delta_s.astype(np.uint64)
            sign = np.uint64(1) - np.uint64(2) * ds
            out = s * delta_x + ds * tape.u + sign * tape.bu
            return out.reshape(shape)
        ctx.send_ring(x.ravel() - tape.u)
        delta_s = ctx.recv_bits(n).astype(np.uint64)
        sign = np.uint64(1) - np.uint64(2) * delta_s
        return (delta_s * tape.u + sign * tape.bu).reshape(shape)


def priv_mult(ctx: PartyContext, lam: np.ndarray | None, y: np.ndarray,
              truncate: bool = False) -> np.ndarray:
    """Multiply party 0's private ring vector lam (broadcast over columns)
    elementwise into the shared tensor y. One round, 2L bits per element.
    """
    y = np.asarray(y, dtype=np.uint64)
    shape = y.shape
    with ctx.section("mult"):
        tape = ctx.tape.privmul(shape)
        if ctx.party == 0:
            lam_b = np.broadcast_to(
                np.asarray(lam, dtype=np.uint64).reshape(
                    (shape[0],) + (1,) * (len(shape) - 1)), shape)
            ctx.send_ring(lam_b - tape.a)
            delta_y = (y - tape.u) + ctx.recv_ring(shape)
            out = lam_b * delta_y + (lam_b - tape.a) * tape.u + tape.au
        else:
            ctx.send_ring(y - tape.u)
            delta_lam = ctx.recv_ring(shape)
            out = delta_lam * tape.u + tape.au
        if truncate:
            out = truncate_share(out, ctx.party, FRAC_BITS)
        return out


def beaver_mult(ctx: PartyContext, x: np.ndarray, y: np.ndarray,
                matmul: bool = False, truncate: bool = False) -> np.ndarray:
    """Beaver multiplication of two shared tensors (elementwise or matrix
    product); masked openings are exchanged simultaneously, one round.
    """
    x = np.asarray(x, dtype=np.uint64)
    y = np.asarray(y, dtype=np.uint64)
    with ctx.section("mult"):
        tape = ctx.tape.beaver(x.shape, y.shape, matmul)
        ctx.send_ring(x - tape.a)
        ctx.send_ring(y - tape.b)
        dx = (x - tape.a) + ctx.recv_ring(x.shape)
        dy = (y - tape.b) + ctx.recv_ring(y.shape)
        if matmul:
            out = tape.c + np.matmul(dx, tape.b, dtype=np.uint64) \
                + np.matmul(tape.a, dy, dtype=np.uint64)
            if ctx.party == 0:
                out += np.matmul(dx, dy, dtype=np.uint64)
        else:
            out = tape.c + dx * tape.b + tape.a * dy
            if ctx.party == 0:
                out += dx * dy
        if truncate:
            out = truncate_share(out, ctx.party, FRAC_BITS)
        return out


def beaver_square(ctx: PartyContext, x: np.ndarray,
                  truncate: bool = False) -> np.ndarray:
    """Square a shared tensor with a (a, a^2) pair; one opening, one round."""
    x = np.asarray(x, dtype=np.uint64)
    with ctx.section("mult"):
        tape = ctx.tape.square(x.shape)
        ctx.send_ring(x - tape.a)
        dx = (x - tape.a) + ctx.recv_ring(x.shape)
        out = tape.c + np.uint64(2) * dx * tape.a
        if ctx.party == 0:
            out += dx * dx
        if truncate:
            out = truncate_share(out, ctx.party, FRAC_BITS)
        return out


def mux_shared_bit(ctx: PartyContext, s: np.ndarray, x: np.ndarray,
                   public_else: np.ndarray) -> np.ndarray:
    """Select s*x + (1-s)*public_else from an arithmetic-shared 0/1 tensor s.

    The selector is unscaled, so no truncation is needed; realized as one
    Beaver multiply plus a public-constant blend.
    """
    x = np.asarray(x, dtype=np.uint64)
    pub = np.broadcast_to(np.asarray(public_else, dtype=np.uint64), x.shape)
    branch = x - pub if ctx.party == 0 else x
    out = beaver_mult(ctx, np.asarray(s, dtype=np.uint64), branch)
    if ctx.party == 0:
        out = out + pub
    return out


def and_bits(ctx: PartyContext, x: np.ndarray, y: np.ndarray,
             count: int | None = None) -> np.ndarray:
    """GMW AND of XOR-shared packed bits, 2 bits per gate per party, 1 round.

    Bit i of word w is gate 64*w + i. Only the first `count` gates (default
    all) are computed and sent, so x and y hold ceil(count/64) words.
    """
    x = np.asarray(x, dtype=np.uint64)
    y = np.asarray(y, dtype=np.uint64)
    count = 64 * x.size if count is None else count
    if y.shape != x.shape or count < 0 or -(-count // 64) != x.size:
        raise ValueError(f"{count} gates on {x.shape} and {y.shape} words")
    with ctx.section("gmw_and"):
        tape = ctx.tape.bits(count)
        d, e = x.ravel() ^ tape.a, y.ravel() ^ tape.b
        ctx.send_gates(d, e, count)
        d_peer, e_peer = ctx.recv_gates(count)
        d, e = d ^ d_peer, e ^ e_peer
        z = tape.c ^ (d & tape.b) ^ (e & tape.a)
        if ctx.party == 0:
            z ^= d & e
        return z.reshape(x.shape)


def reveal(ctx: PartyContext, share: np.ndarray) -> np.ndarray:
    """Open a shared tensor to both parties (evaluation/reporting only)."""
    share = np.asarray(share, dtype=np.uint64)
    with ctx.section("reveal"):
        ctx.send_ring(share)
        return share + ctx.recv_ring(share.shape)
