import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsmm.decompose import Permutation
from vsmm.protocols import (Opened, and_bits, beaver_mult, beaver_square, op,
                            open_masked, osm, priv_mult, reveal)
from vsmm.ring import (decode_fixed, encode_fixed, random_ring, reconstruct,
                       share_secret)
from vsmm.runtime import run_two_party


def _shared(rng, shape):
    x = random_ring(rng, shape)
    return x, share_secret(x, random_ring(rng, shape))


def _spy(ctx, sent):
    """Record (party, payload bytes) for every message ctx sends."""
    send = ctx.ep.send

    def spy(payload, nbits=None):
        sent.append((ctx.party, len(payload)))
        send(payload, nbits)

    ctx.ep.send = spy


def test_op_plain_correct(rng):
    k, d = 16, 3
    sigma = Permutation(rng.permutation(k))
    x = random_ring(rng, (d, k))
    # party 1's plaintext is a share whose party-0 half is zero
    o0, o1, meter = run_two_party(op, (sigma, np.zeros_like(x)), (None, x))
    assert np.array_equal(reconstruct(o0, o1), x[:, sigma.p])
    assert meter.rounds == 1
    # payload: d ring columns from party 1 plus d packed index vectors
    assert meter.online_bits == d * (k * 64 + k * math.ceil(math.log2(k)))


def test_op_shared_correct(rng):
    k, d = 9, 2
    sigma = Permutation(rng.permutation(k))
    x, (x0, x1) = _shared(rng, (d, k))
    o0, o1, meter = run_two_party(op, (sigma, x0), (None, x1))
    assert np.array_equal(reconstruct(o0, o1), x[:, sigma.p])
    assert meter.rounds == 1


def test_op_columns_use_independent_masks(rng):
    # the d per-column permutations of one tuple must differ (whp for k=32)
    from vsmm.dealer import Dealer
    v0, _, _ = Dealer.from_seed(1).gen_op_rand(0, 32, 4)
    pinvs = {tuple(p) for p in v0.pinv}
    assert len(pinvs) == 4


def test_op_degree_validation(rng):
    x = random_ring(rng, (1, 4))
    with pytest.raises(ValueError):
        run_two_party(op, (Permutation([0, 1]), np.zeros_like(x)), (None, x))


def test_osm_correct_and_payload(rng):
    n = 100
    s = rng.integers(0, 2, n).astype(np.uint64)
    x, (x0, x1) = _shared(rng, (n,))
    o0, o1, meter = run_two_party(osm, (s, x0), (None, x1))
    assert np.array_equal(reconstruct(o0, o1), s * x)
    assert meter.rounds == 1
    assert meter.online_bits == n * (64 + 1)


def test_priv_mult_broadcasts_columns(rng):
    lam = random_ring(rng, (6,))
    y, (y0, y1) = _shared(rng, (4, 6))
    sent, masks = [], []

    def proto(ctx, lv, yv):
        _spy(ctx, sent)
        draw = ctx.tape.privmul

        def recorded(shape):
            view = draw(shape)
            masks.append(view)
            return view

        ctx.tape.privmul = recorded
        return priv_mult(ctx, lv, yv)

    o0, o1, meter = run_two_party(proto, (lam, y0), (None, y1))
    assert np.array_equal(reconstruct(o0, o1), lam * y)
    assert meter.rounds == 1
    # party 0 opens lam - a, one ring element per entry of a row (6); party
    # 1 opens y - u, one per element (4 * 6): L bits per element plus L per
    # entry of lam
    assert meter.online_bits == (6 + 6 * 4) * 64 == 1_920
    assert sorted(sent) == [(0, 6 * 8), (1, 6 * 4 * 8)]
    assert [m.a.shape for m in masks if m.a is not None] == [(6,)]


def _layouts(x):
    """x as C-ordered, Fortran-ordered and strided (reversed-row) arrays."""
    strided = np.ascontiguousarray(x[::-1])[::-1]
    assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
    return [np.ascontiguousarray(x), np.asfortranarray(x), strided]


def _meter(m):
    return (m.online_bits, m.offline_bits, m.framing_bits, m.rounds,
            m.clocks, m.sections)


@pytest.mark.parametrize("protocol", ["op", "osm", "priv_mult"])
def test_column_major_protocols_ignore_input_layout(rng, protocol):
    """op, osm and priv_mult work on (d, k) rows, one per column instance;
    C-ordered, Fortran-ordered and strided inputs give the same shares,
    reconstructions and meters."""
    k, d = 13, 3
    sigma = Permutation(rng.permutation(k))
    s = rng.integers(0, 2, (d, k)).astype(np.uint64)
    lam = random_ring(rng, (k,))
    x, (x0, x1) = _shared(rng, (d, k))
    fn, secret = {"op": (op, sigma), "osm": (osm, s),
                  "priv_mult": (priv_mult, lam)}[protocol]
    want = {"op": x[:, sigma.p], "osm": s * x, "priv_mult": lam * x}

    def proto(ctx, xin):
        return fn(ctx, secret if ctx.party == 0 else None, xin)

    runs = [run_two_party(proto, (a0,), (a1,), seed=5)
            for a0, a1 in zip(_layouts(x0), _layouts(x1))]
    for o0, o1, meter in runs:
        assert np.array_equal(reconstruct(o0, o1), want[protocol])
        assert o0.tobytes() == runs[0][0].tobytes()
        assert o1.tobytes() == runs[0][1].tobytes()
        assert _meter(meter) == _meter(runs[0][2])


def test_beaver_elementwise(rng):
    x, (x0, x1) = _shared(rng, (5, 3))
    y, (y0, y1) = _shared(rng, (5, 3))

    def proto(ctx, a, b):
        return beaver_mult(ctx, a, b)

    o0, o1, meter = run_two_party(proto, (x0, y0), (x1, y1))
    assert np.array_equal(reconstruct(o0, o1), x * y)
    assert meter.rounds == 1


def test_beaver_elementwise_broadcasts(rng):
    # softmax's last multiply: (n, c) times a per-row (n, 1) factor
    x, (x0, x1) = _shared(rng, (5, 3))
    y, (y0, y1) = _shared(rng, (5, 1))

    def proto(ctx, a, b):
        return beaver_mult(ctx, a, b)

    o0, o1, meter = run_two_party(proto, (x0, y0), (x1, y1))
    assert np.array_equal(reconstruct(o0, o1), x * y)
    assert meter.rounds == 1
    # each operand is opened at its own shape; C is dealt at the product's
    assert meter.online_bits == 2 * (15 + 5) * 64
    assert meter.offline_bits == 15 * 64


def test_beaver_matmul(rng):
    x, (x0, x1) = _shared(rng, (4, 6))
    y, (y0, y1) = _shared(rng, (6, 2))

    def proto(ctx, a, b):
        return beaver_mult(ctx, a, b, matmul=True)

    o0, o1, _ = run_two_party(proto, (x0, y0), (x1, y1))
    assert np.array_equal(reconstruct(o0, o1), np.matmul(x, y, dtype=np.uint64))


def test_beaver_fixed_point_truncation(rng):
    xf = rng.uniform(-20, 20, (8,))
    yf = rng.uniform(-20, 20, (8,))
    x0, x1 = share_secret(encode_fixed(xf), random_ring(rng, (8,)))
    y0, y1 = share_secret(encode_fixed(yf), random_ring(rng, (8,)))

    def proto(ctx, a, b):
        return beaver_mult(ctx, a, b, truncate=True)

    o0, o1, _ = run_two_party(proto, (x0, y0), (x1, y1))
    got = decode_fixed(reconstruct(o0, o1))
    assert np.abs(got - xf * yf).max() < 1e-3


def test_beaver_square(rng):
    x, (x0, x1) = _shared(rng, (40,))
    o0, o1, meter = run_two_party(beaver_square, (x0,), (x1,))
    assert np.array_equal(reconstruct(o0, o1), x * x)
    assert meter.online_bits == 2 * 40 * 64  # one opening each way


# (product, operand shapes, keyword arguments)
_FORMS = {"elementwise": (beaver_mult, [(5, 3), (5, 3)], {}),
          "broadcast": (beaver_mult, [(5, 3), (5, 1)], {}),
          "matmul": (beaver_mult, [(4, 6), (6, 2)], {"matmul": True}),
          "square": (beaver_square, [(5, 3)], {})}


@pytest.mark.parametrize("form", list(_FORMS))
def test_fresh_operands_are_opened_by_open_masked(rng, form):
    """A product of arrays is the product of their open_masked openings:
    the same shares, meter and dealer counter at one seed."""
    product, shapes, kwargs = _FORMS[form]
    views = list(zip(*(_shared(rng, shape)[1] for shape in shapes)))

    def run(opened):
        def proto(ctx, *xs):
            xs = open_masked(ctx, *xs) if opened else xs
            return product(ctx, *xs, **kwargs), ctx.tape.ctr
        return run_two_party(proto, views[0], views[1], seed=5)

    (a0, a1, meter), (b0, b1, want) = run(False), run(True)
    for got, expect in ((a0, b0), (a1, b1)):
        assert np.array_equal(got[0], expect[0])
        # one mask per operand, then the product's C
        assert got[1] == expect[1] == len(shapes) + 1
    assert vars(meter) == vars(want)


def test_opened_operand_serves_two_products(rng):
    """One opening of x serves x @ y and x.T @ z, both exact, and x is paid
    for once: each party sends x - a, then y - b and z - b', one message
    each, and the dealer deals a fresh C per product and nothing for the
    mask."""
    x, (x0, x1) = _shared(rng, (5, 3))
    y, (y0, y1) = _shared(rng, (3, 2))
    z, (z0, z1) = _shared(rng, (5, 4))
    sent = []

    def proto(ctx, xv, yv, zv):
        _spy(ctx, sent)
        xo, = open_masked(ctx, xv)
        return (beaver_mult(ctx, xo, yv, matmul=True),
                beaver_mult(ctx, xo.T, zv, matmul=True))

    (p0, q0), (p1, q1), meter = run_two_party(proto, (x0, y0, z0),
                                              (x1, y1, z1))
    assert np.array_equal(reconstruct(p0, p1), np.matmul(x, y, dtype=np.uint64))
    assert np.array_equal(reconstruct(q0, q1),
                          np.matmul(x.T, z, dtype=np.uint64))
    assert meter.online_bits == 2 * (15 + 6 + 20) * 64
    assert sorted(sent) == sorted((p, 8 * n) for p in (0, 1) for n in (15, 6, 20))
    assert meter.offline_bits == (5 * 2 + 3 * 4) * 64
    assert meter.rounds == 3


def test_product_of_opened_operands_is_local(rng):
    x, (x0, x1) = _shared(rng, (4, 6))
    y, (y0, y1) = _shared(rng, (6, 2))

    def proto(ctx, xv, yv):
        xo, yo = open_masked(ctx, xv, yv)
        again = open_masked(ctx, xo, yv)  # an Opened comes back as it is
        assert again[0] is xo and isinstance(again[1], Opened)
        clock, bits = ctx.ep.clock, ctx.ep.sent_bits
        out = (beaver_mult(ctx, xo, yo, matmul=True),
               beaver_mult(ctx, yo.T, xo.T, matmul=True),
               beaver_square(ctx, xo))
        return out, ctx.ep.clock - clock, ctx.ep.sent_bits - bits

    (o0, r0, b0), (o1, r1, b1), meter = run_two_party(proto, (x0, y0), (x1, y1))
    assert (r0, b0, r1, b1) == (0, 0, 0, 0)
    xy = np.matmul(x, y, dtype=np.uint64)
    for got, want in zip(zip(o0, o1), (xy, xy.T, x * x)):
        assert np.array_equal(reconstruct(*got), want)
    assert meter.rounds == 2


def test_open_masked_draws_a_fresh_mask_per_call(rng):
    x, (x0, x1) = _shared(rng, (8,))

    def proto(ctx, xv):
        return open_masked(ctx, xv, xv) + open_masked(ctx, xv)

    out0, out1, meter = run_two_party(proto, (x0,), (x1,))
    assert len({o.ref.ctr for o in out0}) == 3
    assert [o.ref for o in out0] == [o.ref for o in out1]
    for o0, o1 in zip(out0, out1):
        assert np.array_equal(o0.public, o1.public)
        assert np.array_equal(o0.public + reconstruct(o0.mask, o1.mask), x)
    publics = {o.public.tobytes() for o in out0}
    assert len(publics) == 3  # three uniform masks, three different openings
    assert meter.offline_bits == 0 and meter.rounds == 2


def test_open_masked_sends_one_message_per_call(rng):
    """Opening three arrays in one call costs 1 message a party and 1 round,
    and the same bits, masks and openings as three calls at one seed."""
    views = list(zip(*(_shared(rng, s)[1] for s in ((6,), (2, 3), (4, 1)))))

    def run(together):
        def proto(ctx, *xs):
            opened = open_masked(ctx, *xs) if together else \
                sum((open_masked(ctx, x) for x in xs), ())
            return opened, ctx.ep.messages
        return run_two_party(proto, views[0], views[1], seed=3)

    (j0, m0), (j1, m1), joint = run(True)
    (s0, n0), (s1, n1), apart = run(False)
    assert (m0, m1, joint.rounds) == (1, 1, 1)
    assert (n0, n1, apart.rounds) == (3, 3, 3)
    assert joint.online_bits == apart.online_bits == 2 * (6 + 6 + 4) * 64
    for j, s in zip(j0 + j1, s0 + s1):
        assert j.ref == s.ref and j.shape == s.shape
        assert np.array_equal(j.mask, s.mask)
        assert np.array_equal(j.public, s.public)


def _rows(rng, r, whole, tail):
    """Random (2, r, whole + tail) _bit_rows rows: words, then 0/1 entries."""
    return np.concatenate([random_ring(rng, (2, r, whole)),
                           rng.integers(0, 2, (2, r, tail), dtype=np.uint64)],
                          axis=2)


def _pairs(r):
    """The monomials (i, r + i): x[0] & x[1] over the (2r, n) rows of a
    (2, r, n) pair of operands."""
    return tuple((i, r + i) for i in range(r))


def test_and_bits(rng):
    xy, xy0 = _rows(rng, 3, 4, 5), _rows(rng, 3, 4, 5)
    o0, o1, meter = run_two_party(and_bits, (xy0.reshape(6, -1), 4, _pairs(3)),
                                  ((xy ^ xy0).reshape(6, -1), 4, _pairs(3)))
    assert np.array_equal(o0 ^ o1, xy[0] & xy[1])
    assert meter.rounds == 1
    assert meter.online_bits == 2 * 2 * 3 * (64 * 4 + 5)


# (r, whole, tail), each case named by its gate count r * (64 * whole + tail)
_LAYOUTS = [(1, 0, 1), (63, 0, 1), (1, 1, 1), (7, 0, 32), (63, 1, 0),
            (2, 3, 0), (5, 2, 37), (63, 2, 63), (32, 1, 17)]


@pytest.mark.parametrize("r, whole, tail", [
    pytest.param(*case, id=str(case[0] * (64 * case[1] + case[2])))
    for case in _LAYOUTS])
def test_and_bits_count(rng, r, whole, tail):
    """count = r * (64 * whole + tail) gates cost 2 bits per gate per party
    online and 1 offline, in 1 round, and each party sends one payload of
    ceil(2 * count / 8) bytes: both operands' words, then their packed bits."""
    count = r * (64 * whole + tail)
    xy, xy0 = _rows(rng, r, whole, tail), _rows(rng, r, whole, tail)
    sent = []

    def proto(ctx, rows):
        send = ctx.ep.send

        def spy(payload, nbits=None):
            sent.append((ctx.party, len(payload), nbits))
            send(payload, nbits)

        ctx.ep.send = spy
        return and_bits(ctx, rows.reshape(2 * r, -1), whole, _pairs(r))

    o0, o1, meter = run_two_party(proto, (xy0,), (xy ^ xy0,))
    assert np.array_equal(o0 ^ o1, xy[0] & xy[1])
    for o in (o0, o1):  # words and tail entries stay uint64 under numpy 1.x
        assert o.dtype == np.uint64 and o.shape == (r, whole + tail)
        assert set(np.unique(o[:, whole:])) <= {0, 1}
    assert meter.rounds == 1
    assert meter.online_bits == 2 * 2 * count
    assert meter.offline_bits == count
    assert sorted(sent) == [(p, -(-2 * count // 8), 2 * count) for p in (0, 1)]


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_recv_gates_checks_payload_length(extra):
    # 2 x 3 words and 2 x 5 bits travel in 48 + 2 bytes
    def proto(ctx):
        if ctx.party == 0:
            ctx.ep.send(bytes(50 + extra))
        else:
            ctx.recv_gates(3, 5, 2)

    with pytest.raises(ValueError, match=f"{50 + extra}-byte payload"):
        run_two_party(proto)


def test_recv_gates_checks_padding_bits():
    # 2 x 5 bits travel in 2 bytes, the last 6 bits of the second padding
    def proto(ctx):
        if ctx.party == 0:
            ctx.ep.send(bytes(48) + b"\0\x01")
        else:
            ctx.recv_gates(3, 5, 2)

    with pytest.raises(ValueError, match="nonzero padding bits after 10 bits"):
        run_two_party(proto)


@pytest.mark.parametrize("fn", ["open_masked", "beaver_mult", "matmul",
                                "beaver_square"])
@pytest.mark.parametrize("shape", [(0,), (0, 7)])
def test_beaver_layers_on_empty_input(fn, shape):
    # nothing to open: no round, no bit and no dealer draw
    x = np.zeros(shape, dtype=np.uint64)

    def proto(ctx, x):
        if fn == "open_masked":
            out, = open_masked(ctx, x)
        elif fn == "beaver_mult":
            out = beaver_mult(ctx, x, open_masked(ctx, x)[0], truncate=True)
        elif fn == "matmul":  # (0, 7) @ (7, 0) and (7, 0) @ (0, 7) are 0
            out = beaver_mult(ctx, x.reshape(-1, 7).T, x.reshape(-1, 7),
                              matmul=True)
            assert out.shape == (7, 7) and not out.any()
            out = beaver_mult(ctx, x.reshape(-1, 7), out, matmul=True)
        else:
            out = beaver_square(ctx, x, truncate=True)
        return out, ctx.tape.ctr

    (o0, ctr0), (o1, ctr1), meter = run_two_party(proto, (x,), (x,))
    want = (0, 7) if fn == "matmul" else shape
    for o in (o0, o1):
        assert o.shape == want and o.dtype == np.uint64
    assert ctr0 == ctr1 == 0
    assert meter.rounds == meter.online_bits == meter.offline_bits == 0
    assert meter.framing_bits == 0


@pytest.mark.parametrize("k", range(1, 7))
def test_and_bits_monomial_cost(rng, k):
    """A k-row monomial opens each row once, 1 bit per element per party,
    and charges 2^k - k - 1 dealt mask products per element, in 1 round."""
    whole, tail = 2, 5
    n = 64 * whole + tail
    x, x0 = _rows(rng, k, whole, tail)[0], _rows(rng, k, whole, tail)[0]
    monomial = (tuple(range(k)),)
    o0, o1, meter = run_two_party(
        lambda ctx, rows: and_bits(ctx, rows, whole, monomial),
        (x0,), (x ^ x0,))
    assert np.array_equal(o0 ^ o1, np.bitwise_and.reduce(x, axis=0)[None])
    assert meter.rounds == 1
    assert meter.online_bits == 2 * k * n
    assert meter.offline_bits == (2 ** k - k - 1) * n


def test_and_bits_owned_rows_are_sent_by_their_owner(rng):
    # rows 0 and 1 are party 0's in the clear, row 2 party 1's, row 3 shared
    whole, tail = 3, 9
    n = 64 * whole + tail
    owners = (0, 0, 1, None)
    monomials = ((0, 2), (1, 2, 3), (0, 1), (3,))
    x, mask = _rows(rng, 4, whole, tail)[0], _rows(rng, 4, whole, tail)[0]
    # each party passes the rows it holds: its own, then its share of row 3
    view0 = np.stack([x[0], x[1], mask[3]])
    view1 = np.stack([x[2], x[3] ^ mask[3]])
    got = []

    def proto(ctx, rows):
        recv = ctx.ep.recv

        def spy():
            payload = recv()
            got.append((ctx.party, len(payload)))
            return payload

        ctx.ep.recv = spy
        return and_bits(ctx, rows, whole, monomials, owners)

    o0, o1, meter = run_two_party(proto, (view0,), (view1,))
    want = [np.bitwise_and.reduce(x[list(m)], axis=0) for m in monomials]
    assert np.array_equal(o0 ^ o1, np.array(want))
    # party 1 receives rows 0, 1 and 3; party 0 receives rows 2 and 3
    assert sorted(got) == [(0, 8 * 2 * whole + -(-2 * tail // 8)),
                           (1, 8 * 3 * whole + -(-3 * tail // 8))]
    assert meter.online_bits == (3 + 2) * n
    # the products {0, 2}, {0, 1} and the 4 subsets of {1, 2, 3}
    assert meter.offline_bits == 6 * n
    assert meter.rounds == 1


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_and_bits_any_monomials(data):
    """Random owners, monomials (rows may repeat) and layouts: each output is
    the AND of its rows, each party sends its shared and owned rows once,
    and one product is dealt per distinct subset of two or more rows."""
    rows = data.draw(st.integers(1, 6))
    owners = tuple(data.draw(st.lists(st.sampled_from([None, 0, 1]),
                                      min_size=rows, max_size=rows)))
    monomials = data.draw(st.lists(
        st.lists(st.integers(0, rows - 1), min_size=1, max_size=4),
        min_size=1, max_size=5))
    whole, tail = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 9))
    n = 64 * whole + tail
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
    x, mask = _rows(rng, rows, whole, tail)[0], _rows(rng, rows, whole, tail)[0]
    # each party passes the rows it holds, in row order: its own in the
    # clear and its share of each shared row
    shared = np.array([o is None for o in owners])[:, None]
    views = [np.where(shared, share, x)[[o != 1 - p for o in owners]]
             for p, share in enumerate((mask, x ^ mask))]
    o0, o1, meter = run_two_party(
        lambda ctx, v: and_bits(ctx, v, whole, monomials, owners),
        (views[0],), (views[1],))
    want = [np.bitwise_and.reduce(x[sorted(set(m))], axis=0) for m in monomials]
    assert np.array_equal(o0 ^ o1, np.array(want))
    assert meter.rounds == (1 if n else 0)  # no elements, no opening
    assert meter.online_bits == sum(1 + (o is None) for o in owners) * n
    subsets = {t for m in monomials for k in range(2, len(set(m)) + 1)
               for t in itertools.combinations(sorted(set(m)), k)}
    assert meter.offline_bits == len(subsets) * n


def test_reveal(rng):
    x, (x0, x1) = _shared(rng, (7,))
    o0, o1, _ = run_two_party(reveal, (x0,), (x1,))
    assert np.array_equal(o0, x)
    assert np.array_equal(o1, x)


def test_op_message_masking_uniform(rng):
    """Party 1's wire message X - U is uniform: chi-squared on the low byte."""
    from vsmm.dealer import Dealer
    dealer = Dealer.from_seed(3)
    x = np.zeros((1, 64), dtype=np.uint64)  # degenerate input
    samples = []
    for ctr in range(256):
        _, v1, _ = dealer.gen_op_rand(ctr, 64, 1)
        samples.append((x - v1.U) & np.uint64(0xFF))
    vals = np.concatenate(samples).ravel()
    counts = np.bincount(vals.astype(np.int64), minlength=256)
    expected = vals.size / 256
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < 400  # 99.99% quantile of chi2(255) ~ 350; generous margin
