import hashlib
import struct

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st

from vsmm.decompose import invert
from vsmm.dealer import Dealer, MaskRef, PrfStream
from vsmm.ring import reconstruct


@pytest.fixture
def dealer():
    return Dealer.from_seed(7)


def test_prf_deterministic():
    key = bytes(range(16))
    a = PrfStream(key, b"OPRM", 3).bytes(64)
    b = PrfStream(key, b"OPRM", 3).bytes(64)
    assert a == b
    assert PrfStream(key, b"OPRM", 4).bytes(64) != a
    assert PrfStream(key, b"OSMR", 3).bytes(64) != a


def test_prf_words_are_the_keystream():
    key, tag, ctr = bytes(range(16)), b"OPRM", 5
    nonce = tag + struct.pack("<Q", ctr) + bytes(4)
    enc = Cipher(algorithms.AES(key), modes.CTR(nonce)).encryptor()
    keystream = np.frombuffer(enc.update(bytes(8 * 8)), "<u8")
    s = PrfStream(key, tag, ctr)
    first, second = s.u64(3), s.u64((5,))
    assert np.array_equal(np.concatenate([first, second]), keystream)
    assert np.array_equal(PrfStream(key, tag, ctr).u64((2, 4)).ravel(), keystream)
    assert first.flags.writeable
    first += np.uint64(1)  # the caller owns the words
    for rows, words, bits in ((1, 0, 1), (1, 1, 0), (2, 2, 13), (3, 3, 130)):
        s = PrfStream(key, tag, ctr)
        want = np.concatenate([s.u64((rows, words)),
                               s.bits(rows * bits).reshape(rows, bits)], axis=1)
        got = PrfStream(key, tag, ctr).gate_rows(rows, words, bits)
        assert got.dtype == np.uint64 and np.array_equal(got, want)


def test_prf_key_length():
    with pytest.raises(ValueError):
        PrfStream(b"short", b"OPRM", 0)


def test_prf_permutation_uniform_small():
    # chi-squared over S_3 with 6000 draws; 99.9% quantile of chi2(5) ~ 20.5
    key = bytes(16)
    counts = {}
    for ctr in range(6000):
        p = tuple(PrfStream(key, b"TEST", ctr).permutation(3))
        counts[p] = counts.get(p, 0) + 1
    assert len(counts) == 6
    expected = 1000.0
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 20.5


def test_prf_permutation_uniform_pairs():
    # chi-squared over the ordered pair (p[0], p[7]) at k = 8: 56 cells,
    # 5,600 draws; 99.9% quantile of chi2(55) ~ 93.2
    key = bytes(16)
    counts = np.zeros((8, 8))
    for ctr in range(5600):
        p = PrfStream(key, b"TEST", ctr).permutation(8)
        assert sorted(p.tolist()) == list(range(8))
        counts[p[0], p[7]] += 1
    assert np.trace(counts) == 0
    expected = 5600 / 56
    cells = counts[~np.eye(8, dtype=bool)]
    assert ((cells - expected) ** 2 / expected).sum() < 93.2


def test_prf_permutation_redraws_on_tie(monkeypatch):
    batches = iter([np.array([5, 9, 5, 1], np.uint64),
                    np.array([7, 3, 8, 2], np.uint64)])
    monkeypatch.setattr(PrfStream, "u64", lambda self, shape: next(batches))
    p = PrfStream(bytes(16), b"TEST", 0).permutation(4)
    assert p.tolist() == [3, 1, 0, 2]  # argsort of the second batch
    assert next(batches, None) is None


@pytest.mark.parametrize("k", [1, 2, 3, 8, 4_932, 8_192, 8_193, 12_450])
def test_prf_permutation_is_the_argsort_of_its_words(k):
    """The packed-key sort returns exactly the argsort of the stream's k
    words, at degrees around powers of two and at workload sizes."""
    key = bytes(range(16))
    for ctr in range(20):
        words = PrfStream(key, b"OPRM", ctr).u64((k,))
        p = PrfStream(key, b"OPRM", ctr).permutation(k)
        assert p.dtype == np.int64
        assert np.array_equal(p, np.argsort(words, kind="stable"))


@pytest.mark.parametrize("k", [4, 12_450])
def test_prf_permutation_orders_words_sharing_high_bits(monkeypatch, k):
    """Distinct words that agree above their low ceil(log2 k) bits, the
    later one smaller, pack to keys in index order; the sampler must still
    return the words' argsort, from this one batch."""
    b = (k - 1).bit_length()
    words = np.random.default_rng(k).integers(0, 2**64, k, dtype=np.uint64)
    high = words[0] >> np.uint64(b) << np.uint64(b)
    words[0], words[k - 1] = high | np.uint64(1), high  # same high bits
    batches = iter([words])
    monkeypatch.setattr(PrfStream, "u64", lambda self, shape: next(batches))
    p = PrfStream(bytes(16), b"TEST", 0).permutation(k)
    assert np.array_equal(p, np.argsort(words, kind="stable"))
    assert list(p).index(k - 1) < list(p).index(0)
    assert next(batches, None) is None


@pytest.mark.parametrize("k, rows", [(1, 3), (2, 5), (8, 4), (4_932, 3),
                                     (12_450, 2)])
def test_prf_permutation_rows_are_successive_draws(k, rows):
    key = bytes(range(16))
    s = PrfStream(key, b"OPRM", 5)
    want = [s.permutation(k) for _ in range(rows)]
    got = PrfStream(key, b"OPRM", 5).permutation(k, rows=rows)
    assert got.shape == (rows, k) and got.dtype == np.int64
    assert got.flags.c_contiguous and np.array_equal(got, want)


def test_prf_permutation_redraws_only_a_row_with_a_repeated_word(monkeypatch):
    """The row with a repeated word is redrawn from the k words after the
    whole draw; the other rows keep theirs."""
    batches = iter([np.array([[4, 1, 7, 2], [5, 9, 5, 1], [8, 6, 3, 0]],
                             np.uint64), np.array([7, 3, 8, 2], np.uint64)])
    shapes = []

    def u64(self, shape):
        shapes.append(shape)
        return next(batches)

    monkeypatch.setattr(PrfStream, "u64", u64)
    p = PrfStream(bytes(16), b"TEST", 0).permutation(4, rows=3)
    assert p.tolist() == [[1, 3, 0, 2], [3, 1, 0, 2], [3, 2, 1, 0]]
    assert shapes == [(3, 4), (4,)]


def test_op_rand_correlation(dealer):
    v0, v1, offline = dealer.gen_op_rand(0, 8, 3)
    assert offline == 8 * 64 * 3
    for c in range(3):
        piU = reconstruct(v0.piU[c], v1.piU[c])
        assert sorted(v0.pinv[c].tolist()) == list(range(8))
        assert np.array_equal(piU, v1.U[c, invert(v0.pinv[c])])


def test_op_rand_rows_are_column_instances(dealer):
    """pi(U) and U are C-contiguous (d, k) rows, and pi^-1 is the argsort
    stream itself: row c is the c-th permutation drawn."""
    v0, v1, _ = dealer.gen_op_rand(3, 50, 4)
    for a in (v0.piU, v1.piU, v1.U):
        assert a.shape == (4, 50) and a.flags.c_contiguous
    s = PrfStream(dealer.keys[0], b"OPRM", 3)
    assert np.array_equal(v0.pinv, [s.permutation(50) for _ in range(4)])


def test_osm_rand_correlation(dealer):
    v0, v1, offline = dealer.gen_osm_rand(0, 100)
    assert offline == 100 * 64
    u = reconstruct(v0.u, v1.u)
    bu = reconstruct(v0.bu, v1.bu)
    assert np.array_equal(bu, v0.b * u)


def test_privmul_correlation(dealer):
    v0, v1, offline = dealer.gen_privmul(0, (4, 5))
    assert offline == 5 * 4 * 64
    assert v0.a.shape == (5,) and v1.a is None  # one mask per row entry
    u = reconstruct(v0.u, v1.u)
    au = reconstruct(v0.au, v1.au)
    assert np.array_equal(au, v0.a * u)


def _opened(dealer, ctr, shape):
    """A MaskRef to the gen_mask tuple at `ctr`, and that whole mask."""
    m0, m1, _ = dealer.gen_mask(ctr, shape)
    return MaskRef(ctr, shape), reconstruct(m0, m1)


def test_beaver_matmul_correlation(dealer):
    (x, a), (y, b) = _opened(dealer, 0, (3, 4)), _opened(dealer, 1, (4, 2))
    c0, c1, offline = dealer.gen_beaver(2, x, y, matmul=True)
    assert offline == 3 * 2 * 64
    assert np.array_equal(reconstruct(c0, c1), np.matmul(a, b, dtype=np.uint64))
    # each party's mask shares are its own MASK stream at the mask's
    # counter, and party 0's C share is its BEAV stream at the product's
    for ref in (x, y):
        shares = dealer.gen_mask(ref.ctr, ref.shape)[:2]
        for p, share in enumerate(shares):
            s = PrfStream(dealer.keys[p], b"MASK", ref.ctr)
            assert np.array_equal(share, s.u64(ref.shape))
    assert np.array_equal(c0, PrfStream(dealer.keys[0], b"BEAV", 2).u64((3, 2)))


def test_beaver_elementwise_broadcasts(dealer):
    (x, a), (y, b) = _opened(dealer, 0, (5, 3)), _opened(dealer, 1, (5, 1))
    c0, c1, offline = dealer.gen_beaver(2, x, y)
    assert offline == 5 * 3 * 64 and c0.shape == c1.shape == (5, 3)
    assert np.array_equal(reconstruct(c0, c1), a * b)


def test_beaver_shape_validation(dealer):
    with pytest.raises(ValueError):
        dealer.gen_beaver(2, MaskRef(0, (3, 4)), MaskRef(1, (5, 2)), True)
    with pytest.raises(ValueError):
        dealer.gen_beaver(2, MaskRef(0, (3,)), MaskRef(1, (4,)))
    with pytest.raises(ValueError):  # a (3, 4) mask read transposed is (4, 3)
        dealer.gen_beaver(2, MaskRef(0, (3, 4), True), MaskRef(1, (3, 2)))


def test_mask_refs_reuse_the_dealt_mask(dealer):
    m0, m1, offline = dealer.gen_mask(3, (4, 6))
    assert offline == 0  # each party expands its share from its own key
    assert np.array_equal(m0, PrfStream(dealer.keys[0], b"MASK", 3).u64((4, 6)))
    a = reconstruct(m0, m1)
    _, b = _opened(dealer, 5, (6, 2))
    _, d = _opened(dealer, 7, (4, 7))
    products = [  # (request, op(A) op(B) it must deal C for)
        ((MaskRef(3, (4, 6)), MaskRef(5, (6, 2)), True), a @ b),
        ((MaskRef(5, (6, 2), True), MaskRef(3, (4, 6), True), True), b.T @ a.T),
        ((MaskRef(3, (4, 6)), MaskRef(3, (4, 6))), a * a),
        ((MaskRef(3, (4, 6), True), MaskRef(7, (4, 7)), True), a.T @ d),
    ]
    for ctr, (args, want) in enumerate(products, start=10):
        v0, v1, offline = dealer.gen_beaver(ctr, *args)
        # the views are C's shares alone: the masks are not re-dealt
        assert v0.shape == v1.shape == want.shape
        assert np.array_equal(reconstruct(v0, v1), want)
        assert offline == want.size * 64
    # two products of the same masks get independent C shares
    again, _, _ = dealer.gen_beaver(21, MaskRef(3, (4, 6)), MaskRef(5, (6, 2)), True)
    assert not np.array_equal(again, dealer.gen_beaver(
        10, MaskRef(3, (4, 6)), MaskRef(5, (6, 2)), True)[0])
    s0, s1, offline = dealer.gen_square(22, MaskRef(3, (4, 6), True))
    assert s0.shape == s1.shape == (6, 4) and offline == 24 * 64
    assert np.array_equal(reconstruct(s0, s1), a.T * a.T)


def test_square_correlation(dealer):
    x, a = _opened(dealer, 0, (10,))
    c0, c1, offline = dealer.gen_square(1, x)
    assert offline == 10 * 64
    assert np.array_equal(reconstruct(c0, c1), a * a)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_bit_triples(data):
    """Random owners (None, 0 or 1 per row) and products of 2-4 rows: each
    view holds the masks of exactly its own and the shared rows, in order,
    and each product's shares XOR to the AND of the rows' masks."""
    rows = data.draw(st.integers(2, 7))
    owners = tuple(data.draw(st.lists(st.sampled_from([None, 0, 1]),
                                      min_size=rows, max_size=rows)))
    products = tuple(tuple(sorted(t)) for t in data.draw(st.lists(
        st.sets(st.integers(0, rows - 1), min_size=2, max_size=4),
        min_size=1, max_size=6)))
    words, bits = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 70))
    dealer = Dealer.from_seed(data.draw(st.integers(0, 2 ** 32)))
    v0, v1, offline = dealer.gen_bit_triples(data.draw(st.integers(0, 99)),
                                             words, bits, owners, products)
    assert offline == len(products) * (64 * words + bits)
    m = np.zeros((rows, words + bits), dtype=np.uint64)
    for party, v in enumerate((v0, v1)):
        held = [i for i, o in enumerate(owners) if o in (None, party)]
        for t, n in ((v.masks, len(held)), (v.products, len(products))):
            assert t.dtype == np.uint64 and t.shape == (n, words + bits)
            assert set(np.unique(t[:, words:])) <= {0, 1}  # one bit a gate
        m[held] ^= v.masks  # a shared row's mask is the XOR of the shares
    for t, p0, p1 in zip(products, v0.products, v1.products):
        assert np.array_equal(np.bitwise_and.reduce(m[list(t)], axis=0),
                              p0 ^ p1)


@pytest.mark.parametrize("masked", [False, True])
def test_dabits_correlation(dealer, masked):
    v0, v1, offline = dealer.gen_dabits(3, (40, 7), masked)
    assert offline == 40 * 7 * 64 * (2 if masked else 1)
    r = v0.r ^ v1.r
    assert set(np.unique(r).tolist()) == {0, 1}
    assert np.array_equal(r, reconstruct(v0.R, v1.R))
    if masked:
        u = reconstruct(v0.u, v1.u)
        assert np.array_equal(reconstruct(v0.ru, v1.ru), r * u)
    else:
        assert v0.u is v0.ru is v1.u is v1.ru is None
    again = Dealer(*dealer.keys).gen_dabits(3, (40, 7), masked)
    for view, copy in zip((v0, v1), again):
        for name in ("r", "R", "u", "ru"):
            a, b = getattr(view, name), getattr(copy, name)
            assert (a is b is None) or np.array_equal(a, b)
    other, _, _ = dealer.gen_dabits(4, (40, 7), masked)
    assert not np.array_equal(other.R, v0.R)


def test_determinism_same_keys():
    d1 = Dealer.from_seed(42)
    d2 = Dealer.from_seed(42)
    a0, _, _ = d1.gen_op_rand(5, 16, 2)
    b0, _, _ = d2.gen_op_rand(5, 16, 2)
    assert np.array_equal(a0.pinv, b0.pinv)
    assert np.array_equal(a0.piU, b0.piU)


# sha256 of gen_bit_triples' views for msb's round-1 plan (94 owned rows a
# party, 154 mask products) at seed 7, counter 5, 3 words and 37 tail bits
_MSB_ROUND1_SHA256 = (
    "eb3b639e9a4738b0adf764f3d405ec8721c8b76150731edb9f731bc362021d63")


def test_bit_triples_msb_round1_digest(dealer):
    from vsmm.binary import _chunk_monomials
    from vsmm.protocols import _and_plan
    plan = _and_plan(188, _chunk_monomials(64, False), (0,) * 94 + (1,) * 94)
    v0, v1, offline = dealer.gen_bit_triples(5, 3, 37, plan.owners,
                                             plan.products)
    assert offline == 154 * (64 * 3 + 37)
    digest = hashlib.sha256()
    for t in (v0.masks, v0.products, v1.masks, v1.products):
        digest.update(np.ascontiguousarray(t, dtype="<u8").tobytes())
    assert digest.hexdigest() == _MSB_ROUND1_SHA256
