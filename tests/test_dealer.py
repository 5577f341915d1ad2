import struct

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from vsmm.decompose import invert
from vsmm.dealer import Dealer, PrfStream
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
    for words, bits in ((0, 1), (1, 0), (2, 13), (3, 130)):
        s = PrfStream(key, tag, ctr)
        want = np.concatenate([s.u64((words,)), s.bits(bits)])
        got = PrfStream(key, tag, ctr).gate_bits(words, bits)
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


def test_op_rand_correlation(dealer):
    v0, v1, offline = dealer.gen_op_rand(0, 8, 3)
    assert offline == 8 * 64 * 3
    for c in range(3):
        piU = reconstruct(v0.piU[:, c], v1.piU[:, c])
        assert sorted(v0.pinv[c].tolist()) == list(range(8))
        assert np.array_equal(piU, v1.U[invert(v0.pinv[c]), c])


def test_osm_rand_correlation(dealer):
    v0, v1, offline = dealer.gen_osm_rand(0, 100)
    assert offline == 100 * 64
    u = reconstruct(v0.u, v1.u)
    bu = reconstruct(v0.bu, v1.bu)
    assert np.array_equal(bu, v0.b * u)


def test_privmul_correlation(dealer):
    v0, v1, _ = dealer.gen_privmul(0, (5, 4))
    u = reconstruct(v0.u, v1.u)
    au = reconstruct(v0.au, v1.au)
    assert np.array_equal(au, v0.a * u)


def test_beaver_matmul_correlation(dealer):
    v0, v1, offline = dealer.gen_beaver(0, (3, 4), (4, 2), matmul=True)
    assert offline == 3 * 2 * 64
    a = reconstruct(v0.a, v1.a)
    b = reconstruct(v0.b, v1.b)
    c = reconstruct(v0.c, v1.c)
    assert np.array_equal(c, np.matmul(a, b, dtype=np.uint64))


def test_beaver_shape_validation(dealer):
    with pytest.raises(ValueError):
        dealer.gen_beaver(0, (3, 4), (5, 2), matmul=True)
    with pytest.raises(ValueError):
        dealer.gen_beaver(0, (3,), (4,))


def test_square_correlation(dealer):
    v0, v1, _ = dealer.gen_square(0, (10,))
    a = reconstruct(v0.a, v1.a)
    c = reconstruct(v0.c, v1.c)
    assert np.array_equal(c, a * a)


def test_bit_triples(dealer):
    for words, bits in ((4, 0), (0, 100), (3, 37)):
        v0, v1, offline = dealer.gen_bit_triples(0, words, bits)
        assert offline == 64 * words + bits
        assert np.array_equal((v0.a ^ v1.a) & (v0.b ^ v1.b), v0.c ^ v1.c)
        for v in (v0, v1):  # words, then one 0/1 entry per tail gate
            for t in (v.a, v.b, v.c):
                assert t.dtype == np.uint64 and t.shape == (words + bits,)
                assert set(np.unique(t[words:])) <= {0, 1}


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
