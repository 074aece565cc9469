import numpy as np
import pytest

from stscq.errors import (
    BadMagic,
    DimensionTooLarge,
    EmptyCorpus,
    HeaderMismatch,
    NonDivisibleImage,
    ShapeMismatch,
    Truncated,
)
from stscq.latent import (
    ImageBuffer,
    PcaTransform,
    decode,
    encode,
    fit_pca,
    image_patches,
    load_pca,
    read_pnm,
    save_pca,
    token_count,
    write_pnm,
)


def random_images(rng, n, size=32, channels=1, lo=0.2, hi=0.8):
    return [
        ImageBuffer.from_array(rng.uniform(lo, hi, size=(size, size, channels)))
        for _ in range(n)
    ]


def test_constant_corpus_gives_zero_tokens():
    img = ImageBuffer.from_array(np.full((16, 16), 0.5))
    t = fit_pca([img] * 4, patch_size=4, d=3)
    assert np.allclose(t.mean, 0.5)
    tokens = encode(img, t)
    assert np.allclose(tokens.values, 0.0, atol=1e-9)


def test_token_count_arithmetic():
    assert token_count(256, 256, 16) == 256
    img = ImageBuffer.from_array(np.random.default_rng(0).uniform(0, 1, (256, 256)))
    t = fit_pca([img], patch_size=16, d=16)
    tokens = encode(img, t)
    assert tokens.T == 256
    assert tokens.d == 16


def test_rank_two_corpus_is_lossless_with_d2():
    rng = np.random.default_rng(1)
    p = 4 * 4
    b1 = rng.uniform(-1, 1, p)
    b1 /= np.linalg.norm(b1)
    b2 = rng.uniform(-1, 1, p)
    b2 -= b2 @ b1 * b1
    b2 /= np.linalg.norm(b2)
    corpus = []
    for _ in range(6):
        coeffs = rng.uniform(-0.1, 0.1, size=(16, 2))
        patches = 0.5 + coeffs[:, :1] * b1 + coeffs[:, 1:] * b2
        arr = patches.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)
        corpus.append(ImageBuffer.from_array(arr))
    t = fit_pca(corpus, patch_size=4, d=2)
    for img in corpus:
        recon = decode(encode(img, t), t, 16, 16)
        assert np.abs(recon.data - img.data).max() <= 1e-6


def test_fit_pca_errors():
    with pytest.raises(EmptyCorpus):
        fit_pca([], patch_size=4, d=2)
    img = ImageBuffer.from_array(np.zeros((8, 8)))
    with pytest.raises(DimensionTooLarge):
        fit_pca([img], patch_size=4, d=20)
    odd = ImageBuffer.from_array(np.zeros((9, 8)))
    with pytest.raises(NonDivisibleImage):
        fit_pca([odd], patch_size=4, d=2)


def test_basis_rows_orthonormal():
    rng = np.random.default_rng(2)
    t = fit_pca(random_images(rng, 5), patch_size=8, d=10)
    gram = t.basis @ t.basis.T
    assert np.allclose(gram, np.eye(10), atol=1e-6)


def test_encode_matches_independent_projection():
    rng = np.random.default_rng(3)
    corpus = random_images(rng, 4, size=16)
    t = fit_pca(corpus, patch_size=4, d=5)
    img = corpus[0]
    tokens = encode(img, t)
    patches = image_patches(img, 4)
    # independent route: least-squares coefficients onto the basis rows
    for i, patch in enumerate(patches):
        coeffs, *_ = np.linalg.lstsq(t.basis.T, patch - t.mean, rcond=None)
        assert np.allclose(tokens.values[i], coeffs, atol=1e-8)


def test_decode_zero_tokens_is_tiled_mean():
    rng = np.random.default_rng(4)
    t = fit_pca(random_images(rng, 3, size=16), patch_size=4, d=3)
    img = decode(np.zeros((16, 3)), t, 16, 16)
    expect = np.clip(t.mean.reshape(4, 4), 0, 1)
    for gy in range(4):
        for gx in range(4):
            patch = img.data[gy * 4 : gy * 4 + 4, gx * 4 : gx * 4 + 4, 0]
            assert np.allclose(patch, expect)


def test_full_rank_round_trip():
    rng = np.random.default_rng(5)
    corpus = random_images(rng, 4, size=8)
    t = fit_pca(corpus, patch_size=4, d=16)
    for img in corpus:
        recon = decode(encode(img, t), t, 8, 8)
        assert np.abs(recon.data - img.data).max() <= 1e-6


def test_encode_decode_is_projection():
    rng = np.random.default_rng(6)
    corpus = random_images(rng, 5, size=16)
    t = fit_pca(corpus, patch_size=4, d=6)
    img = corpus[2]
    once = encode(img, t)
    again = encode(decode(once, t, 16, 16), t)
    assert np.allclose(once.values, again.values, atol=1e-6)


def test_reconstruction_error_non_increasing_in_d():
    rng = np.random.default_rng(7)
    corpus = random_images(rng, 6, size=16)
    prev = np.inf
    for d in (1, 2, 4, 8, 16):
        t = fit_pca(corpus, patch_size=4, d=d)
        err = 0.0
        for img in corpus:
            recon = decode(encode(img, t), t, 16, 16)
            err += float(((recon.data - img.data) ** 2).sum())
        assert err <= prev + 1e-9
        prev = err


def test_decode_shape_mismatch():
    rng = np.random.default_rng(8)
    t = fit_pca(random_images(rng, 2, size=16), patch_size=4, d=3)
    with pytest.raises(ShapeMismatch):
        decode(np.zeros((5, 3)), t, 16, 16)


def test_pnm_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    for channels in (1, 3):
        img = ImageBuffer.from_array(rng.uniform(0, 1, (8, 12, channels)))
        path = tmp_path / f"img{channels}.pnm"
        write_pnm(img, path)
        back = read_pnm(path)
        assert (back.width, back.height, back.channels) == (12, 8, channels)
        # 8-bit quantization bound
        assert np.abs(back.data - img.data).max() <= 0.5 / 255 + 1e-9


def test_read_pnm_skips_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # a comment\n#another\n 2\t1 255\n\x00\xff")
    img = read_pnm(path)
    assert (img.width, img.height, img.channels) == (2, 1, 1)
    assert img.data.ravel().tolist() == [0.0, 1.0]


@pytest.mark.parametrize(
    "raw, error",
    [
        (b"", Truncated),
        (b"P5\n4 4\n", HeaderMismatch),
        (b"P5\nab 4\n255\n", HeaderMismatch),
        (b"P5\n4 4\n255\n" + bytes(15), Truncated),
        (b"P5\n4 4\n65535\n" + bytes(32), HeaderMismatch),
        (b"P3\n1 1\n255\n\x00", BadMagic),
    ],
    ids=["empty", "no-maxval", "non-numeric", "short-pixels", "maxval", "magic"],
)
def test_read_pnm_rejects_malformed_file(tmp_path, raw, error):
    path = tmp_path / "bad.pgm"
    path.write_bytes(raw)
    with pytest.raises(error):
        read_pnm(path)


def test_pca_file_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    t = fit_pca(random_images(rng, 3, size=16), patch_size=4, d=5)
    path = tmp_path / "t.pca"
    save_pca(t, path)
    back = load_pca(path)
    assert back.patch_size == 4 and back.d == 5 and back.decoder is None
    assert np.array_equal(back.mean, t.mean)
    assert np.array_equal(back.basis, t.basis)

    t.decoder = rng.standard_normal(t.basis.shape)
    t.decoder_mean = rng.standard_normal(t.mean.shape)
    save_pca(t, path)
    back = load_pca(path)
    assert np.array_equal(back.decoder, t.decoder)
    assert np.array_equal(back.decoder_mean, t.decoder_mean)


def test_decode_clamps_to_unit_range():
    t = PcaTransform(
        patch_size=2,
        channels=1,
        mean=np.full(4, 0.5),
        basis=np.eye(4)[:2],
    )
    img = decode(np.array([[10.0, -10.0]]), t, 2, 2)
    assert img.data.max() <= 1.0
    assert img.data.min() >= 0.0
