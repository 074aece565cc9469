import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import stscq
from stscq.errors import (
    BadMagic,
    BadSpec,
    DimensionTooLarge,
    EmptyCorpus,
    HeaderMismatch,
    LengthMismatch,
    NonDivisibleImage,
    RangeViolation,
    ShapeMismatch,
    StscqError,
    Truncated,
)
from stscq.latent import (
    ImageBuffer,
    PcaTransform,
    TokenMatrix,
    decode,
    encode,
    encode_corpus,
    fit_pca,
    image_patches,
    load_pca,
    read_pnm,
    save_pca,
    token_count,
    write_pnm,
)
from stscq.synth import ImageCorpusSpec, make_image_corpus


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
    # d=0 gave a (0, p) basis that save_pca wrote and load_pca refused; d=-1 an IndexError
    for d in (0, -1):
        with pytest.raises(BadSpec):
            fit_pca([img], patch_size=4, d=d)
    odd = ImageBuffer.from_array(np.zeros((9, 8)))
    with pytest.raises(NonDivisibleImage):
        fit_pca([odd], patch_size=4, d=2)


def test_basis_rows_orthonormal():
    rng = np.random.default_rng(2)
    t = fit_pca(random_images(rng, 5), patch_size=8, d=10)
    gram = t.basis @ t.basis.T
    assert np.allclose(gram, np.eye(10), atol=1e-6)


def svd_reference(corpus, patch_size, d):
    """The top-d right singular vectors of the centered patch matrix by
    `np.linalg.svd`, signed by fit_pca's rule, its singular values, and the
    centered patches."""
    centered = np.concatenate([image_patches(img, patch_size) for img in corpus])
    centered -= centered.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    basis = vt[:d] * np.sign(vt[np.arange(d), np.abs(vt[:d]).argmax(axis=1)])[:, None]
    return basis, s, centered


def images_of_patches(patches, ps, side):
    """Images of side×side patches of ps×ps pixels, filled in raster order."""
    blocks = patches.reshape(-1, side, side, ps, ps).transpose(0, 1, 3, 2, 4)
    return [ImageBuffer.from_array(b.reshape(side * ps, side * ps)) for b in blocks]


def test_basis_matches_the_svd_on_a_corpus_with_a_clear_eigengap():
    # variances a factor of four apart along 16 orthonormal directions
    rng = np.random.default_rng(15)
    directions = np.linalg.qr(rng.standard_normal((16, 16)))[0].T
    coeffs = rng.standard_normal((6 * 16, 16)) * 0.5 ** np.arange(16)
    corpus = images_of_patches(0.5 + 0.1 * coeffs @ directions, 4, 4)
    t = fit_pca(corpus, patch_size=4, d=4)
    basis, s, centered = svd_reference(corpus, 4, 4)
    assert np.abs(t.basis - basis).max() <= 1e-10
    retained = np.sum((centered @ t.basis.T) ** 2)
    assert abs(retained - np.sum(s[:4] ** 2)) <= 1e-12 * np.sum(s[:4] ** 2)


def test_basis_spans_the_svd_subspace_on_a_corpus_with_a_small_eigengap():
    """perfbench's train-accept corpus: its 8th and 9th eigenvalues are 1.9%
    apart, so single basis rows may turn a little within their near-degenerate
    pair while the 8-dimensional subspace stays put."""
    spec = ImageCorpusSpec(clusters=8, width=32, height=32, channels=1, patch_size=8,
                           samples=512, sigma=0.05, seed=7)
    corpus = make_image_corpus(spec)[0]
    t = fit_pca(corpus, patch_size=8, d=8)
    basis, s, centered = svd_reference(corpus, 8, 8)
    assert s[7] ** 2 / s[8] ** 2 < 1.02
    # the sine of the largest principal angle between the two subspaces
    assert np.linalg.norm(t.basis.T - basis.T @ (basis @ t.basis.T), 2) <= 1e-9
    retained = np.sum((centered @ t.basis.T) ** 2)
    assert abs(retained - np.sum(s[:8] ** 2)) <= 1e-12 * np.sum(s[:8] ** 2)


@pytest.mark.parametrize("kind", ["constant", "rank-two"])
def test_degenerate_corpora_give_orthonormal_rows_without_the_seed(kind):
    rng = np.random.default_rng(16)
    if kind == "constant":
        patches = np.full((32, 16), 0.5)
    else:
        patches = 0.5 + rng.uniform(-0.1, 0.1, (32, 2)) @ rng.standard_normal((2, 16))
    corpus = images_of_patches(patches, 4, 4)
    t = fit_pca(corpus, patch_size=4, d=5)
    assert t.basis.shape == (5, 16)
    assert np.abs(t.basis @ t.basis.T - np.eye(5)).max() <= 1e-12
    assert np.array_equal(fit_pca(corpus, patch_size=4, d=5, seed=3).basis, t.basis)


def test_fit_pca_allocates_little_beyond_one_patch_matrix():
    """The patch matrix, one image's patches and the (p, p) scatter matrix:
    a concatenate of every image's patches peaked at 2.0 times the patch
    matrix's bytes, and an SVD of the centered patches at 3.0 times."""
    rng = np.random.default_rng(17)
    corpus = random_images(rng, 16, size=256)
    patch_bytes = 16 * 256 * 256 * 8
    assert _traced_peak(fit_pca, corpus, 16, 8) < 1.5 * patch_bytes


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


# loads a .pca and an image and prints the SHA-256 of their tokens' bytes
ENCODE_DIGEST = """
import hashlib, sys
from stscq.latent import encode, load_pca, read_pnm
tokens = encode(read_pnm(sys.argv[1]), load_pca(sys.argv[2])).values
print(hashlib.sha256(tokens.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("coretype", ["Prescott", "SandyBridge"])
def test_tokens_are_the_same_bits_under_another_blas_kernel(tmp_path, coretype):
    """The projection sums each token's products in one order of its own,
    not in the order of whichever BLAS kernel the CPU selects. At this shape
    (256 patches of 256 values onto 8 directions) a BLAS matmul gave other
    bits under OpenBLAS's Prescott and SandyBridge kernels."""
    rng = np.random.default_rng(24)
    basis = np.linalg.qr(rng.standard_normal((256, 8)))[0].T
    save_pca(PcaTransform(16, 1, rng.uniform(0.2, 0.8, 256), basis), tmp_path / "t.pca")
    write_pnm(ImageBuffer.from_array(rng.uniform(0, 1, (256, 256))), tmp_path / "img.pgm")
    args = [str(tmp_path / "img.pgm"), str(tmp_path / "t.pca")]
    tokens = encode(read_pnm(args[0]), load_pca(args[1])).values
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(stscq.__file__).parents[1]), env.get("PYTHONPATH", "")])
    run = subprocess.run([sys.executable, "-c", ENCODE_DIGEST, *args], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == hashlib.sha256(tokens.tobytes()).hexdigest()


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
        (b"P5\n4 2\n255\n" + bytes(16), LengthMismatch),  # a 4x2 image and 8 bytes more
    ],
    ids=["empty", "no-maxval", "non-numeric", "short-pixels", "maxval", "magic", "trailing-bytes"],
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


@pytest.mark.parametrize("channels", [0, 2, 4])
def test_save_pca_refuses_channels_other_than_1_or_3(tmp_path, channels):
    p = 4 * channels
    path = tmp_path / "t.pca"
    with pytest.raises(StscqError):
        save_pca(PcaTransform(2, channels, np.zeros(p), np.zeros((2, p))), path)
    assert not path.exists()


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


def reference_decode(values, t, width, height):
    """decode's arithmetic with a fresh array for every step, as it was before
    it worked in one image-sized buffer."""
    ps, c = t.patch_size, t.channels
    dec, dec_mean = t.decode_map()
    patches = values @ dec + dec_mean
    arr = patches.reshape(height // ps, width // ps, ps, ps, c)
    return np.clip(arr.transpose(0, 2, 1, 3, 4).reshape(height, width, c), 0.0, 1.0)


def reference_pixels(data):
    return np.clip(np.rint(data * 255.0), 0, 255).astype(np.uint8).tobytes()


# (patch size, channels, patch columns, patch rows): with 64 KB bands the first
# three take 3, 2 and 3 bands with a short last one, the fourth has one patch
# row of 72 KB, over the band size, and the last two fit one band
DECODE_GEOMETRIES = [(1, 1, 100, 200), (4, 3, 48, 5), (16, 3, 4, 5), (16, 3, 12, 2), (2, 1, 3, 7), (4, 3, 5, 2)]


@pytest.mark.parametrize("ps, c, gw, gh", DECODE_GEOMETRIES)
@pytest.mark.parametrize("refit", [False, True], ids=["basis", "decoder"])
def test_decode_and_pnm_bytes_match_the_fresh_array_formulas(tmp_path, ps, c, gw, gh, refit):
    rng = np.random.default_rng(ps * 100 + gw)
    p = ps * ps * c
    d = min(p, 8)
    t = PcaTransform(ps, c, rng.uniform(0, 1, p), rng.standard_normal((d, p)) / 2)
    if refit:
        t.decoder, t.decoder_mean = rng.standard_normal((d, p)), rng.uniform(-0.5, 1.5, p)
    values = rng.standard_normal((gh * gw, d))
    width, height = gw * ps, gh * ps
    img = decode(values, t, width, height)
    expect = reference_decode(values, t, width, height)
    assert (expect == 0).any() and (expect == 1).any()  # both clamps are exercised
    assert img.data.tobytes() == expect.tobytes()
    write_pnm(img, tmp_path / "d.pnm")
    header = b"P%d\n%d %d\n255\n" % (5 if c == 1 else 6, width, height)
    assert (tmp_path / "d.pnm").read_bytes() == header + reference_pixels(expect)


@pytest.mark.parametrize("c", [1, 3])
def test_pnm_bytes_match_the_fresh_array_formula_at_ties_and_out_of_range(tmp_path, c):
    rng = np.random.default_rng(11)
    k = rng.integers(-3, 259, size=(300, 70, c))
    # k + 0.5 over 255 is a rounding tie when multiplied back, for most k
    data = np.where(rng.random(k.shape) < 0.5, (k + 0.5) / 255.0, rng.uniform(-0.5, 1.5, k.shape))
    assert ((data * 255.0) % 1 == 0.5).sum() > 1000
    write_pnm(ImageBuffer.from_array(data), tmp_path / "t.pnm")
    raw = (tmp_path / "t.pnm").read_bytes()
    assert raw[-data.size :] == reference_pixels(data)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decode_allocates_one_image_and_pnm_write_under_half_of_one(tmp_path):
    """Image-sized temporaries are handed back to the OS when freed, so the next
    image faults them in again; decode's only one is the image it returns."""
    rng = np.random.default_rng(12)
    t = PcaTransform(16, 1, rng.uniform(0, 1, 256), np.linalg.qr(rng.standard_normal((256, 8)))[0].T)
    values = rng.standard_normal((256, 8))
    image_bytes = 256 * 256 * 8
    assert _traced_peak(decode, values, t, 256, 256) <= 1.5 * image_bytes
    img = decode(values, t, 256, 256)
    assert _traced_peak(write_pnm, img, tmp_path / "d.pgm") < 0.5 * image_bytes


def test_decode_of_a_geometry_the_patches_do_not_tile_is_non_divisible():
    rng = np.random.default_rng(13)
    t = PcaTransform(16, 1, np.zeros(256), rng.standard_normal((8, 256)))
    # 250 // 16 = 15 patches a side, so 225 tokens pass a count check alone
    with pytest.raises(NonDivisibleImage):
        decode(np.zeros((225, 8)), t, 250, 250)


def test_malformed_buffers_are_shape_mismatches():
    with pytest.raises(ShapeMismatch):
        ImageBuffer(2, 2, 2, np.zeros((2, 2, 2)))
    with pytest.raises(ShapeMismatch):
        TokenMatrix(np.zeros(4))


@pytest.mark.parametrize("array", [0, 1, 2, 3], ids=["mean", "basis", "decoder", "decoder_mean"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_pca_rejects_non_finite_arrays(tmp_path, array, bad):
    rng = np.random.default_rng(14)
    t = PcaTransform(2, 1, rng.uniform(0, 1, 4), rng.standard_normal((2, 4)),
                     rng.standard_normal((2, 4)), rng.uniform(0, 1, 4))
    [t.mean, t.basis, t.decoder, t.decoder_mean][array].flat[1] = bad
    save_pca(t, tmp_path / "t.pca")
    with pytest.raises(RangeViolation):
        load_pca(tmp_path / "t.pca")


def test_write_pnm_refuses_nan_pixels_and_writes_nothing(tmp_path):
    # a NaN was cast to pixel 0x00 with only a RuntimeWarning
    with pytest.raises(RangeViolation, match="NaN"):
        write_pnm(ImageBuffer.from_array(np.array([[np.nan, 0.5]])), tmp_path / "n.pgm")
    assert not (tmp_path / "n.pgm").exists()
    # infinities still clip to the ends of the range
    write_pnm(ImageBuffer.from_array(np.array([[np.inf, -np.inf, 0.5]])), tmp_path / "i.pgm")
    assert (tmp_path / "i.pgm").read_bytes().endswith(b"\xff\x00\x80")


def test_write_pnm_refusing_nan_leaves_an_existing_file_as_it_was(tmp_path):
    path = tmp_path / "n.pgm"
    write_pnm(ImageBuffer.from_array(np.full((4, 6), 0.25)), path)
    before = path.read_bytes()
    with pytest.raises(RangeViolation, match="NaN"):
        write_pnm(ImageBuffer.from_array(np.array([[np.nan, 0.5]])), path)
    assert path.read_bytes() == before


@pytest.mark.parametrize("old", ["longer", "shorter", "same", "symlink"])
def test_write_pnm_over_an_existing_file_gives_the_fresh_bytes_in_place(tmp_path, old):
    """An output file is rewritten in place and cut to length: the bytes of a
    fresh write, on the same inode, with the same permission bits."""
    rng = np.random.default_rng(15)
    img = ImageBuffer.from_array(rng.uniform(0, 1, (8, 12, 3)))
    write_pnm(img, tmp_path / "fresh.ppm")
    fresh = (tmp_path / "fresh.ppm").read_bytes()
    target = tmp_path / "target.ppm"
    target.write_bytes({"longer": b"\x11" * 1000, "shorter": b"P6\n1 1\n255\nabc"}.get(old, bytes(len(fresh))))
    target.chmod(0o600)
    inode = target.stat().st_ino
    path = target
    if old == "symlink":
        path = tmp_path / "link.ppm"
        path.symlink_to(target.name)
    write_pnm(img, path)
    assert target.read_bytes() == fresh
    assert target.stat().st_ino == inode and target.stat().st_mode & 0o777 == 0o600


@pytest.mark.parametrize("size, ps, c, n", [(256, 16, 1, 32), (32, 8, 1, 50), (24, 4, 3, 7)])
def test_encode_corpus_is_per_image_encode_with_one_patch_matrix(size, ps, c, n):
    """The tokens are the bits of encoding image by image, the patches are
    uncentred, and the peak allocation stays near the one (N·T, p) matrix."""
    rng = np.random.default_rng(16)
    images = random_images(rng, n, size=size, channels=c, lo=0.0, hi=1.0)
    t = fit_pca(images, patch_size=ps, d=8)
    tokens, flat = encode_corpus(images, t)
    assert tokens.tobytes() == np.stack([encode(img, t).values for img in images]).tobytes()
    assert flat.tobytes() == np.concatenate([image_patches(img, ps) for img in images]).tobytes()
    if size == 256:  # 16 MB of patches: the block and per-image temporaries are small beside it
        assert _traced_peak(encode_corpus, images, t) <= 1.25 * flat.nbytes


def test_encode_corpus_refuses_images_of_two_sizes():
    rng = np.random.default_rng(17)
    t = fit_pca(random_images(rng, 2, size=16), patch_size=4, d=3)
    with pytest.raises(ShapeMismatch):
        encode_corpus(random_images(rng, 1, size=16) + random_images(rng, 1, size=8), t)
    with pytest.raises(EmptyCorpus):
        encode_corpus([], t)
