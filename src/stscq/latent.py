"""Image <-> token transform: patch extraction plus a frozen PCA projection.

Images are split into non-overlapping patches in raster order; each patch
(channels flattened) is centered and projected onto the top-d principal
directions of a training corpus. The decoder side is a linear map back to
patch space, initialized at the transpose of the projection basis and
optionally refit later (stage 3) while the encoder stays frozen.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import artifact
from .errors import (
    BadMagic,
    DimensionTooLarge,
    EmptyCorpus,
    HeaderMismatch,
    LengthMismatch,
    NonDivisibleImage,
    RangeViolation,
    ShapeMismatch,
    Truncated,
)

PCA_MAGIC = b"STSCQPCA"
# version 1: encoder only (mean + basis); version 2 appends a refit decoder map
PCA_VERSION_ENC = 1
PCA_VERSION_DEC = 2
_PCA_HEADER = "<BHBH"  # version, patch_size, channels, d
# Decode and PNM write work in bands of at most this many bytes of float64
# temporaries (decode's band is one patch row when that is larger), and
# encode_corpus projects blocks of four bands: big ones are handed back to the
# OS when freed and faulted in again on the next image. Bands of one patch row
# each slowed evaluation over many small images. Decode clips its whole product
# once, contiguously, before its bands, so each band is a plain copy into raster
# order.
_BAND_BYTES = 64 * 1024


@dataclass
class ImageBuffer:
    width: int
    height: int
    channels: int
    data: np.ndarray  # (height, width, channels) floats in [0, 1]

    def __post_init__(self):
        if self.channels not in (1, 3):
            raise ShapeMismatch(f"channels must be 1 or 3, not {self.channels}")
        self.data = np.asarray(self.data, dtype=np.float64).reshape(
            self.height, self.width, self.channels
        )

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "ImageBuffer":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        h, w, c = arr.shape
        return cls(width=w, height=h, channels=c, data=arr)


@dataclass
class TokenMatrix:
    values: np.ndarray  # (T, d)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ShapeMismatch(f"token matrix must be 2-D, got shape {self.values.shape}")

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass
class PcaTransform:
    patch_size: int
    channels: int
    mean: np.ndarray  # (p,) with p = patch_size^2 * channels
    basis: np.ndarray  # (d, p), orthonormal rows
    decoder: np.ndarray | None = None  # (d, p) refit reconstruction map
    decoder_mean: np.ndarray | None = None  # (p,)

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.basis = np.asarray(self.basis, dtype=np.float64)

    @property
    def d(self) -> int:
        return self.basis.shape[0]

    @property
    def patch_dim(self) -> int:
        return self.mean.shape[0]

    def decode_map(self) -> tuple[np.ndarray, np.ndarray]:
        if self.decoder is not None:
            return self.decoder, self.decoder_mean
        return self.basis, self.mean


def _check_divisible(width: int, height: int, patch_size: int) -> None:
    if width % patch_size or height % patch_size:
        raise NonDivisibleImage(f"{width}x{height} image not divisible by patch size {patch_size}")


def image_patches(img: ImageBuffer, patch_size: int) -> np.ndarray:
    """(T, p) matrix of flattened patches in raster (row-major) order."""
    _check_divisible(img.width, img.height, patch_size)
    gh = img.height // patch_size
    gw = img.width // patch_size
    patches = img.data.reshape(gh, patch_size, gw, patch_size, img.channels)
    patches = patches.transpose(0, 2, 1, 3, 4)
    return patches.reshape(gh * gw, patch_size * patch_size * img.channels)


def token_count(width: int, height: int, patch_size: int) -> int:
    return (height // patch_size) * (width // patch_size)


def fit_pca(corpus, patch_size: int, d: int, seed: int = 0) -> PcaTransform:
    """Top-d principal directions of centered patches across the corpus.

    The directions are the top eigenvectors of the (p, p) scatter matrix of
    the centered patches, which is the right singular basis of the patch
    matrix without forming its n×p left singular vectors. Deterministic given
    corpus order; signs are fixed so the largest-magnitude entry of each
    basis row is positive. The fit draws nothing from `seed`.
    """
    corpus = list(corpus)
    if not corpus:
        raise EmptyCorpus("fit_pca needs at least one image")
    channels = corpus[0].channels
    if any(img.channels != channels for img in corpus):
        raise ShapeMismatch("the images of a corpus must share one channel count")
    p = patch_size * patch_size * channels
    if d > p:
        raise DimensionTooLarge(f"d={d} exceeds patch dimension {p}")

    patches = _patch_matrix(corpus, patch_size)
    if len(patches) < d:
        raise EmptyCorpus(f"corpus yields {len(patches)} patches, need >= {d}")
    # a NaN or infinite pixel makes its column of the scatter matrix NaN, and
    # pixels too large to square make it infinite; both are refused before eigh
    with np.errstate(all="ignore"):
        mean = patches.mean(axis=0)
        patches -= mean
        scatter = patches.T @ patches
    if not np.isfinite(scatter).all():
        raise RangeViolation("corpus pixels must be finite, and small enough to square")

    # eigh returns all p eigenvectors, in ascending order of eigenvalue
    _, vecs = np.linalg.eigh(scatter)
    basis = vecs[:, ::-1][:, :d].T
    signs = np.sign(basis[np.arange(d), np.abs(basis).argmax(axis=1)])
    signs[signs == 0] = 1.0
    basis = basis * signs[:, None]
    return PcaTransform(patch_size=patch_size, channels=channels, mean=mean, basis=basis)


def encode(img: ImageBuffer, t: PcaTransform) -> TokenMatrix:
    """Project each centered patch onto the basis; one token per patch."""
    return TokenMatrix(_project(image_patches(img, t.patch_size), t))


def encode_corpus(images: list[ImageBuffer], t: PcaTransform) -> tuple[np.ndarray, np.ndarray]:
    """(N, T, d) tokens and the (N·T, p) uncentred patches of N images of one size.

    The projection gives each token the bits encode gives it: the einsum sums
    each token's products in the same order however many rows it projects."""
    images = list(images)
    if not images:
        raise EmptyCorpus("no images to encode")
    if len({(token_count(img.width, img.height, t.patch_size), img.channels) for img in images}) > 1:
        raise ShapeMismatch("the images of a corpus must share one size")
    flat = _patch_matrix(images, t.patch_size)
    # projected in blocks, so the centred copy is one block and not the whole matrix
    tokens = np.empty((len(flat), t.d))
    rows = max(1, 4 * _BAND_BYTES // (8 * t.patch_dim))
    for r0 in range(0, len(flat), rows):
        tokens[r0 : r0 + rows] = _project(flat[r0 : r0 + rows], t)
    return tokens.reshape(len(images), -1, t.d), flat


def _patch_matrix(images, patch_size: int) -> np.ndarray:
    """(n, p) patches of images of one channel count, filled image by image, so
    the corpus's patches are held once and not also as a list of per-image copies."""
    counts = [token_count(img.width, img.height, patch_size) for img in images]
    patches = np.empty((sum(counts), patch_size * patch_size * images[0].channels))
    row = 0
    for img, n in zip(images, counts):
        patches[row : row + n] = image_patches(img, patch_size)
        row += n
    return patches


def _project(patches: np.ndarray, t: PcaTransform) -> np.ndarray:
    if patches.shape[1] != t.patch_dim:
        raise ShapeMismatch(
            f"patch dim {patches.shape[1]} vs transform dim {t.patch_dim}"
        )
    # einsum sums each token's p products in one fixed order, so the tokens are
    # the same bits under every BLAS kernel and for any number of rows; a BLAS
    # matmul here would also keep OpenBLAS's helper thread spinning, holding a
    # CPU through the search
    return np.einsum("tp,dp->td", patches - t.mean, t.basis)


def decode(tokens, t: PcaTransform, width: int, height: int) -> ImageBuffer:
    """Map tokens back to patches and reassemble; output clamped to [0, 1].

    The returned image's array is the only image-sized allocation: the patches
    are computed into it, then put into raster order band by band in place."""
    values = np.asarray(getattr(tokens, "values", tokens), dtype=np.float64)
    ps, c = t.patch_size, t.channels
    _check_divisible(width, height, ps)
    expected = token_count(width, height, ps)
    if values.shape != (expected, t.d):
        raise ShapeMismatch(
            f"tokens {values.shape} vs expected ({expected}, {t.d}) for {width}x{height}"
        )
    dec, dec_mean = t.decode_map()
    data = np.empty((height, width, c))
    # one product over all T tokens: products over row bands of the tokens gave
    # other bits than the single product under some BLAS kernels
    patches = np.matmul(values, dec, out=data.reshape(expected, t.patch_dim))
    patches += dec_mean
    np.clip(patches, 0.0, 1.0, out=patches)
    # a row of patches fills the same bytes in patch order and in raster order,
    # so each band of whole patch rows is permuted within its own rows
    gw = width // ps
    band_rows = max(1, _BAND_BYTES // max(1, data[:ps].nbytes))
    for g0 in range(0, height // ps, band_rows):
        band = data[g0 * ps : (g0 + band_rows) * ps]
        n = band.shape[0] // ps
        in_patch_order = band.reshape(n, gw, ps, ps, c).copy()
        band.reshape(n, ps, gw, ps, c)[...] = in_patch_order.transpose(0, 2, 1, 3, 4)
    return ImageBuffer(width=width, height=height, channels=c, data=data)


# --- portable pixmap IO (binary PGM/PPM, maxval 255) ---


# magic, width, height and maxval, separated by whitespace and '#' comments,
# then one whitespace byte before the pixels
_PNM_HEADER = re.compile(rb"(P[56])" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def read_pnm(path) -> ImageBuffer:
    with open(path, "rb") as f:
        raw = f.read()
    header = _PNM_HEADER.match(raw)
    if header is None:
        if not raw:
            raise Truncated("empty pnm file")
        if raw[:2] not in (b"P5", b"P6"):
            raise BadMagic(f"unsupported pnm magic {raw[:2]!r}")
        raise HeaderMismatch("pnm header is not 'P5|P6 width height maxval'")
    magic, *fields = header.groups()
    width, height, maxval = map(int, fields)
    if maxval != 255:
        raise HeaderMismatch("only maxval 255 supported")
    channels = 1 if magic == b"P5" else 3
    start = header.end()
    need = width * height * channels
    if len(raw) - start < need:
        raise Truncated("pixel data shorter than header promises")
    if len(raw) - start > need:
        raise LengthMismatch(f"{len(raw) - start - need} bytes after the {need} pixel bytes")
    data = np.frombuffer(raw, dtype=np.uint8, count=need, offset=start)
    return ImageBuffer(
        width=width,
        height=height,
        channels=channels,
        data=data.reshape(height, width, channels) / 255.0,
    )


def write_pnm(img: ImageBuffer, path) -> None:
    magic = b"P5" if img.channels == 1 else b"P6"
    pixels = np.empty(img.data.shape, dtype=np.uint8)
    rows = max(1, _BAND_BYTES // max(1, img.data[:1].nbytes))
    # a NaN has no pixel value: its cast to uint8 is the one invalid operation here
    with np.errstate(invalid="raise"):
        try:
            for r0 in range(0, img.height, rows):
                band = img.data[r0 : r0 + rows] * 255.0
                np.rint(band, out=band)
                np.clip(band, 0, 255, out=band)
                pixels[r0 : r0 + rows] = band
        except FloatingPointError:
            raise RangeViolation("the image holds NaN pixels") from None
    artifact.rewrite(path, magic + b"\n%d %d\n255\n" % (img.width, img.height), pixels)


# --- transform persistence ---


def save_pca(t: PcaTransform, path) -> None:
    if t.channels not in (1, 3):  # load_pca rejects such a file; write none
        raise RangeViolation(f"pca channels must be 1 or 3, not {t.channels}")
    version = PCA_VERSION_ENC if t.decoder is None else PCA_VERSION_DEC
    decoder = [] if t.decoder is None else [t.decoder, t.decoder_mean]
    fields = {"version": version, "patch_size": t.patch_size, "channels": t.channels, "d": t.d}
    artifact.write(path, PCA_MAGIC, _PCA_HEADER, fields, [t.mean, t.basis, *decoder])


def _pca_shapes(version, patch_size, channels, d):
    if channels not in (0, 1, 3):  # 0 is an empty axis, which artifact.read rejects
        raise HeaderMismatch(f"pca channels must be 1 or 3, not {channels}")
    p = patch_size * patch_size * channels
    return [(p,), (d, p)] + ([(d, p), (p,)] if version == PCA_VERSION_DEC else [])


def load_pca(path) -> PcaTransform:
    (_, patch_size, channels, _), arrays, _ = artifact.read(
        path, PCA_MAGIC, _PCA_HEADER, (PCA_VERSION_ENC, PCA_VERSION_DEC), _pca_shapes
    )
    return PcaTransform(patch_size, channels, *arrays)
