"""Evaluation: distortion metrics, rate-distortion points, utilization tables,
and routing-activation histograms."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bitstream import bpp
from .codebook import Codebook, CodebookPool, TokenSpecificGroup, UtilizationStats, index_histograms, utilization
from .errors import EmptyCorpus, LengthMismatch
from .latent import ImageBuffer, PcaTransform, decode, encode_corpus
from .quantizer import _token_corpus, codes_at, quantize_corpus


@dataclass
class RdPoint:
    M: int
    K: int
    T: int
    policy: str
    seed: int
    bpp: float
    latent_mse: float
    pixel_mse: float | None = None
    psnr: float | None = None
    # the (N,) group each token matrix was quantized under; not a CSV column
    groups: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass
class RoutingHistogram:
    counts: list[int]
    attribute_label: str | None = None


def psnr_from_mse(pixel_mse: float) -> float:
    """PSNR in dB for pixels in [0, 1]."""
    if pixel_mse <= 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / pixel_mse)


def eval_rd(
    corpus,
    pca: PcaTransform,
    pool: CodebookPool,
    policy: str = "nn",
    router=None,
    seed: int = 0,
) -> RdPoint:
    """Mean latent and pixel distortion over an image corpus plus its bpp."""
    images = list(corpus)
    tokens, _ = encode_corpus(images, pca)
    return eval_rd_tokens(tokens, pool, policy=policy, router=router, seed=seed, images=images, pca=pca)


def eval_rd_tokens(
    corpus,
    pool: CodebookPool,
    policy: str = "nn",
    router=None,
    width: int = 256,
    height: int = 256,
    seed: int = 0,
    images: list[ImageBuffer] | None = None,
    pca: PcaTransform | None = None,
) -> RdPoint:
    """Rate-distortion point of N (T, d) token matrices from one search of the pool.

    Given the images the tokens were encoded from and their PCA, the point also
    has pixel MSE and PSNR, and its bpp is at the images' own geometry.
    """
    values = _token_corpus(corpus, pool)
    if len(values) == 0:
        raise EmptyCorpus("a rate-distortion point needs at least one token matrix")
    groups, indices, _ = quantize_corpus(values, pool, policy=policy, router=router)
    z_q = codes_at(pool, groups, indices)
    latent_sq = sum(float(((v - z) ** 2).sum()) for v, z in zip(values, z_q))
    pixel_mse = psnr = None
    if images is not None:
        width, height = images[-1].width, images[-1].height
        pixel_sq = sum(float(((img.data - decode(z, pca, img.width, img.height).data) ** 2).sum())
                       for img, z in zip(images, z_q))
        pixel_mse = pixel_sq / sum(img.data.size for img in images)
        psnr = psnr_from_mse(pixel_mse)
    return RdPoint(M=pool.M, K=pool.K, T=pool.T, policy=policy, seed=seed,
                   bpp=bpp(pool.T, pool.K, pool.M, width, height), latent_mse=latent_sq / z_q.size,
                   pixel_mse=pixel_mse, psnr=psnr, groups=groups)


def routing_histogram(groups, M: int, labels=None) -> dict[str, RoutingHistogram]:
    """Per-label counts of the (N,) selected group indices; key "all" when unlabeled."""
    groups = np.asarray(groups, dtype=np.intp)
    if labels is None:
        labels = ["all"] * len(groups)
    if np.shape(labels)[:1] != groups.shape:  # a 0-d array of labels has no len()
        raise LengthMismatch(f"labels of shape {np.shape(labels)} for {len(groups)} token matrices")
    names, label_of = np.unique(np.array([str(l) for l in labels], dtype=str), return_inverse=True)
    counts = np.bincount(label_of * M + groups, minlength=len(names) * M).reshape(-1, M)
    return {lab: RoutingHistogram(counts=c.tolist(), attribute_label=lab) for lab, c in zip(names.tolist(), counts)}


def corpus_utilization(corpus, pool: CodebookPool) -> UtilizationStats:
    """Per-token code utilization of a token corpus quantized under a pool's nearest groups."""
    return utilization(index_histograms(quantize_corpus(corpus, pool)[1], pool.K), pool.K)


def compare_utilization(
    corpus: np.ndarray,
    shared: Codebook,
    tsc: TokenSpecificGroup,
) -> tuple[UtilizationStats, UtilizationStats]:
    """Utilization under a global-shared codebook versus token-specific ones."""
    return (corpus_utilization(corpus, CodebookPool(shared.codes[None, None], T=tsc.T)),
            corpus_utilization(corpus, CodebookPool(tsc.codes[None], T=tsc.T)))


RD_CSV_FIELDS = ["M", "K", "T", "policy", "seed", "bpp", "latent_mse", "pixel_mse", "psnr"]


def write_rd_csv(points: list[RdPoint], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=RD_CSV_FIELDS)
        w.writeheader()
        for p in points:
            row = {k: getattr(p, k) for k in RD_CSV_FIELDS}
            row = {k: ("" if v is None else v) for k, v in row.items()}
            w.writerow(row)


def write_gnuplot_script(csv_path, out_path) -> None:
    script = (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        "set xlabel 'bpp'\n"
        "set ylabel 'latent MSE'\n"
        "set logscale y\n"
        f"plot '{csv_path}' using 6:7 with linespoints\n"
    )
    with open(out_path, "w") as f:
        f.write(script)


def write_histogram_json(hists: dict[str, RoutingHistogram], path) -> None:
    payload = {
        lab: {"counts": h.counts, "attribute_label": h.attribute_label}
        for lab, h in hists.items()
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
