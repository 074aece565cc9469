"""Evaluation: distortion metrics, rate-distortion points, utilization tables,
and routing-activation histograms."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .bitstream import bpp
from .codebook import Codebook, CodebookPool, TokenSpecificGroup, UtilizationStats, index_histograms, utilization
from .errors import EmptyCorpus, LengthMismatch
from .latent import PcaTransform, decode, encode
from .quantizer import codes_at, quantize_corpus


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
    corpus = list(corpus)
    if not corpus:
        raise EmptyCorpus("eval_rd needs at least one image")
    latent_sq = 0.0
    latent_n = 0
    pixel_sq = 0.0
    pixel_n = 0
    tokens = [encode(img, pca).values for img in corpus]
    groups, indices, _ = quantize_corpus(tokens, pool, policy=policy, router=router)
    for img, values, z_q in zip(corpus, tokens, codes_at(pool, groups, indices)):
        latent_sq += float(((values - z_q) ** 2).sum())
        latent_n += values.size
        recon = decode(z_q, pca, img.width, img.height)
        pixel_sq += float(((img.data - recon.data) ** 2).sum())
        pixel_n += img.data.size
    pixel_mse = pixel_sq / pixel_n
    return RdPoint(
        M=pool.M,
        K=pool.K,
        T=pool.T,
        policy=policy,
        seed=seed,
        bpp=bpp(pool.T, pool.K, pool.M, corpus[-1].width, corpus[-1].height),
        latent_mse=latent_sq / latent_n,
        pixel_mse=pixel_mse,
        psnr=psnr_from_mse(pixel_mse),
    )


def eval_rd_tokens(
    corpus: np.ndarray,
    pool: CodebookPool,
    policy: str = "nn",
    router=None,
    width: int = 256,
    height: int = 256,
    seed: int = 0,
) -> RdPoint:
    """Latent-only rate-distortion point for a raw token corpus."""
    corpus = np.asarray(corpus, dtype=np.float64)
    if corpus.size == 0:
        raise EmptyCorpus("eval_rd_tokens needs at least one token matrix")
    groups, indices, _ = quantize_corpus(corpus, pool, policy=policy, router=router)
    total_sq = 0.0
    for tokens, z_q in zip(corpus, codes_at(pool, groups, indices)):
        total_sq += float(((tokens - z_q) ** 2).sum())
    return RdPoint(
        M=pool.M,
        K=pool.K,
        T=pool.T,
        policy=policy,
        seed=seed,
        bpp=bpp(pool.T, pool.K, pool.M, width, height),
        latent_mse=total_sq / corpus.size,
    )


def routing_histogram(
    corpus,
    pool: CodebookPool,
    policy: str = "nn",
    router=None,
    labels=None,
) -> dict[str, RoutingHistogram]:
    """Per-label counts of selected group indices; key "all" when unlabeled."""
    choices = quantize_corpus(corpus, pool, policy=policy, router=router)[0]
    if labels is None:
        labels = ["all"] * len(choices)
    if len(labels) != len(choices):
        raise LengthMismatch(f"{len(labels)} labels for {len(choices)} token matrices")
    out: dict[str, RoutingHistogram] = {}
    for lab in sorted({str(l) for l in labels}):
        counts = np.zeros(pool.M, dtype=np.int64)
        for c, l in zip(choices, labels):
            if str(l) == lab:
                counts[c] += 1
        out[lab] = RoutingHistogram(counts=counts.tolist(), attribute_label=lab)
    return out


def assignment_histograms_shared(corpus: np.ndarray, shared: Codebook, T: int) -> np.ndarray:
    """(T, K) index histograms of a token corpus under one shared codebook."""
    return assignment_histograms_group(corpus, TokenSpecificGroup(shared.codes[None], T))


def assignment_histograms_group(corpus: np.ndarray, group: TokenSpecificGroup) -> np.ndarray:
    indices = quantize_corpus(corpus, CodebookPool(group.codes[None], T=group.T))[1]
    return index_histograms(indices, group.K)


def compare_utilization(
    corpus: np.ndarray,
    shared: Codebook,
    tsc: TokenSpecificGroup,
) -> tuple[UtilizationStats, UtilizationStats]:
    """Utilization under a global-shared codebook versus token-specific ones."""
    shared_hist = assignment_histograms_shared(corpus, shared, tsc.T)
    tsc_hist = assignment_histograms_group(corpus, tsc)
    return utilization(shared_hist, shared.K), utilization(tsc_hist, tsc.K)


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
