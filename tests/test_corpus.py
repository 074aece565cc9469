"""The corpus-level callers make one batched search, and must give exactly what
a loop of per-image `quantize_routed` gives. Each reference below is that loop."""

import numpy as np
import pytest

from stscq import metrics, quantizer
from stscq.codebook import CodebookPool, TokenSpecificGroup, utilization
from stscq.errors import RangeViolation, ShapeMismatch
from stscq.latent import ImageBuffer, decode, encode, fit_pca, image_patches
from stscq.metrics import RdPoint, corpus_utilization, eval_rd, eval_rd_tokens, psnr_from_mse, routing_histogram
from stscq.quantizer import dequantize, quantize_corpus, quantize_group, quantize_routed
from stscq.router import init_router
from stscq.trainer import TrainConfig, _utilization_summary, mean_latent_mse, stage3

M, T, K, d = 3, 4, 5, 2
POLICIES = ["nn", "cr"]


@pytest.fixture(params=[1 << 22, 1], ids=["one-chunk", "one-image-chunks"])
def chunk_bytes(request, monkeypatch):
    monkeypatch.setattr(quantizer, "_CHUNK_BYTES", request.param)
    return request.param


def setup(seed=0):
    rng = np.random.default_rng(seed)
    pool = CodebookPool(rng.standard_normal((M, T, K, d)), frozen=True)
    images = [ImageBuffer.from_array(rng.uniform(0, 1, (8, 8))) for _ in range(12)]
    pca = fit_pca(images, patch_size=4, d=d)
    tokens = np.stack([encode(img, pca).values for img in images])
    return pool, images, pca, tokens, init_router(d, M, h=8, seed=seed)


def reference_quantize(tokens, pool, policy, router):
    return [quantize_routed(t, pool, policy=policy, router=router) for t in tokens]


def test_quantize_corpus_matches_quantize_routed(chunk_bytes):
    pool, _, _, tokens, router = setup(1)
    for policy in POLICIES:
        groups, indices, errors = quantize_corpus(tokens, pool, policy=policy, router=router)
        for t, q, g, i, e in zip(tokens, reference_quantize(tokens, pool, policy, router), groups, indices, errors):
            assert (g, list(i)) == (q.group_index, list(q.indices))
            assert e == quantize_group(t, pool.groups[g])[1]


@pytest.mark.parametrize("policy", POLICIES)
def test_eval_rd_tokens_matches_per_image_loop(chunk_bytes, policy):
    pool, _, _, tokens, router = setup(2)
    total_sq = 0.0
    reference = reference_quantize(tokens, pool, policy, router)
    for t, q in zip(tokens, reference):
        total_sq += float(((t - dequantize(q, pool)) ** 2).sum())
    want = RdPoint(M=M, K=K, T=T, policy=policy, seed=0, bpp=eval_rd_tokens(tokens, pool).bpp,
                   latent_mse=total_sq / tokens.size)
    got = eval_rd_tokens(tokens, pool, policy=policy, router=router)
    assert got == want
    assert list(got.groups) == [q.group_index for q in reference]


@pytest.mark.parametrize("policy", POLICIES)
def test_eval_rd_matches_per_image_loop(chunk_bytes, policy):
    pool, images, pca, _, router = setup(3)
    latent_sq = pixel_sq = 0.0
    latent_n = pixel_n = 0
    groups = []
    for img in images:
        tokens = encode(img, pca)
        q = quantize_routed(tokens.values, pool, policy=policy, router=router)
        groups.append(q.group_index)
        z_q = dequantize(q, pool)
        latent_sq += float(((tokens.values - z_q) ** 2).sum())
        latent_n += tokens.values.size
        recon = decode(z_q, pca, img.width, img.height)
        pixel_sq += float(((img.data - recon.data) ** 2).sum())
        pixel_n += img.data.size
    got = eval_rd(images, pca, pool, policy=policy, router=router)
    assert (got.latent_mse, got.pixel_mse, got.psnr) == (
        latent_sq / latent_n, pixel_sq / pixel_n, psnr_from_mse(pixel_sq / pixel_n))
    assert list(got.groups) == groups


@pytest.mark.parametrize("policy", POLICIES)
def test_routing_histogram_matches_per_image_loop(chunk_bytes, policy):
    pool, _, _, tokens, router = setup(4)
    labels = ["a", "b", "c"] * 4
    want = {lab: [0] * M for lab in "abc"}
    for q, lab in zip(reference_quantize(tokens, pool, policy, router), labels):
        want[lab][q.group_index] += 1
    got = routing_histogram(eval_rd_tokens(list(tokens), pool, policy=policy, router=router).groups, M, labels)
    assert {lab: h.counts for lab, h in got.items()} == want


def test_stage3_matches_per_image_loop(chunk_bytes):
    pool, images, pca, _, _ = setup(5)
    X = np.concatenate([dequantize(quantize_routed(encode(img, pca).values, pool), pool) for img in images])
    Y = np.concatenate([image_patches(img, pca.patch_size) for img in images])
    coef, *_ = np.linalg.lstsq(np.hstack([X, np.ones((X.shape[0], 1))]), Y, rcond=None)
    refit = stage3(iter(images), pool, pca, TrainConfig(M=M, K=K, T=T, d=d))
    assert np.array_equal(refit.decoder, coef[:-1])
    assert np.array_equal(refit.decoder_mean, coef[-1])


def test_utilization_summary_matches_per_image_loop(chunk_bytes):
    pool, _, _, tokens, _ = setup(6)
    hist = np.zeros((T, K), dtype=np.int64)
    for q in reference_quantize(tokens, pool, "nn", None):
        hist[np.arange(T), q.indices] += 1
    stats = utilization(hist, K)
    want = {"min": stats.min, "max": stats.max, "mean": stats.mean, "std": stats.std}
    assert _utilization_summary(tokens, pool) == want


@pytest.mark.parametrize("policy", POLICIES)
def test_mean_latent_mse_matches_per_image_loop(chunk_bytes, policy):
    pool, _, _, tokens, router = setup(7)
    per_image = [quantize_group(t, pool.groups[q.group_index])[1]
                 for t, q in zip(tokens, reference_quantize(tokens, pool, policy, router))]
    assert mean_latent_mse(tokens, pool, router=router, policy=policy) == np.mean(per_image) / (T * d)


def test_assignment_histograms_match_per_image_loop(chunk_bytes, monkeypatch):
    pool, _, _, tokens, _ = setup(8)
    group = TokenSpecificGroup(pool.codes[1], T)
    want = np.zeros((T, K), dtype=np.int64)
    for t in tokens:
        want[np.arange(T), quantize_group(t, group)[0]] += 1
    # catch the (T, K) histogram that corpus_utilization hands to utilization
    seen = []
    monkeypatch.setattr(metrics, "utilization", lambda hist, K: seen.append(hist) or utilization(hist, K))
    stats = corpus_utilization(tokens, CodebookPool(group.codes[None], T=T))
    assert len(seen) == 1 and np.array_equal(seen[0], want)
    assert np.array_equal(stats.per_token_rates, utilization(want, K).per_token_rates)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_tokens_rejected_by_corpus_callers(bad):
    pool, images, pca, tokens, _ = setup(9)
    tokens[5, 2, 1] = bad
    with pytest.raises(RangeViolation):
        eval_rd_tokens(tokens, pool)
    images[5].data[0, 0, 0] = bad
    with pytest.raises(RangeViolation):
        stage3(images, pool, pca, TrainConfig(M=M, K=K, T=T, d=d))


def test_corpus_shape_checked():
    pool, images, pca, tokens, _ = setup(10)
    with pytest.raises(ShapeMismatch):
        eval_rd_tokens(tokens[:, :3], pool)
    with pytest.raises(ShapeMismatch):
        eval_rd_tokens([tokens[0], tokens[1][:, :1]], pool)
    with pytest.raises(ShapeMismatch):  # ragged: numpy's asarray refuses it
        eval_rd_tokens([tokens[0], [row.tolist() for row in tokens[1][:-1]] + [[0.0]]], pool)
    images[3] = ImageBuffer.from_array(np.zeros((8, 12)))
    with pytest.raises(ShapeMismatch):
        eval_rd(images, pca, pool)
