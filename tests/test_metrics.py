import csv
import json
import math

import numpy as np
import pytest

from stscq.codebook import Codebook, CodebookPool, TokenSpecificGroup
from stscq.errors import BadSpec, EmptyCorpus, LengthMismatch
from stscq.latent import ImageBuffer, encode, fit_pca
from stscq.metrics import (
    RD_CSV_FIELDS,
    RdPoint,
    compare_utilization,
    eval_rd,
    eval_rd_tokens,
    psnr_from_mse,
    routing_histogram,
    write_histogram_json,
    write_rd_csv,
)


def make_pool(rng, M, T, K, d):
    return CodebookPool(
        [
            TokenSpecificGroup([Codebook(rng.standard_normal((K, d))) for _ in range(T)])
            for _ in range(M)
        ]
    )


def test_psnr_inverse_relation():
    for mse in (1.0, 0.01, 3.7e-4):
        psnr = psnr_from_mse(mse)
        assert 10 ** (-psnr / 10) == pytest.approx(mse, rel=1e-9)
    assert psnr_from_mse(0.0) == math.inf
    assert psnr_from_mse(1.0) == 0.0


def test_eval_rd_tokens_lossless_pool():
    rng = np.random.default_rng(0)
    tokens = rng.standard_normal((10, 4, 3))
    # pool holding every sample verbatim quantizes with zero error
    group = TokenSpecificGroup([Codebook(tokens[:, t, :].copy()) for t in range(4)])
    point = eval_rd_tokens(tokens, CodebookPool([group]))
    assert point.latent_mse == pytest.approx(0.0, abs=1e-15)
    assert point.pixel_mse is None


def test_eval_rd_tokens_monotone_in_pool_size():
    rng = np.random.default_rng(1)
    tokens = rng.standard_normal((30, 3, 2))
    groups = [
        TokenSpecificGroup([Codebook(rng.standard_normal((4, 2))) for _ in range(3)])
        for _ in range(5)
    ]
    prev = math.inf
    for m in range(1, 6):
        point = eval_rd_tokens(tokens, CodebookPool(groups[:m]))
        assert point.latent_mse <= prev + 1e-12
        prev = point.latent_mse


def test_eval_rd_tokens_empty():
    with pytest.raises(EmptyCorpus):
        eval_rd_tokens(np.zeros((0, 2, 2)), make_pool(np.random.default_rng(2), 1, 2, 2, 2))


def test_eval_rd_bpp_matches_pool_geometry():
    rng = np.random.default_rng(3)
    images = [ImageBuffer.from_array(rng.uniform(0, 1, (16, 16))) for _ in range(3)]
    pca = fit_pca(images, patch_size=4, d=4)
    pool = make_pool(rng, M=2, T=16, K=4, d=4)
    point = eval_rd(images, pca, pool)
    assert point.bpp == pytest.approx((16 * 2 + 1) / 256)
    assert point.pixel_mse is not None
    assert point.psnr == pytest.approx(psnr_from_mse(point.pixel_mse))
    # encoding manually gives the same latent distortion
    latent = 0.0
    count = 0
    from stscq.quantizer import dequantize, quantize_routed

    for img in images:
        t = encode(img, pca).values
        z = dequantize(quantize_routed(t, pool), pool)
        latent += float(((t - z) ** 2).sum())
        count += t.size
    assert point.latent_mse == pytest.approx(latent / count)


@pytest.mark.parametrize("n_tokens, with_pca, error", [(2, True, LengthMismatch), (4, True, LengthMismatch),
                                                      (3, False, BadSpec)], ids=["fewer", "more", "no-pca"])
def test_eval_rd_tokens_refuses_images_it_cannot_decode_against(n_tokens, with_pca, error):
    # zip kept the first pairs in the pixel sum while the divisor counted every
    # image, and images without a PCA ended in an AttributeError
    rng = np.random.default_rng(3)
    images = [ImageBuffer.from_array(rng.uniform(0, 1, (16, 16))) for _ in range(3)]
    pca = fit_pca(images, patch_size=4, d=4)
    tokens = np.stack([encode(images[i % 3], pca).values for i in range(n_tokens)])
    with pytest.raises(error):
        eval_rd_tokens(tokens, make_pool(rng, M=2, T=16, K=4, d=4), images=images, pca=pca if with_pca else None)


def test_routing_histogram_sums():
    rng = np.random.default_rng(4)
    pool = make_pool(rng, M=3, T=4, K=5, d=2)
    corpus = rng.standard_normal((20, 4, 2))
    labels = ["a", "b"] * 10
    groups = eval_rd_tokens(corpus, pool).groups
    hists = routing_histogram(groups, pool.M, labels=labels)
    assert set(hists) == {"a", "b"}
    assert sum(hists["a"].counts) == 10
    assert sum(hists["b"].counts) == 10
    unlabeled = routing_histogram(groups, pool.M)
    assert sum(unlabeled["all"].counts) == 20
    merged = [x + y for x, y in zip(hists["a"].counts, hists["b"].counts)]
    assert merged == unlabeled["all"].counts


@pytest.mark.parametrize("n_labels", [10, 21])
def test_routing_histogram_rejects_labels_not_one_per_matrix(n_labels):
    with pytest.raises(LengthMismatch):
        routing_histogram(np.zeros(20, dtype=int), 3, labels=["a"] * n_labels)


def test_compare_utilization_trivial():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((12, 3, 2))
    shared = Codebook(np.zeros((1, 2)))
    tsc = TokenSpecificGroup([Codebook(np.zeros((1, 2))) for _ in range(3)])
    a, b = compare_utilization(data, shared, tsc)
    assert a.mean == b.mean == 100.0


def test_write_rd_csv_round_trip(tmp_path):
    points = [
        RdPoint(M=8, K=16, T=16, policy="nn", seed=0, bpp=0.0391, latent_mse=0.5),
        RdPoint(M=1, K=32, T=16, policy="cr", seed=1, bpp=0.0313, latent_mse=1.5,
                pixel_mse=0.01, psnr=20.0),
    ]
    path = tmp_path / "rd.csv"
    write_rd_csv(points, path)
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert [r["policy"] for r in rows] == ["nn", "cr"]
    assert rows[0]["pixel_mse"] == ""
    assert float(rows[1]["psnr"]) == 20.0
    assert list(rows[0]) == RD_CSV_FIELDS


def test_write_histogram_json(tmp_path):
    hists = routing_histogram([0, 1, 1, 0, 0, 1, 0, 0], 2)
    path = tmp_path / "h.json"
    write_histogram_json(hists, path)
    data = json.loads(path.read_text())
    assert sum(data["all"]["counts"]) == 8


def test_routing_histogram_matches_the_label_loop():
    rng = np.random.default_rng(7)
    groups = rng.integers(0, 4, size=40)
    labels = rng.integers(0, 12, size=40)  # "10" and "11" sort before "2"
    want = {}
    for lab in sorted({str(l) for l in labels}):
        counts = [0] * 4
        for g, l in zip(groups, labels):
            if str(l) == lab:
                counts[g] += 1
        want[lab] = counts
    got = routing_histogram(groups, 4, labels)
    assert list(got) == list(want)
    assert {lab: h.counts for lab, h in got.items()} == want
    assert all(h.attribute_label == lab for lab, h in got.items())
    assert routing_histogram([], 4) == {}
