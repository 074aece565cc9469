import hashlib
from dataclasses import replace

import numpy as np
import pytest

from stscq.codebook import load_pool, save_pool
from stscq.errors import BadSpec, DivergenceDetected, HeaderMismatch, RangeViolation, StageOrderError, TooFewSamples
from stscq.latent import ImageBuffer, encode, fit_pca, image_patches
from stscq.quantizer import dequantize, group_errors, quantize_routed
from stscq.router import init_router, router_probs
from stscq.synth import ImageCorpusSpec, MixtureSpec, make_image_corpus, make_token_corpus
from stscq import trainer
from stscq.trainer import (
    TrainConfig,
    TrainReport,
    init_stage1_pool,
    mean_latent_mse,
    stage1,
    stage2,
    stage3,
)


def two_cluster_data(n=256, T=2, d=2, sep=5.0, sigma=0.5, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    means = np.where(labels[:, None, None] == 0, -sep, sep)
    return means + sigma * rng.standard_normal((n, T, d)), labels


@pytest.fixture(scope="module")
def mixture():
    spec = MixtureSpec(clusters=4, T=4, d=4, samples=256, separation=5.0, sigma=0.5, seed=0)
    tokens, labels, means = make_token_corpus(spec)
    return tokens, labels, means


def small_cfg(**kw):
    base = dict(
        M=4, K=8, T=4, d=4, seed=0, learning_rate=0.05, batch_size=16,
        steps_stage1=200, steps_stage2=300, lam1=1.0, router_warmup=50,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_stage1_single_group_is_online_kmeans(mixture):
    from stscq.codebook import Codebook, CodebookPool, TokenSpecificGroup

    tokens, _, _ = mixture
    cfg = small_cfg(M=1, router_warmup=0)
    # start from a deliberately bad pool so the improvement is unambiguous
    bad = CodebookPool([TokenSpecificGroup([Codebook(np.zeros((cfg.K, cfg.d)))] * cfg.T)])
    before = mean_latent_mse(tokens, bad)
    report = TrainReport()
    router = init_router(cfg.d, cfg.M, h=cfg.hidden, seed=cfg.seed)
    pool = trainer._refine(1, tokens, bad.codes, router, cfg, report)
    after = mean_latent_mse(tokens, pool)
    assert pool.token_shared
    assert after < before
    curve = report.loss_curves["stage1"]
    assert all(np.isfinite(curve))
    assert np.mean(curve[-20:]) < np.mean(curve[:20])


def test_stage1_router_warmup_keeps_initial_codes(mixture):
    # warm-up steps train only the router: no code moves and none is reset
    tokens, _, _ = mixture
    cfg = small_cfg(steps_stage1=50, router_warmup=50)
    init = init_stage1_pool(tokens, cfg)
    pool, _ = stage1(tokens, cfg)
    for g0, g1 in zip(init.groups, pool.groups):
        assert np.array_equal(g0.sub[0].codes, g1.sub[0].codes)


def refine_step_by_step(data, codes, router, cfg, steps, warmup, rng):
    """_refine as one loop per step: a search of every step's batch, the code
    update over all M·T'·K·d bins and the dead-code resets code by code."""
    n = data.shape[0]
    codes = np.array(codes, dtype=np.float64, order="C")
    M, Tp, K, d = codes.shape
    flat = codes.reshape(-1, d)
    token_row = np.arange(cfg.T) % Tp
    epoch_len = max(1, n // cfg.batch_size)
    usage = np.zeros((M, Tp, K), dtype=np.int64)
    stale = np.zeros((M, Tp, K), dtype=np.int64)
    curve = []
    for step in range(steps):
        lr = trainer._cosine_lr(cfg.learning_rate, step, steps)
        batch = data[rng.integers(0, n, size=cfg.batch_size)]
        pooled = batch.mean(axis=1)
        found, err = trainer.search(batch, codes)
        errs = err.sum(axis=2)
        routed = router_probs(pooled, router).argmax(axis=1)
        rows = np.arange(len(batch))
        quant_loss = float(errs[rows, routed].mean())
        if step >= warmup:
            keys = ((routed[:, None] * Tp + token_row) * K + found[rows, routed]).ravel()
            counts = np.bincount(keys, minlength=M * Tp * K)
            sums = np.bincount((keys[:, None] * d + np.arange(d)).ravel(),
                               weights=batch.ravel(), minlength=flat.size).reshape(-1, d)
            used = counts > 0
            flat[used] -= 2.0 * lr * (flat[used] - sums[used] / counts[used][:, None])
            usage += counts.reshape(M, Tp, K)
        curve.append(quant_loss + trainer._router_step(router, pooled, errs / (cfg.T * cfg.d), cfg, lr))
        if step >= warmup and (step + 1) % epoch_len == 0:
            stale = np.where(usage > 0, 0, stale + 1)
            for m, t, k in zip(*np.nonzero(stale >= cfg.dead_code_epochs)):
                image = data[rng.integers(n)]
                sample = image[rng.integers(cfg.T)] if Tp == 1 else image[t]
                codes[m, t, k] = sample + 1e-3 * rng.standard_normal(d)
                stale[m, t, k] = 0
            usage[:] = 0
    return codes, curve


# blocks of warm-up steps: all 50 in one, or 7 steps (112 images' results) at a
# time, also over a run that ends inside its warm-up
@pytest.mark.parametrize("cap, steps, searches", [(None, 130, 1 + 80), (16 * 4 * 4 * 16 * 7, 130, 8 + 80),
                                                  (16 * 4 * 4 * 16 * 7, 20, 3)],
                         ids=["one-block", "blocks-of-7", "warm-up-past-the-end"])
@pytest.mark.parametrize("shared", [True, False], ids=["T'=1", "T'=T"])
def test_refine_is_the_step_by_step_loop_bit_for_bit(mixture, monkeypatch, shared, cap, steps, searches):
    """One search per warm-up block and one per later step give every code,
    loss and router weight of a search per step, with dead codes reset."""
    tokens, _, _ = mixture
    warmup = 50
    cfg = small_cfg(steps_stage1=steps, router_warmup=warmup, seed=4)  # stage 1 draws from default_rng(4 + 1)
    if cap is not None:
        monkeypatch.setattr(trainer, "_CHUNK_BYTES", cap)
    pool = init_stage1_pool(tokens, small_cfg())
    codes = pool.codes if shared else np.broadcast_to(pool.codes, (cfg.M, cfg.T, cfg.K, cfg.d))
    want_router = init_router(cfg.d, cfg.M, h=cfg.hidden, seed=0)
    want, want_curve = refine_step_by_step(tokens, codes, want_router, cfg, steps, warmup,
                                           np.random.default_rng(5))
    calls = []
    search = trainer.search
    monkeypatch.setattr(trainer, "search", lambda *a: calls.append(len(a[0])) or search(*a))
    router = init_router(cfg.d, cfg.M, h=cfg.hidden, seed=0)
    report = TrainReport()
    got = trainer._refine(1, tokens, codes, router, cfg, report)
    assert len(calls) == searches
    assert got.codes.tobytes() == want.tobytes()
    assert report.loss_curves["stage1"] == want_curve
    for name in ("W1", "b1", "W2", "b2"):
        assert getattr(router, name).tobytes() == getattr(want_router, name).tobytes()


@pytest.mark.parametrize("Tp", [1, 4], ids=["T'=1", "T'=T"])
@pytest.mark.parametrize("dead", ["all", "some", "none"])
def test_dead_code_resets_are_the_loop_over_codes(Tp, dead):
    """The draws come code by code as the loop made them, then one write; a
    forced all-dead epoch resets every code."""
    rng = np.random.default_rng(3)
    data = rng.standard_normal((10, 4, 3))
    codes = rng.standard_normal((2, Tp, 5, 3))
    mask = {"all": np.ones(codes.shape[:3], bool), "some": rng.random(codes.shape[:3]) < 0.4,
            "none": np.zeros(codes.shape[:3], bool)}[dead]
    want, draws = codes.copy(), np.random.default_rng(9)
    for m, t, k in zip(*np.nonzero(mask)):
        image = data[draws.integers(10)]
        sample = image[draws.integers(4)] if Tp == 1 else image[t]
        want[m, t, k] = sample + 1e-3 * draws.standard_normal(3)
    got, rng = codes.copy(), np.random.default_rng(9)
    trainer._reset_dead(got, mask, data, rng)
    assert got.tobytes() == want.tobytes()
    assert rng.random() == draws.random()  # as many draws, in the same order


def test_stage1_two_clusters_single_code_each():
    data, _ = two_cluster_data()
    cfg = small_cfg(M=2, K=1, T=2, d=2, steps_stage1=400)
    pool, _ = stage1(data, cfg)
    codes = sorted(
        (g.sub[0].codes[0] for g in pool.groups), key=lambda c: float(c.sum())
    )
    sigma = 0.5
    assert np.linalg.norm(codes[0] - (-5.0)) <= 0.1 * np.linalg.norm([10.0, 10.0])
    assert np.linalg.norm(codes[1] - 5.0) <= 0.1 * np.linalg.norm([10.0, 10.0])
    # tighter statistical bound against the analytic means
    assert np.abs(codes[0] + 5.0).max() <= 3 * sigma
    assert np.abs(codes[1] - 5.0).max() <= 3 * sigma


def test_stage1_deterministic(mixture):
    tokens, _, _ = mixture
    cfg = small_cfg(steps_stage1=100)
    r1, r2 = TrainReport(), TrainReport()
    p1, rt1 = stage1(tokens, cfg, report=r1)
    p2, rt2 = stage1(tokens, cfg, report=r2)
    for g1, g2 in zip(p1.groups, p2.groups):
        assert np.array_equal(g1.codes_array(), g2.codes_array())
    assert np.array_equal(rt1.W1, rt2.W1)
    assert np.array_equal(rt1.W2, rt2.W2)
    assert r1.loss_curves == r2.loss_curves


def test_stage1_divergence_detected(mixture):
    tokens, _, _ = mixture
    cfg = small_cfg(learning_rate=1e12, steps_stage1=400, router_warmup=0)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DivergenceDetected):
            stage1(tokens, cfg)


def test_stage2_zero_steps_matches_stage1(mixture):
    tokens, _, _ = mixture
    cfg = small_cfg(steps_stage1=150)
    pool1, router1 = stage1(tokens, cfg)
    cfg0 = small_cfg(steps_stage1=150, steps_stage2=0)
    pool2, _ = stage2(tokens, pool1, router1, cfg0)
    for t in tokens[:20]:
        qa = quantize_routed(t, pool1, policy="nn")
        qb = quantize_routed(t, pool2, policy="nn")
        assert qa.group_index == qb.group_index
        assert np.array_equal(qa.indices, qb.indices)


def test_stage2_requires_token_shared_pool(mixture):
    tokens, _, _ = mixture
    cfg = small_cfg(steps_stage1=100, steps_stage2=50)
    pool1, router1 = stage1(tokens, cfg)
    pool2, router2 = stage2(tokens, pool1, router1, cfg)
    with pytest.raises(StageOrderError):
        stage2(tokens, pool2, router2, cfg)


def test_stage2_rejects_a_router_for_another_group_count(mixture):
    # routing a batch to group 5 of a 4-group pool used to raise IndexError
    tokens, _, _ = mixture
    cfg = small_cfg(steps_stage1=20, router_warmup=10)
    pool1, _ = stage1(tokens, cfg)
    with pytest.raises(HeaderMismatch, match="M=8 .* M=4"):
        stage2(tokens, pool1, init_router(cfg.d, 8, h=cfg.hidden), cfg)


@pytest.mark.parametrize("name, value", [("M", 2), ("T", 2), ("K", 4), ("d", 2)])
def test_stage2_rejects_a_pool_of_another_shape(mixture, name, value):
    # the stage-1 codes used to be broadcast to the config's shape, which failed
    # with numpy's ValueError naming neither value
    tokens, _, _ = mixture
    cfg = small_cfg(steps_stage1=20, router_warmup=10)
    pool1, router1 = stage1(tokens, cfg)
    with pytest.raises(HeaderMismatch, match=f"{name}={getattr(cfg, name)}.* {name}={value}"):
        stage2(tokens, pool1, router1, replace(cfg, **{name: value}))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stages_reject_non_finite_tokens_before_any_step(mixture, bad):
    # both stages used to train on them until the loss was NaN at step 0
    tokens, _, _ = mixture
    cfg = small_cfg(steps_stage1=20, router_warmup=10)
    pool1, router1 = stage1(tokens, cfg)
    spoiled = tokens.copy()
    spoiled[5, 1, 2] = bad
    with pytest.raises(RangeViolation, match="finite"):
        stage1(spoiled, cfg)
    with pytest.raises(RangeViolation, match="finite"):
        stage2(spoiled, pool1, router1, cfg)


def test_init_stage1_pool_needs_enough_samples_to_top_up_a_thin_shard():
    # 3 matrices fill M=2 shards, but one holds at most one matrix (4 tokens < K=8),
    # and its top-up draws max(K // T + 1, 4) = 4 distinct matrices
    data = np.random.default_rng(0).standard_normal((3, 4, 2))
    with pytest.raises(TooFewSamples, match="3 samples"):
        init_stage1_pool(data, small_cfg(M=2, K=8, T=4, d=2))


@pytest.mark.parametrize("name, value", [("dead_code_epochs", 0), ("steps_stage1", -5),
                                         ("steps_stage2", -1), ("router_warmup", -1)])
def test_config_rejects_out_of_range_counts(mixture, name, value):
    # dead_code_epochs=0 marked every code dead and re-seeded it each epoch
    cfg = small_cfg(**{name: value})
    with pytest.raises(BadSpec, match=name):
        cfg.validate()
    with pytest.raises(BadSpec, match=name):
        stage1(mixture[0], cfg)


@pytest.mark.parametrize("name", ["lam1", "lam2", "learning_rate"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_weights(name, value):
    with pytest.raises(BadSpec, match=name):
        small_cfg(**{name: value}).validate()


@pytest.mark.parametrize("T", [1, 4])
def test_frozen_survives_save_load(mixture, tmp_path, T):
    # at T = 1 a stage-2 pool is token-shared too, so the file must carry frozen itself
    tokens = mixture[0][:, :T]
    cfg = small_cfg(T=T, steps_stage1=60, steps_stage2=20, router_warmup=10)
    pool1, router1 = stage1(tokens, cfg)
    pool2, _ = stage2(tokens, pool1, router1, cfg)
    for pool, frozen in ((pool1, False), (pool2, True)):
        save_pool(pool, tmp_path / "p.pool")
        loaded = load_pool(tmp_path / "p.pool")
        assert (loaded.frozen, loaded.token_shared) == (frozen, pool.token_shared)
    with pytest.raises(StageOrderError):
        stage2(tokens, loaded, router1, cfg)


def test_stage2_error_not_worse_than_stage1(mixture):
    tokens, _, _ = mixture
    cfg = small_cfg()
    pool1, router1 = stage1(tokens, cfg)
    pool2, _ = stage2(tokens, pool1, router1, cfg)
    assert mean_latent_mse(tokens, pool2) <= mean_latent_mse(tokens, pool1) + 1e-12


def test_stage2_improves_utilization(mixture):
    from stscq.metrics import compare_utilization

    tokens, _, _ = mixture
    cfg = small_cfg(M=1, steps_stage1=300, steps_stage2=500)
    pool1, router1 = stage1(tokens, cfg)
    pool2, _ = stage2(tokens, pool1, router1, cfg)
    shared_stats, tsc_stats = compare_utilization(
        tokens, pool1.groups[0].sub[0], pool2.groups[0]
    )
    assert tsc_stats.mean > shared_stats.mean


def image_setup(seed=0):
    spec = ImageCorpusSpec(clusters=2, width=16, height=16, patch_size=4, samples=24, seed=seed)
    images, _ = make_image_corpus(spec)
    pca = fit_pca(images, spec.patch_size, d=4, seed=seed)
    tokens = np.stack([encode(img, pca).values for img in images])
    return images, pca, tokens


def pixel_mse(images, pca, pool):
    from stscq.latent import decode

    total = 0.0
    count = 0
    for img in images:
        q = quantize_routed(encode(img, pca).values, pool, policy="nn")
        recon = decode(dequantize(q, pool), pca, img.width, img.height)
        total += float(((recon.data - img.data) ** 2).sum())
        count += img.data.size
    return total / count


def test_stage3_requires_frozen_pool():
    images, pca, tokens = image_setup()
    cfg = small_cfg(M=2, K=4, T=16, d=4, steps_stage1=100)
    pool1, _ = stage1(tokens, cfg)
    with pytest.raises(StageOrderError):
        stage3(images, pool1, pca, cfg)


def test_stage3_reduces_pixel_mse():
    images, pca, tokens = image_setup()
    cfg = small_cfg(M=2, K=4, T=16, d=4, steps_stage1=150, steps_stage2=200)
    pool1, router1 = stage1(tokens, cfg)
    pool2, _ = stage2(tokens, pool1, router1, cfg)
    before = pixel_mse(images, pca, pool2)
    refit = stage3(images, pool2, pca, cfg)
    after = pixel_mse(images, refit, pool2)
    assert after <= before + 1e-12


def test_stage3_passthrough_leaves_mse_unchanged():
    # a pool containing every token vector verbatim quantizes losslessly,
    # so the refit cannot beat the PCA decoder
    from stscq.codebook import Codebook, CodebookPool, TokenSpecificGroup

    images, pca, tokens = image_setup(seed=1)
    n, T, d = tokens.shape
    group = TokenSpecificGroup(
        [Codebook(tokens[:, t, :].copy()) for t in range(T)]
    )
    pool = CodebookPool([group], frozen=True)
    cfg = small_cfg(M=1, K=n, T=T, d=d)
    before = pixel_mse(images, pca, pool)
    refit = stage3(images, pool, pca, cfg)
    after = pixel_mse(images, refit, pool)
    assert abs(after - before) <= 1e-8


def test_stage3_leaves_pool_untouched(tmp_path):
    images, pca, tokens = image_setup()
    cfg = small_cfg(M=2, K=4, T=16, d=4, steps_stage1=100, steps_stage2=100)
    pool1, router1 = stage1(tokens, cfg)
    pool2, _ = stage2(tokens, pool1, router1, cfg)
    save_pool(pool2, tmp_path / "before.pool")
    stage3(images, pool2, pca, cfg)
    save_pool(pool2, tmp_path / "after.pool")
    h1 = hashlib.sha256((tmp_path / "before.pool").read_bytes()).hexdigest()
    h2 = hashlib.sha256((tmp_path / "after.pool").read_bytes()).hexdigest()
    assert h1 == h2


def test_report_histogram_sums_to_sample_count(mixture):
    tokens, _, _ = mixture
    cfg = small_cfg(steps_stage1=150, steps_stage2=150)
    report = TrainReport()
    pool1, router1 = stage1(tokens, cfg, report=report)
    stage2(tokens, pool1, router1, cfg, report=report)
    assert sum(report.routing_histogram) == len(tokens)
    assert report.utilization_summary is not None
    assert set(report.loss_curves) == {"stage1", "stage2"}
