"""Three-stage progressive training over a frozen latent transform.

Stage 1 trains switchable token-shared codebooks and the learned router;
stage 2 derives and refines token-specific sub-codebooks; stage 3 refits
only the decoder map against quantized latents. The encoder projection is
never touched.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .codebook import CodebookPool, init_kmeanspp
from .errors import DivergenceDetected, HeaderMismatch, RangeViolation, StageOrderError, TooFewSamples
from .latent import PcaTransform, encode, image_patches
from .metrics import corpus_utilization
from .quantizer import codes_at, quantize_corpus, search
from .router import RouterParams, init_router, router_loss_and_grads, router_probs

_GRAD_CLIP = 1e3


@dataclass
class TrainConfig:
    M: int = 8
    K: int = 16
    T: int = 16
    d: int = 8
    lam1: float = 0.1
    lam2: float = 0.1
    learning_rate: float = 1e-3
    batch_size: int = 32
    steps_stage1: int = 2000
    steps_stage2: int = 8000
    seed: int = 0
    dead_code_epochs: int = 1
    hidden: int = 64
    # stage-1 steps that update only the router, so routing aligns with the
    # shard-initialized groups before codebooks start moving
    router_warmup: int = 100

    def validate(self) -> None:
        for name in ("M", "K", "T", "d", "batch_size", "hidden", "dead_code_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("steps_stage1", "steps_stage2", "router_warmup"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("lam1", "lam2", "learning_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class TrainReport:
    loss_curves: dict[str, list[float]] = field(default_factory=dict)
    utilization_summary: dict[str, float] | None = None
    routing_histogram: list[int] = field(default_factory=list)
    wall_clock: float = 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "loss_curves": self.loss_curves,
                "utilization_summary": self.utilization_summary,
                "routing_histogram": self.routing_histogram,
                "wall_clock": self.wall_clock,
            },
            indent=2,
        )


def _cosine_lr(base: float, step: int, total: int) -> float:
    if total <= 1:
        return base
    return base * 0.5 * (1.0 + np.cos(np.pi * step / (total - 1)))


def init_stage1_pool(data: np.ndarray, cfg: TrainConfig) -> CodebookPool:
    """Token-shared pool: one k-means++ codebook per disjoint data shard.

    Shards come from clustering the mean-pooled token matrices into M
    cells, so the groups start genuinely diverse. Purely random shards all
    sample the same distribution, which makes the groups interchangeable
    at init and lets routing collapse onto a single winner.
    """
    n = data.shape[0]
    if n < cfg.M:
        raise TooFewSamples(f"{n} samples cannot fill {cfg.M} shards")
    rng = np.random.default_rng(cfg.seed)
    pooled = data.mean(axis=1)
    cells = init_kmeanspp(pooled, cfg.M, seed=cfg.seed)
    assign = search(pooled[:, None], cells.codes[None, None])[0][:, 0, 0]
    shared = []
    for i in range(cfg.M):
        shard = np.nonzero(assign == i)[0]
        if shard.size * cfg.T < cfg.K:
            # thin cell: top up with random images so k-means++ has material
            top_up = max(cfg.K // cfg.T + 1, 4)
            if n < top_up:
                raise TooFewSamples(f"{n} samples cannot top up a thin shard with {top_up}")
            extra = rng.choice(n, size=top_up, replace=False)
            shard = np.unique(np.concatenate([shard, extra]))
        flat = data[shard].reshape(-1, cfg.d)
        shared.append(init_kmeanspp(flat, cfg.K, seed=cfg.seed * 1000 + i).codes)
    return CodebookPool(np.stack(shared)[:, None], T=cfg.T)


def _clip_grads(grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    norm = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
    if norm > _GRAD_CLIP:
        scale = _GRAD_CLIP / norm
        return {k: g * scale for k, g in grads.items()}
    return grads


def _router_step(router: RouterParams, pooled, errs, cfg, lr) -> float:
    loss, grads = router_loss_and_grads(pooled, errs, router, cfg.lam1, cfg.lam2)
    grads = _clip_grads(grads)
    router.W1 -= lr * grads["W1"]
    router.b1 -= lr * grads["b1"]
    router.W2 -= lr * grads["W2"]
    router.b2 -= lr * grads["b2"]
    return loss


def _refine(data, codes, router, cfg, steps, warmup, rng, stage):
    """Mini-batch online k-means of dense (M, T', K, d) codes jointly with the router.

    T' == 1 is one codebook shared by every token (stage 1); T' == T gives each
    token position its own (stage 2). The first `warmup` steps update only the
    router and count no code usage, so no code is reset as dead during them.
    Returns the refined codes and the per-step loss curve.
    """
    n = data.shape[0]
    codes = np.array(codes, dtype=np.float64, order="C")
    M, Tp, K, d = codes.shape
    flat = codes.reshape(-1, d)
    token_row = np.arange(cfg.T) % Tp  # all zeros when one codebook serves every token
    epoch_len = max(1, n // cfg.batch_size)
    usage = np.zeros((M, Tp, K), dtype=np.int64)
    stale = np.zeros((M, Tp, K), dtype=np.int64)
    curve = []

    for step in range(steps):
        lr = _cosine_lr(cfg.learning_rate, step, steps)
        batch = data[rng.integers(0, n, size=cfg.batch_size)]
        pooled = batch.mean(axis=1)
        found, err = search(batch, codes)  # (B, M, T) indices and errors
        errs = err.sum(axis=2)
        routed = router_probs(pooled, router).argmax(axis=1)
        rows = np.arange(len(batch))

        quant_loss = float(errs[rows, routed].mean())
        if step >= warmup:
            # sums and counts per (m, t', k) key, accumulated in batch order
            idx = found[rows, routed]
            keys = ((routed[:, None] * Tp + token_row) * K + idx).ravel()
            counts = np.bincount(keys, minlength=M * Tp * K)
            sums = np.bincount((keys[:, None] * d + np.arange(d)).ravel(),
                               weights=batch.ravel(), minlength=flat.size).reshape(-1, d)
            used = counts > 0
            means = sums[used] / counts[used][:, None]
            flat[used] -= 2.0 * lr * (flat[used] - means)
            usage += counts.reshape(M, Tp, K)

        # per-dimension error scale keeps the linear guided term from
        # saturating the softmax before the balance term can act
        router_loss = _router_step(router, pooled, errs / (cfg.T * cfg.d), cfg, lr)
        total = quant_loss + router_loss
        if not np.isfinite(total):
            raise DivergenceDetected(f"stage {stage} loss became {total} at step {step}")
        curve.append(total)

        if step >= warmup and (step + 1) % epoch_len == 0:
            stale = np.where(usage > 0, 0, stale + 1)
            dead = stale >= cfg.dead_code_epochs
            for m, t, k in zip(*np.nonzero(dead)):
                image = data[rng.integers(n)]
                sample = image[rng.integers(cfg.T)] if Tp == 1 else image[t]
                codes[m, t, k] = sample + 1e-3 * rng.standard_normal(d)
                stale[m, t, k] = 0
            usage[:] = 0
    return codes, curve


def _training_tokens(data) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    if not np.isfinite(data).all():
        raise RangeViolation("training tokens must be finite")
    return data


def stage1(
    data: np.ndarray,
    cfg: TrainConfig,
    pool: CodebookPool | None = None,
    report: TrainReport | None = None,
) -> tuple[CodebookPool, RouterParams]:
    """Train token-shared switchable codebooks jointly with the router."""
    cfg.validate()
    data = _training_tokens(data)
    if pool is None:
        pool = init_stage1_pool(data, cfg)
    router = init_router(cfg.d, cfg.M, h=cfg.hidden, seed=cfg.seed)
    start = time.perf_counter()
    codes, curve = _refine(data, pool.codes[:, :1], router, cfg, cfg.steps_stage1, cfg.router_warmup,
                           np.random.default_rng(cfg.seed + 1), 1)
    pool = CodebookPool(codes, T=cfg.T)
    if report is not None:
        report.loss_curves["stage1"] = curve
        report.wall_clock += time.perf_counter() - start
    return pool, router


def stage2(
    data: np.ndarray,
    shared_pool: CodebookPool,
    router: RouterParams,
    cfg: TrainConfig,
    report: TrainReport | None = None,
) -> tuple[CodebookPool, RouterParams]:
    """Refine token-specific sub-codebooks derived from the stage-1 pool."""
    cfg.validate()
    if not shared_pool.token_shared or shared_pool.frozen:
        raise StageOrderError("stage 2 requires an unfrozen token-shared stage-1 pool")
    for name in ("M", "T", "K", "d"):
        if getattr(shared_pool, name) != getattr(cfg, name):
            raise HeaderMismatch(f"the stage-1 pool has {name}={getattr(shared_pool, name)}, "
                                 f"the config says {name}={getattr(cfg, name)}")
    if router.M != shared_pool.M:
        raise HeaderMismatch(f"the router scores M={router.M} groups, the pool has M={shared_pool.M}")
    data = _training_tokens(data)
    router = router.copy()
    start = time.perf_counter()
    codes, curve = _refine(data, np.broadcast_to(shared_pool.codes, (cfg.M, cfg.T, cfg.K, cfg.d)), router,
                           cfg, cfg.steps_stage2, 0, np.random.default_rng(cfg.seed + 2), 2)
    pool = CodebookPool(codes, frozen=True)
    if report is not None:
        report.loss_curves["stage2"] = curve
        report.wall_clock += time.perf_counter() - start
        report.routing_histogram = routing_counts(data, router, cfg.M)
        report.utilization_summary = _utilization_summary(data, pool)
    return pool, router


def routing_counts(data: np.ndarray, router: RouterParams, M: int) -> list[int]:
    probs = router_probs(np.asarray(data).mean(axis=1), router)
    return np.bincount(probs.argmax(axis=1), minlength=M).astype(int).tolist()


def _utilization_summary(data: np.ndarray, pool: CodebookPool) -> dict[str, float]:
    stats = corpus_utilization(data, pool)
    return {"min": stats.min, "max": stats.max, "mean": stats.mean, "std": stats.std}


def stage3(
    images,
    pool: CodebookPool,
    pca: PcaTransform,
    cfg: TrainConfig,
    report: TrainReport | None = None,
) -> PcaTransform:
    """Refit the decoder map to quantized latents; pool and encoder stay frozen.

    The refit is the exact least-squares solution over the training images,
    so pixel MSE can only decrease relative to the stale decoder.
    """
    if not pool.frozen:
        raise StageOrderError("stage 3 requires a frozen (stage-2) pool")
    start = time.perf_counter()
    images = list(images)
    groups, indices, _ = quantize_corpus([encode(img, pca) for img in images], pool)
    X = codes_at(pool, groups, indices).reshape(-1, pool.d)  # (N*T, d)
    Y = np.concatenate([image_patches(img, pca.patch_size) for img in images])  # (N*T, p)
    design = np.hstack([X, np.ones((X.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(design, Y, rcond=None)
    if not np.isfinite(coef).all():
        raise DivergenceDetected("stage 3 least-squares refit produced non-finite map")
    refit = PcaTransform(
        patch_size=pca.patch_size,
        channels=pca.channels,
        mean=pca.mean.copy(),
        basis=pca.basis.copy(),
        decoder=coef[:-1],
        decoder_mean=coef[-1],
    )
    if report is not None:
        before = float(((X @ pca.decode_map()[0] + pca.decode_map()[1] - Y) ** 2).mean())
        after = float(((X @ refit.decoder + refit.decoder_mean - Y) ** 2).mean())
        report.loss_curves["stage3"] = [before, after]
        report.wall_clock += time.perf_counter() - start
    return refit


def mean_latent_mse(data: np.ndarray, pool: CodebookPool, router: RouterParams | None = None, policy: str = "nn") -> float:
    """Mean squared latent error per token dimension over a token corpus."""
    return float(quantize_corpus(data, pool, policy, router)[2].mean() / (pool.T * pool.d))
