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
from dataclasses import asdict, dataclass, field

import numpy as np

from .codebook import CodebookPool, init_kmeanspp
from .errors import BadSpec, DivergenceDetected, HeaderMismatch, StageOrderError, TooFewSamples
from .latent import PcaTransform, encode_corpus
from .metrics import corpus_utilization
from .quantizer import _CHUNK_BYTES, _tokens, codes_at, quantize_corpus, search
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
                raise BadSpec(f"{name} must be >= 1")
        for name in ("steps_stage1", "steps_stage2", "router_warmup", "seed"):
            if getattr(self, name) < 0:
                raise BadSpec(f"{name} must be >= 0")
        for name in ("lam1", "lam2", "learning_rate"):
            if not math.isfinite(getattr(self, name)):
                raise BadSpec(f"{name} must be finite")
        if self.learning_rate <= 0:
            raise BadSpec("learning_rate must be positive")


@dataclass
class TrainReport:
    loss_curves: dict[str, list[float]] = field(default_factory=dict)
    utilization_summary: dict[str, float] | None = None
    routing_histogram: list[int] = field(default_factory=list)
    wall_clock: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


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
    for name, grad in _clip_grads(grads).items():
        weights = getattr(router, name)
        weights -= lr * grad
    return loss


def _refine(stage, data, codes, router, cfg, report) -> CodebookPool:
    """One training stage: mini-batch online k-means of dense (M, T', K, d) codes jointly with the router.

    T' == 1 is one codebook shared by every token (stage 1); T' == T gives each
    token position its own (stage 2). Stage 1 takes `steps_stage1` steps, whose
    first `router_warmup` update only the router and count no code usage, so no
    code is reset as dead during them; stage 2 takes `steps_stage2` steps and
    returns a frozen pool. Draws from default_rng(seed + stage) and writes the
    stage's loss curve and time into `report` when one is given.
    """
    start = time.perf_counter()
    steps, warmup = (cfg.steps_stage1, cfg.router_warmup) if stage == 1 else (cfg.steps_stage2, 0)
    rng = np.random.default_rng(cfg.seed + stage)
    n = data.shape[0]
    codes = np.array(codes, dtype=np.float64, order="C")
    M, Tp, K, d = codes.shape
    B = cfg.batch_size
    flat = codes.reshape(-1, d)
    token_row = np.arange(cfg.T) % Tp  # all zeros when one codebook serves every token
    epoch_len = max(1, n // B)
    usage = np.zeros(M * Tp * K, dtype=np.int64)
    stale = np.zeros((M, Tp, K), dtype=np.int64)
    rows = np.arange(B)
    curve = []
    # warm-up leaves the codes as they are and draws nothing but its batches, so
    # a block of warm-up steps draws its batches up front and searches their
    # distinct images once; a block's (images, M, T) results fit _CHUNK_BYTES
    warm = min(warmup, steps)
    fits = _CHUNK_BYTES // (16 * M * cfg.T)
    block = warm if n <= fits else max(1, fits // B)

    for step in range(steps):
        lr = _cosine_lr(cfg.learning_rate, step, steps)
        if step < warm:
            if step % block == 0:
                picks = np.stack([rng.integers(0, n, size=B) for _ in range(min(block, warm - step))])
                images, where = np.unique(picks, return_inverse=True)
                found_all, err_all = search(data[images], codes)
                where = where.reshape(picks.shape)
            batch = data[picks[step % block]]
            found, err = found_all[where[step % block]], err_all[where[step % block]]
        else:
            batch = data[rng.integers(0, n, size=B)]
            found, err = search(batch, codes)  # (B, M, T) indices and errors
        pooled = batch.sum(axis=1) / cfg.T  # batch.mean(axis=1), without its checks
        errs = err.sum(axis=2)
        routed = router_probs(pooled, router).argmax(axis=1)

        quant_loss = float(errs[rows, routed].sum() / B)  # .mean(), without its checks
        if step >= warmup:
            # sums and counts per (m, t', k) key the batch uses, accumulated in batch order
            keys, at = np.unique(((routed[:, None] * Tp + token_row) * K + found[rows, routed]).ravel(),
                                 return_inverse=True)
            counts = np.bincount(at)
            sums = np.bincount((at[:, None] * d + np.arange(d)).ravel(), weights=batch.ravel()).reshape(-1, d)
            flat[keys] -= 2.0 * lr * (flat[keys] - sums / counts[:, None])
            usage[keys] += counts

        # per-dimension error scale keeps the linear guided term from
        # saturating the softmax before the balance term can act
        router_loss = _router_step(router, pooled, errs / (cfg.T * cfg.d), cfg, lr)
        total = quant_loss + router_loss
        if not np.isfinite(total):
            raise DivergenceDetected(f"stage {stage} loss became {total} at step {step}")
        curve.append(total)

        if step >= warmup and (step + 1) % epoch_len == 0:
            stale = np.where(usage.reshape(stale.shape) > 0, 0, stale + 1)
            dead = stale >= cfg.dead_code_epochs
            _reset_dead(codes, dead, data, rng)
            stale[dead] = 0
            usage[:] = 0
    pool = CodebookPool(codes, frozen=stage == 2, T=cfg.T)
    if report is not None:
        report.loss_curves[f"stage{stage}"] = curve
        report.wall_clock += time.perf_counter() - start
    return pool


def _reset_dead(codes, dead, data, rng) -> None:
    """Move each dead (m, t', k) code to a random training token plus 1e-3 noise.

    The draws come code by code in the order of the dead codes: an image, then
    a token row when one codebook serves every token (T' = 1), then d normals.
    The codes are then written in one assignment.
    """
    n, T, d = data.shape
    shared = dead.shape[1] == 1
    token = np.nonzero(dead)[1].tolist()  # the token row t', which is the token when T' = T
    image = [0] * len(token)
    noise = np.empty((len(token), d))
    draw, normal = rng.integers, rng.standard_normal
    for i, row in enumerate(noise):
        image[i] = draw(n)
        if shared:
            token[i] = draw(T)
        normal(out=row)
    codes[dead] = data[image, token] + 1e-3 * noise


def stage1(data: np.ndarray, cfg: TrainConfig, report: TrainReport | None = None) -> tuple[CodebookPool, RouterParams]:
    """Train token-shared switchable codebooks jointly with the router."""
    cfg.validate()
    data = _tokens(data, (None, cfg.T, cfg.d))
    pool = init_stage1_pool(data, cfg)
    router = init_router(cfg.d, cfg.M, h=cfg.hidden, seed=cfg.seed)
    return _refine(1, data, pool.codes, router, cfg, report), router


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
    data = _tokens(data, (None, cfg.T, cfg.d))
    router = router.copy()
    pool = _refine(2, data, np.broadcast_to(shared_pool.codes, (cfg.M, cfg.T, cfg.K, cfg.d)), router, cfg, report)
    if report is not None:
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
    tokens, Y = encode_corpus(list(images), pca)  # Y: the (N*T, p) patches
    groups, indices, _ = quantize_corpus(tokens, pool)
    X = codes_at(pool, groups, indices).reshape(-1, pool.d)  # (N*T, d)
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
