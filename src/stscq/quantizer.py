"""Nearest-neighbor quantization against codebooks, groups, and routed pools.

All distances are squared Euclidean in float64; ties break to the lowest
index so that encoded streams are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, CodebookPool, TokenSpecificGroup
from .errors import DimensionMismatch, IndexOutOfRange, RangeViolation, ShapeMismatch, UntrainedRouter

# cap on nearest()'s difference temporary: an unsliced one is 16 MiB per group
# at M16/T256/K1024/d8, and re-faulting its pages on every call cost more time
# than taking tokens in slices
_CHUNK_BYTES = 1 << 22


@dataclass
class QuantizedImage:
    group_index: int
    indices: np.ndarray  # (T,) ints in [0, K)

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)


def _tokens_2d(tokens) -> np.ndarray:
    values = getattr(tokens, "values", tokens)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeMismatch(f"expected (T, d) tokens, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise RangeViolation("tokens must be finite")
    return values


def quantize_one(z: np.ndarray, cb: Codebook) -> tuple[int, float]:
    """Index of the nearest code and the attained squared distance."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (cb.d,):
        raise DimensionMismatch(f"vector of dim {z.shape} vs codebook dim {cb.d}")
    dists = ((cb.codes - z) ** 2).sum(axis=1)
    idx = int(dists.argmin())  # argmin returns the first minimum: lowest index
    return idx, float(dists[idx])


def nearest(batch: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest code per token: (B, T) indices and their squared errors.

    batch is (B, T, d); codes is (T, K, d), or (1, K, d) for one codebook
    shared by every token. Ties go to the lowest index. Tokens are taken in
    slices so the difference temporary stays within _CHUNK_BYTES.
    """
    B, T, d = batch.shape
    codes = np.broadcast_to(codes, (T,) + codes.shape[1:])
    indices = np.empty((B, T), dtype=np.intp)
    errors = np.empty((B, T))
    step = max(1, _CHUNK_BYTES // (8 * max(B, 1) * codes.shape[1] * d))
    for t in range(0, T, step):
        diff = batch[:, t : t + step, None, :] - codes[None, t : t + step]
        dists = np.einsum("btkd,btkd->btk", diff, diff)
        indices[:, t : t + step] = dists.argmin(axis=2)
        errors[:, t : t + step] = dists.min(axis=2)
    return indices, errors


def quantize_group(tokens, g: TokenSpecificGroup) -> tuple[np.ndarray, float]:
    """Per-token nearest-neighbor indices and the summed squared error."""
    values = _tokens_2d(tokens)
    if values.shape[0] != g.T:
        raise ShapeMismatch(f"{values.shape[0]} tokens vs group T={g.T}")
    if values.shape[1] != g.d:
        raise ShapeMismatch(f"token dim {values.shape[1]} vs codebook dim {g.d}")
    indices, errors = nearest(values[None], g.codes)
    return indices[0].astype(np.int64), float(errors[0].sum())


def group_errors(batch: np.ndarray, pool: CodebookPool) -> np.ndarray:
    """(B, M) total quantization error of each image under each group."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim == 2:
        batch = batch[None]
    return np.stack([nearest(batch, codes)[1].sum(axis=1) for codes in pool.codes], axis=1)


def quantize_routed(tokens, pool: CodebookPool, policy: str = "nn", router=None) -> QuantizedImage:
    """Select a group (NN: minimum total error; CR: learned router), then quantize.

    The NN path never consults router parameters, so its output is identical
    whether or not a router exists.
    """
    values = _tokens_2d(tokens)
    policy = policy.lower()
    if policy == "nn":
        from .router import route_naive

        gi = route_naive(values, pool)
    elif policy == "cr":
        if router is None:
            raise UntrainedRouter("CR policy requires trained router parameters")
        from .router import route_learned

        gi, _ = route_learned(values, router)
    else:
        raise ValueError(f"unknown policy {policy!r}")
    indices, _ = quantize_group(values, TokenSpecificGroup(pool.codes[gi], pool.T))
    return QuantizedImage(group_index=gi, indices=indices)


def dequantize(q: QuantizedImage, pool: CodebookPool) -> np.ndarray:
    """Look the code vectors back up; returns a (T, d) token array."""
    if not 0 <= q.group_index < pool.M:
        raise IndexOutOfRange(f"group {q.group_index} outside [0, {pool.M})")
    if q.indices.shape != (pool.T,):
        raise IndexOutOfRange(f"expected {pool.T} indices, got {q.indices.shape}")
    if (q.indices < 0).any() or (q.indices >= pool.K).any():
        raise IndexOutOfRange("code index outside [0, K)")
    return pool.codes[q.group_index, np.arange(pool.T) % pool.codes.shape[1], q.indices]
