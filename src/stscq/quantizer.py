"""Nearest-neighbor quantization against codebooks, groups, and routed pools.

All distances are squared Euclidean in float64; ties break to the lowest
index so that encoded streams are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, CodebookPool, TokenSpecificGroup
from .errors import DimensionMismatch, IndexOutOfRange, RangeViolation, ShapeMismatch, UntrainedRouter

# cap on search()'s difference temporary, and on quantize_corpus()'s (B, M, T)
# search results: an unsliced difference is 256 MiB per image at
# M16/T256/K1024/d8, and re-faulting its pages on every call cost more time
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


def _token_corpus(corpus, pool: CodebookPool) -> np.ndarray:
    """(N, T, d) float64 array of a corpus of token matrices, checked like _tokens_2d."""
    if not isinstance(corpus, np.ndarray):
        corpus = [np.asarray(getattr(t, "values", t)) for t in corpus]
        if any(t.shape != (pool.T, pool.d) for t in corpus):
            raise ShapeMismatch(f"token matrices must be (T={pool.T}, d={pool.d})")
        corpus = np.stack(corpus) if corpus else np.empty((0, pool.T, pool.d))
    values = np.asarray(corpus, dtype=np.float64)
    if values.shape[1:] != (pool.T, pool.d):
        raise ShapeMismatch(f"expected (N, T={pool.T}, d={pool.d}) tokens, got shape {values.shape}")
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


def search(batch: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest code per (image, group, token): (B, M, T) indices and squared errors.

    batch is (B, T, d); codes is (M, T', K, d), where T' = 1 is one codebook
    per group shared by every token. Ties go to the lowest index. Images, and
    tokens when one image is too large, are taken in slices so the difference
    temporary and the tokens repeated K times stay within _CHUNK_BYTES.
    """
    B, T, d = batch.shape
    M, _, K, _ = codes.shape
    codes = np.broadcast_to(codes, (M, T, K, d))
    indices = np.empty((B, M, T), dtype=np.intp)
    errors = np.empty((B, M, T))
    token_bytes = 8 * (M + 1) * K * d
    nt = min(T, max(1, _CHUNK_BYTES // token_bytes))
    nb = max(1, _CHUNK_BYTES // (token_bytes * nt))
    for b in range(0, B, nb):
        for t in range(0, T, nt):
            # with each token repeated K times, the subtraction runs over
            # contiguous (K, d) rows instead of d values at a time
            z = np.repeat(batch[b : b + nb, t : t + nt, None, :], K, axis=2)
            diff = z[:, None] - codes[None, :, t : t + nt]
            dists = np.einsum("bmtkd,bmtkd->bmtk", diff, diff)
            idx = dists.argmin(axis=3)  # argmin returns the first minimum: lowest index
            indices[b : b + nb, :, t : t + nt] = idx
            errors[b : b + nb, :, t : t + nt] = np.take_along_axis(dists, idx[..., None], axis=3)[..., 0]
    return indices, errors


def quantize_group(tokens, g: TokenSpecificGroup) -> tuple[np.ndarray, float]:
    """Per-token nearest-neighbor indices and the summed squared error."""
    values = _tokens_2d(tokens)
    if values.shape[0] != g.T:
        raise ShapeMismatch(f"{values.shape[0]} tokens vs group T={g.T}")
    if values.shape[1] != g.d:
        raise ShapeMismatch(f"token dim {values.shape[1]} vs codebook dim {g.d}")
    indices, errors = search(values[None], g.codes[None])
    return indices[0, 0].astype(np.int64), float(errors[0, 0].sum())


def group_errors(batch: np.ndarray, pool: CodebookPool) -> np.ndarray:
    """(B, M) total quantization error of each image under each group."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim == 2:
        batch = batch[None]
    return search(batch, pool.codes)[1].sum(axis=2)


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


def quantize_corpus(corpus, pool: CodebookPool, policy: str = "nn", router=None):
    """quantize_routed over N token matrices: (N,) groups, (N, T) indices and
    the (N,) total squared error of each image under its group.

    NN makes one search over all groups per chunk of images, sized so the
    (B, M, T) search results stay within _CHUNK_BYTES; ties go to the lowest
    group. CR searches each chosen group once, over the images routed to it.
    """
    values = _token_corpus(corpus, pool)
    N, T = len(values), pool.T
    indices = np.empty((N, T), dtype=np.intp)
    errors = np.empty(N)
    policy = policy.lower()
    if policy == "nn":
        groups = np.empty(N, dtype=np.intp)
        step = max(1, _CHUNK_BYTES // (16 * pool.M * T))
        for s in range(0, N, step):
            idx, err = search(values[s : s + step], pool.codes)
            totals = err.sum(axis=2)
            g = totals.argmin(axis=1)
            rows = np.arange(len(g))
            groups[s : s + step], indices[s : s + step], errors[s : s + step] = g, idx[rows, g], totals[rows, g]
    elif policy == "cr":
        if router is None:
            raise UntrainedRouter("CR policy requires trained router parameters")
        from .router import router_probs

        groups = router_probs(values.mean(axis=1), router).argmax(axis=1)
        for m in np.unique(groups):
            rows = np.flatnonzero(groups == m)
            idx, err = search(values[rows], pool.codes[m : m + 1])
            indices[rows], errors[rows] = idx[:, 0], err[:, 0].sum(axis=1)
    else:
        raise ValueError(f"unknown policy {policy!r}")
    return groups, indices, errors


def codes_at(pool: CodebookPool, groups, indices) -> np.ndarray:
    """The code vectors at group(s) and (..., T) indices: (..., T, d)."""
    return pool.codes[np.asarray(groups)[..., None], np.arange(pool.T) % pool.codes.shape[1], indices]


def dequantize(q: QuantizedImage, pool: CodebookPool) -> np.ndarray:
    """Look the code vectors back up; returns a (T, d) token array."""
    if not 0 <= q.group_index < pool.M:
        raise IndexOutOfRange(f"group {q.group_index} outside [0, {pool.M})")
    if q.indices.shape != (pool.T,):
        raise IndexOutOfRange(f"expected {pool.T} indices, got {q.indices.shape}")
    if (q.indices < 0).any() or (q.indices >= pool.K).any():
        raise IndexOutOfRange("code index outside [0, K)")
    return codes_at(pool, q.group_index, q.indices)
