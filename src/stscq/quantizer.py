"""Nearest-neighbor quantization against codebooks, groups, and routed pools.

All distances are squared Euclidean in float64; ties break to the lowest
index so that encoded streams are deterministic.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, CodebookPool, TokenSpecificGroup
from .errors import (BadSpec, DimensionMismatch, HeaderMismatch, IndexOutOfRange, RangeViolation, ShapeMismatch,
                     UntrainedRouter)

# cap on each of search()'s temporaries, and on quantize_corpus()'s (B, M, T)
# search results: an unsliced difference is 256 MiB per image at
# M16/T256/K1024/d8, and re-faulting its pages on every call cost more time
# than taking tokens in slices
_CHUNK_BYTES = 1 << 22
_EPS = np.finfo(np.float64).eps
# threads that search one image's token slices: every CPU this process may run on
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _executor() -> ThreadPoolExecutor:
    """The search threads, started on the first call that has work for them."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="stscq-search")
        return _pool


def _forget_pool() -> None:
    """A forked child has none of its parent's threads; it starts its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@dataclass
class QuantizedImage:
    group_index: int
    indices: np.ndarray  # (T,) ints in [0, K)

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)


def _tokens(x, shape) -> np.ndarray:
    """float64 tokens of `shape` (None: any length) and a real dtype, or ShapeMismatch; finite, or RangeViolation."""
    values = np.asarray(getattr(x, "values", x))
    if values.dtype.kind not in "biuf" or len(values.shape) != len(shape) or any(
            n not in (None, v) for n, v in zip(shape, values.shape)):
        raise ShapeMismatch(f"expected real tokens of shape {shape}, got {values.dtype} of shape {values.shape}")
    values = values.astype(np.float64, copy=False)
    if not np.isfinite(values).all():
        raise RangeViolation("tokens must be finite")
    return values


def _token_corpus(corpus, pool: CodebookPool) -> np.ndarray:
    """(N, T, d) float64 array of N token matrices; a list's are checked one by one: ragged ones do not stack."""
    if isinstance(corpus, np.ndarray):
        return _tokens(corpus, (None, pool.T, pool.d))
    values = [_tokens(t, (pool.T, pool.d)) for t in corpus]
    return np.stack(values) if values else np.empty((0, pool.T, pool.d))


def quantize_one(z: np.ndarray, cb: Codebook) -> tuple[int, float]:
    """Index of the nearest code and the attained squared distance."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (cb.d,):
        raise DimensionMismatch(f"vector of dim {z.shape} vs codebook dim {cb.d}")
    indices, errors = search(z[None, None], cb.codes[None, None])
    return int(indices[0, 0, 0]), float(errors[0, 0, 0])


def search(batch: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest code per (image, group, token): (B, M, T) indices and squared errors.

    batch is (B, T, d); codes is (M, T', K, d), where T' = 1 is one codebook
    per group shared by every token. Ties go to the lowest index, and every
    index and error is the one the difference form Σ(z − c)² gives.

    One image is searched by the difference form alone. A batch that shares one
    codebook across its T tokens (T' = 1) is searched as B·T one-token images,
    so each group's codes meet every token in one product. Otherwise each slice
    of tokens screens every image of the batch with s = ‖c‖² − 2z·c, which is
    ‖z − c‖² − ‖z‖². Codes with s within a rounding margin of the row's minimum
    are the candidates. A row with one candidate takes it, with its error from
    the difference form; a row with several (a tie or a near-tie) or none (a
    non-finite value) is searched again by the difference form over all K.
    So the matmul's bits, which vary with the BLAS kernel, only choose
    candidates and never reach an index or an error. Every temporary stays
    within _CHUNK_BYTES, but for the small-K copy of the codes with their
    norms, which takes (d + 1)/d of that.
    """
    B, T, d = batch.shape
    if B == 1:
        # the screen's pass over the codes would cost one image more than the
        # threaded difference form does (113–136 against 50–106 ms at
        # M16/T256/K1024 on 2 CPUs, and 60–62 ms in process once the
        # difference form allocated its buffers once per call)
        indices, errors = _difference_search(batch[0], codes)
        return indices[None], errors[None]
    M, Tc, K, _ = codes.shape
    if Tc == 1 and T > 1:
        # C order, as callers sum the errors over T with numpy's pairwise loop
        found = search(batch.reshape(B * T, 1, d), codes)
        return tuple(np.ascontiguousarray(a.reshape(B, T, M).transpose(0, 2, 1)) for a in found)
    indices = np.empty((B, M, T), dtype=np.intp)
    errors = np.empty((B, M, T))
    tally = _tally(K)
    # the largest temporaries: the codes of a slice of tokens, and the screen
    # values (or the chosen codes' differences) of a slice of (image, token)
    # pairs; at small K the codes' copy with their norms has d + 1 columns
    nt = max(1, min(T, _CHUNK_BYTES // (8 * M * K * d)))
    nb = max(1, _CHUNK_BYTES // (8 * M * max(K, d) * nt))
    step = max(1, _CHUNK_BYTES // (8 * K * d))  # rows searched again at a time
    # reduce over K along whichever of K and the images is longer: at K=1024
    # over each row's contiguous codes; at K=16 over the code axis laid out
    # outside the groups and images, where one product per token serves every
    # group and the minimum is taken over whole (group, image) rows
    k_inner = K >= min(B, nb)
    # The screen's error bound. With u = ε/2 and γ_n = nu/(1 − nu), a dot
    # product of n terms in any order, with or without FMA, is off by at most
    # γ_n Σ|x_i y_i|. s is the computed ‖c‖² (off by γ_d ‖c‖²) either added to
    # −2z·c or folded in as the (d+1)-th term of [−2z, 1]·[c, ‖c‖²]; both ways
    # |s − s*| ≤ γ_{2d+1}(2‖z‖‖c‖ + ‖c‖²) ≤ γ_{2d+1} R² ≤ 2γ_{d+2} R² for any
    # R ≥ ‖z‖ + ‖c‖. The difference form's distance D is off by at most
    # γ_{d+2}‖z − c‖² ≤ γ_{d+2} R². If k* is the difference form's argmin and j
    # the screen's, D_k* ≤ D_j gives s_k* ≤ s_j + 6γ_{d+2} R². The margin
    # 8(d + 2)ε R² is more than twice that, so k* is always a candidate, and a
    # row with one candidate has found k*. R is √d times the batch's largest
    # |z_i|, which is at least any ‖z‖, plus the largest ‖c‖ of the slice; a
    # non-finite code makes it inf or NaN, and then every row of the slice is
    # searched again.
    scale = 8 * (d + 2) * _EPS
    z_reach = np.sqrt(d) * max(batch.max(initial=0.0), -batch.min(initial=0.0))
    for t in range(0, T, nt):
        # an aligned, contiguous copy when the slice is not one already (a
        # mapped pool's codes sit 5 bytes off alignment), so that matmul and
        # take read it in place; T' is T here, or T is 1
        c = np.require(codes[:, t : t + nt], requirements="CA")
        nc = c.shape[1]
        row0 = (np.arange(nc)[:, None] + np.arange(M) * nc)[..., None] * K  # (nt, M, 1): each (token, group)'s first code
        norms = np.einsum("mtkd,mtkd->mtk", c, c)
        margin = scale * (np.sqrt(norms.max(initial=0.0)) + z_reach) ** 2
        if not k_inner:
            # [c, ‖c‖²] as (token, code, group) rows: one product per token is s
            aug = np.empty((nc, K, M, d + 1))
            aug[..., :d] = c.transpose(1, 2, 0, 3)
            aug[..., d] = norms.transpose(1, 2, 0)
            aug = aug.reshape(nc, K * M, d + 1)
        for b in range(0, B, nb):
            z = np.ascontiguousarray(batch[b : b + nb, t : t + nt].transpose(1, 0, 2))  # (nt, nb, d)
            n = z.shape[1]
            # a non-finite code makes inf − inf here; NaN compares false, so
            # its row has no candidate and the difference form searches it again
            with np.errstate(invalid="ignore"):
                if k_inner:
                    s = (-2 * z) @ c.swapaxes(2, 3)  # (M, nt, nb, K)
                    s += norms[:, :, None]
                    bound = s.min(axis=3, keepdims=True)
                    bound += margin
                    candidates = np.less_equal(s, bound, out=s, casting="unsafe")  # 1.0 or 0.0, in place
                    # sums of 0s, 1s and indices below K: exact in any order
                    count, idx = np.moveaxis(candidates @ tally.T, 3, 0).swapaxes(1, 2)  # (nt, M, nb) each
                else:
                    q = np.empty((nc, d + 1, n))  # [−2z, 1] per token
                    np.multiply(z.transpose(0, 2, 1), -2, out=q[:, :d])
                    q[:, d] = 1
                    s = (aug @ q).reshape(nc, K, M * n)
                    bound = s.min(axis=1, keepdims=True)
                    bound += margin
                    candidates = np.less_equal(s, bound, out=s, casting="unsafe")
                    count, idx = (tally @ candidates).reshape(nc, 2, M, n).swapaxes(0, 1)
            idx = idx.astype(np.intp)
            # a row with several candidates sums their indices, which may point past
            # its own codes; clip keeps them inside c, and the row is searched again
            diff = np.take(c.reshape(-1, d), row0 + idx, axis=0, mode="clip")
            np.subtract(z[:, None], diff, out=diff)
            err = np.einsum("tmbd,tmbd->tmb", diff, diff)
            retry = np.nonzero(count != 1)
            for r in range(0, len(retry[0]), step):
                tt, m, bb = (rows[r : r + step] for rows in retry)
                # the rows as the tokens of one image, each with its own codebook
                i, e = _difference_search(z[tt, bb], c[m, tt][None])
                idx[tt, m, bb], err[tt, m, bb] = i[0], e[0]
            indices[b : b + nb, :, t : t + nt] = idx.transpose(2, 1, 0)
            errors[b : b + nb, :, t : t + nt] = err.transpose(2, 1, 0)
    return indices, errors


@functools.lru_cache(maxsize=16)
def _tally(K: int) -> np.ndarray:
    """Rows of 1s and of 0..K−1: a product counts a row's candidates and sums their indices."""
    tally = np.stack([np.ones(K), np.arange(K)])
    tally.flags.writeable = False
    return tally


def _difference_search(tokens: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest code to each of one image's (T, d) tokens in each group by the
    difference form Σ(z − c)² over all K: (M, T) indices and squared errors.

    Tokens are taken in slices so the differences and the tokens repeated K
    times stay within _CHUNK_BYTES across all of _WORKERS. Each worker
    allocates them, and the distances (1/d of the differences), once per call
    and refills them slice by slice. A call with two or more slices splits
    them over the worker threads, one contiguous range of tokens each (numpy's
    loops release the GIL); each slice writes its own columns of the results
    with the same arithmetic, so the bits do not depend on the split.
    """
    T, d = tokens.shape
    M, _, K, _ = codes.shape
    codes = np.broadcast_to(codes, (M, T, K, d))
    indices = np.empty((M, T), dtype=np.intp)
    errors = np.empty((M, T))
    nt = max(1, _CHUNK_BYTES // (8 * (M + 1) * K * d * _WORKERS))

    def search_tokens(lo: int, hi: int) -> None:
        # one set of buffers per call and worker, laid out token-major so that
        # a short last slice is their leading rows, still contiguous: the flat
        # views below must be views, not copies
        n = min(nt, hi - lo)
        z_buf, diff_buf, dists_buf = np.empty((n, K, d)), np.empty((n, M, K, d)), np.empty((n, M, K))
        groups = np.arange(M)
        for t in range(lo, hi, nt):
            s = slice(t, min(t + nt, hi))
            w = s.stop - t
            z, diff, dists = z_buf[:w], diff_buf[:w], dists_buf[:w]
            # with each token repeated K times, the subtraction runs over
            # contiguous (K, d) rows instead of d values at a time
            z[...] = tokens[s, None, :]
            # a mapped pool's codes sit 5 bytes off 8-byte alignment, where numpy
            # subtracts in a slower loop; copy them into the aligned difference
            # buffer and subtract in place (the same bits as z - codes)
            diff[...] = codes[:, s].swapaxes(0, 1)
            np.subtract(z[:, None], diff, out=diff)
            # each row's d squares summed as by "mtkd,mtkd->mtk", without the
            # 4-D iterator
            rows = diff.reshape(-1, d)
            np.einsum("kd,kd->k", rows, rows, out=dists.reshape(-1))
            idx = dists.argmin(axis=2)  # argmin returns the first minimum: lowest index
            indices[:, s] = idx.T
            errors[:, s] = dists[np.arange(w)[:, None], groups, idx].T

    slices = -(-T // nt)
    workers = min(_WORKERS, slices)
    if workers < 2:
        search_tokens(0, T)
    else:
        # one contiguous range of whole slices per worker, as even as they go
        ends = [nt * (slices * w // workers) for w in range(workers)] + [T]
        for done in [_executor().submit(search_tokens, lo, hi) for lo, hi in zip(ends, ends[1:])]:
            done.result()
    return indices, errors


def quantize_group(tokens, g: TokenSpecificGroup) -> tuple[np.ndarray, float]:
    """Per-token nearest-neighbor indices and the summed squared error."""
    values = _tokens(tokens, (g.T, g.d))
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
    whether or not a router exists. Any other policy is quantize_corpus over
    one image, which checks the policy and the router against the pool.
    """
    if policy.lower() != "nn":
        groups, indices, _ = quantize_corpus([tokens], pool, policy, router)
        return QuantizedImage(group_index=int(groups[0]), indices=indices[0])
    from .router import route_naive

    gi = route_naive(tokens, pool)
    indices, _ = quantize_group(tokens, TokenSpecificGroup(pool.codes[gi], pool.T))
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
            if not np.isfinite(totals[rows, g]).all():  # argmin takes the first NaN
                raise RangeViolation("the nearest group's error is not finite: a code is non-finite or overflows")
            groups[s : s + step], indices[s : s + step], errors[s : s + step] = g, idx[rows, g], totals[rows, g]
    elif policy == "cr":
        if router is None:
            raise UntrainedRouter("CR policy requires trained router parameters")
        if router.M != pool.M:
            raise HeaderMismatch(f"the router scores M={router.M} groups, the pool has M={pool.M}")
        from .router import _finite_probs

        groups = _finite_probs(values.mean(axis=1), router).argmax(axis=1)
        for m in np.unique(groups):
            rows = np.flatnonzero(groups == m)
            idx, err = search(values[rows], pool.codes[m : m + 1])
            indices[rows], errors[rows] = idx[:, 0], err[:, 0].sum(axis=1)
    else:
        raise BadSpec(f"unknown policy {policy!r}")
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
    z = codes_at(pool, q.group_index, q.indices)
    # only the gathered rows: a full pass over a mapped pool would read all of it
    if not np.isfinite(z).all():
        raise RangeViolation(f"group {q.group_index}'s codes at the stream's indices are not finite")
    return z
