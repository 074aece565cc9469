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

from . import window
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


def _tokens(x, shape, mismatch=ShapeMismatch) -> np.ndarray:
    """float64 tokens of `shape` (None: any length) and a real dtype, or `mismatch`; finite, or RangeViolation."""
    try:
        values = np.asarray(getattr(x, "values", x))
    except ValueError:  # numpy's "inhomogeneous shape": a ragged nesting
        raise ShapeMismatch(f"expected real tokens of shape {shape}, got a ragged nesting") from None
    if values.dtype.kind not in "biuf" or len(values.shape) != len(shape) or any(
            n not in (None, v) for n, v in zip(shape, values.shape)):
        raise mismatch(f"expected real tokens of shape {shape}, got {values.dtype} of shape {values.shape}")
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
    indices, errors = search(_tokens(z, (cb.d,), DimensionMismatch)[None, None], cb.codes[None, None])
    return int(indices[0, 0, 0]), float(errors[0, 0, 0])


def search(batch: np.ndarray, codes: np.ndarray, index=None) -> tuple[np.ndarray, np.ndarray]:
    """Nearest code per (image, group, token): (B, M, T) indices and squared errors.

    batch is (B, T, d); codes is (M, T', K, d), where T' = 1 is one codebook
    per group shared by every token. Ties go to the lowest index, and every
    index and error is the one the difference form Σ(z − c)² gives.

    One image is searched through `index`, a window.WindowIndex of `codes`,
    when there is one (_window_search), which then never reads `codes`; else by
    the difference form alone, over each (group, token)'s whole codebook as one
    block (_block_search). A batch that shares one codebook across its T tokens
    (T' = 1) is searched as B·T one-token images, so each group's codes meet
    every token in one product. Otherwise each slice of tokens screens every
    image of the batch with s = ‖c‖² − 2z·c, which is ‖z − c‖² − ‖z‖², from one
    product per token of [c, ‖c‖²] and [−2z, 1]. Codes with s within a rounding
    margin of the row's minimum are the candidates. A row with one candidate
    takes it, with its error from the difference form; a row with several (a
    tie or a near-tie) or none (a non-finite value) is searched again by the
    difference form over all K (_settle). So the matmul's bits, which vary with
    the BLAS kernel, only choose candidates and never reach an index or an
    error. Every temporary stays within _CHUNK_BYTES, but for the copy of the
    codes with their norms, which takes (d + 1)/d of that.
    """
    B, T, d = batch.shape
    M, Tc, K, _ = codes.shape
    if B == 1 and index is not None:
        indices, errors = _window_search(batch[0], index)
        return indices[None], errors[None]
    if B == 1:
        # the screen's pass over the codes would cost one image more: 113–136
        # against 50–106 ms at M16/T256/K1024 on 2 CPUs
        at = np.arange(M * Tc).reshape(M, Tc).repeat(T // Tc, axis=1)  # (M, T): each (group, token)'s codebook
        indices, errors = _block_search(batch[0], codes.reshape(-1, K, d), at)
        return indices[None], errors[None]
    if Tc == 1 and T > 1:
        # C order, as callers sum the errors over T with numpy's pairwise loop
        found = search(batch.reshape(B * T, 1, d), codes)
        return tuple(np.ascontiguousarray(a.reshape(B, T, M).transpose(0, 2, 1)) for a in found)
    indices = np.empty((B, M, T), dtype=np.intp)
    errors = np.empty((B, M, T))
    tally = _tally(K)
    # the largest temporaries: the codes of a slice of tokens, and the screen
    # values (or the chosen codes' differences) of a slice of (image, token)
    # pairs; sized for d columns, not the d + 1 of the codes' copy with their
    # norms: sized for d + 1, one call at K=1024 re-faulted 161k pages
    nt = max(1, min(T, _CHUNK_BYTES // (8 * M * K * d)))
    nb = max(1, _CHUNK_BYTES // (8 * M * max(K, d) * nt))
    # The screen's error bound. With u = ε/2 and γ_n = nu/(1 − nu), a dot
    # product of n terms in any order, with or without FMA, is off by at most
    # γ_n Σ|x_i y_i|. s is the computed ‖c‖² (off by γ_d ‖c‖²) folded in as the
    # (d+1)-th term of [−2z, 1]·[c, ‖c‖²], so
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
        book = np.arange(nc)[:, None] + np.arange(M) * nc  # (nt, M): each (token, group)'s codebook in c
        norms = np.einsum("mtkd,mtkd->mtk", c, c)
        margin = scale * (np.sqrt(norms.max(initial=0.0)) + z_reach) ** 2
        # [c, ‖c‖²] as (token, code, group) rows: one product per token is s
        aug = np.empty((nc, K, M, d + 1))
        aug[..., :d] = c.transpose(1, 2, 0, 3)
        aug[..., d] = norms.transpose(1, 2, 0)
        aug = aug.reshape(nc, K * M, d + 1)
        for b in range(0, B, nb):
            z = np.ascontiguousarray(batch[b : b + nb, t : t + nt].transpose(1, 0, 2))  # (nt, nb, d)
            n = z.shape[1]
            q = np.empty((nc, d + 1, n))  # [−2z, 1] per token
            np.multiply(z.transpose(0, 2, 1), -2, out=q[:, :d])
            q[:, d] = 1
            # a non-finite code makes inf − inf here; NaN compares false, so
            # its row has no candidate and the difference form searches it again
            with np.errstate(invalid="ignore"):
                s = (aug @ q).reshape(nc, K, M * n)
                bound = s.min(axis=1, keepdims=True)
                bound += margin
                candidates = np.less_equal(s, bound, out=s, casting="unsafe")  # 1.0 or 0.0, in place
            # sums of 0s, 1s and indices below K: exact in any order
            count, idx = (tally @ candidates).reshape(nc, 2, M, n).swapaxes(0, 1)  # (nt, M, nb) each
            # (token, group, image) rows: a row with one candidate has found it
            idx, err = _settle(z[:, None], c.reshape(-1, K, d), book[..., None], idx.astype(np.intp), count == 1)
            indices[b : b + nb, :, t : t + nt] = idx.transpose(2, 1, 0)
            errors[b : b + nb, :, t : t + nt] = err.transpose(2, 1, 0)
    return indices, errors


def _settle(z, books, book, idx, certified) -> tuple[np.ndarray, np.ndarray]:
    """The exact end of the batch screen: each row's nearest code and its
    squared error, with the difference form's bits and ties.

    The rows are the positions of the arrays idx and `certified`, and the
    tokens z (..., d) and the codebook numbers `book` broadcast to them.
    A row searches codebook books[book] (of (R, K, d)) for its token; idx is
    the screen's candidate in it. A certified row, one with a single
    candidate, takes idx and that code's difference-form error. The other
    rows, whose idx may be any integer, are searched over all K by
    _block_search, as the tokens of one image.
    """
    K, d = books.shape[1:]
    # clip keeps an uncertified candidate, which may point anywhere, inside books
    diff = np.take(books.reshape(-1, d), book * K + idx, axis=0, mode="clip")
    np.subtract(z, diff, out=diff)
    err = np.einsum("...d,...d->...", diff, diff)
    retry = np.nonzero(~certified)
    if len(retry[0]):
        rows = np.broadcast_to(book, idx.shape)[retry]
        i, e = _block_search(np.broadcast_to(z, idx.shape + (d,))[retry], books, rows[None])
        idx[retry], err[retry] = i[0], e[0]
    return idx, err


def _window_search(tokens: np.ndarray, index) -> tuple[np.ndarray, np.ndarray]:
    """One image's (T, d) tokens through a window.WindowIndex: (M, T) code
    indices and squared errors, the difference form's over all K, bit for bit.

    Every (group, token) row first searches a window of W sorted codes at the
    token's rank among its codebook's projections (_window_pass). The rows it
    does not certify search a window twice as wide at the same rank, and so on;
    the last width is all K, a window whose edges are its codebook's own, so it
    certifies every row it gets. Each pass splits its token slices over the
    worker threads in _block_search. `index.codes` is the only code array read.
    """
    T, d = tokens.shape
    M, _, K, _ = index.codes.shape
    books = index.codes.reshape(-1, K, d)
    book = np.arange(M * T).reshape(M, T)  # each row's codebook in books
    perm = index.perm.reshape(-1)
    pz = np.einsum("mtd,td->mt", index.axes, tokens)
    # the marks give each token's rank to within MARK codes; every window centres on it
    rank = window.MARK * (index.marks <= pz[..., None]).sum(axis=2)
    idx, err, certified = _window_pass(tokens, books, book, index.axes, pz, rank, index.W, perm)
    width, rows = min(2 * index.W, K), np.nonzero(~certified)
    while len(rows[0]):
        pos, e, c = _window_pass(tokens[rows[1]], books, book[rows][None], index.axes[rows][None], pz[rows][None],
                                 rank[rows][None], width, perm)
        idx[rows], err[rows] = pos[0], e[0]
        width, rows = min(2 * width, K), tuple(r[~c[0]] for r in rows)
    return perm[book * K + idx].astype(np.intp), err


def _window_pass(z, books, book, axes, pz, rank, width: int, perm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One window of `width` sorted codes per row of the (G, n) arrays book,
    pz and rank: (G, n) positions in the row's codebook, squared errors, and
    whether each is certified as the difference form's over all K.

    A row searches codebook books[book] (of (R, K, d), sorted by projection on
    the row's axis, axes (G, n, d)) for token z[t] (of (n, d)); pz is the
    token's projection and rank its position among the sorted projections.
    The window centres on the rank, is copied as one block and searched by the
    difference form; of the codes at its minimum, the one with the lowest code
    index, perm (flat) of the flattened books, is the row's candidate. The row
    is certified when neither edge can hide a code as near: each edge is the
    codebook's own, or the first code past it is farther from the token in
    projection than the square root of the window's best, with a margin.
    """
    K, d = books.shape[1:]
    flat = books.reshape(-1, d)
    first = book * K  # each row's first code in flat
    # windows are taken as whole blocks of B codes: MARK of them when K and the
    # width are multiples of MARK, else single codes
    B = window.MARK if K % window.MARK == width % window.MARK == 0 else 1
    start = np.clip((rank - width // 2) // B * B, 0, K - width)
    j, best = _block_search(z, flat.reshape(-1, B, d), (first + start) // B, width // B, perm)
    # The certificate. With u = ε/2 and γ_n = nu/(1 − nu), a computed projection
    # of x on the axis p, a dot product of d terms in any order, is off by at
    # most γ_d Σ|p_i x_i| ≤ γ_d P‖x‖₁, where P = ‖p‖; so are the keys the index
    # was sorted by. Let c be any code left of the window and c_L the first code
    # past its left edge, so key(c) ≤ key(c_L). Were c's difference-form distance
    # no more than the window's best D̂, its exact distance D would be at most
    # D̂/(1 − γ_{d+2}) (the screen's bound in search), so ‖c‖ ≤ ‖z‖₁ + √D and,
    # as p·(z − c) ≤ P√D, the computed projections would give
    #   π(z) − π(c_L) ≤ p·(z − c) + γ_d P(‖z‖₁ + 2‖c_L‖₁ + ‖c‖)
    #                ≤ P√D̂ (1 + γ_d)(1 + γ_{d+2}) + 2γ_d P(‖z‖₁ + ‖c_L‖₁).
    # The slack s = 4(d + 2)ε in P̂(√D̂ + s(√D̂ + ‖z‖₁ + ‖c_L‖₁)), P̂ the computed
    # ‖p‖, is more than twice the (d + 1)ε and dε these factors need, which
    # covers P̂ against P and the dozen roundings of computing the gap and the
    # bound. So a gap above it leaves every code left of the window strictly
    # farther than the window's best in the difference form's own arithmetic;
    # the right edge is the mirror image. The slack is absolute in ‖z‖₁ and
    # ‖c_L‖₁: the projections' rounding does not shrink with the distance. A
    # non-finite distance or bound certifies nothing.
    edge = np.stack([start - 1, start + width], axis=-1)  # (G, n, 2): the first code past each edge
    past = flat[first[..., None] + np.clip(edge, 0, K - 1)]  # (G, n, 2, d)
    gap = np.einsum("gnsd,gnd->gns", past, axes) - pz[..., None]
    gap[..., 0] *= -1
    r = np.sqrt(best)[..., None]
    scale = 4 * (d + 2) * _EPS
    reach = np.sqrt(np.einsum("gnd,gnd->gn", axes, axes))[..., None] * (
        r + scale * (r + np.abs(z).sum(axis=1)[:, None] + np.abs(past).sum(axis=3)))
    certified = ((gap > reach) | (edge < 0) | (edge >= K)).all(axis=2)
    return start + j, best, certified


def _block_search(z: np.ndarray, blocks: np.ndarray, at: np.ndarray, span: int = 1,
                  perm=None) -> tuple[np.ndarray, np.ndarray]:
    """The nearest code to token z[t] (of (T, d)) among the L = span·B codes of
    `span` consecutive blocks from blocks[at[g, t]], for each (g, t) of the
    (G, T) `at`: (G, T) positions among those L codes and squared errors, by the
    difference form Σ(z − c)². It searches one image over whole codebooks
    (B = K), every window of the index, the last of which is all K wide, and
    every row the batch screen leaves to _settle. blocks is an (N, B, d)
    array. Ties go to the first position, or with `perm`, the code index of
    each code of the flattened blocks, to the lowest code index.

    Token slices keep the differences and the tokens repeated L times within
    _CHUNK_BYTES across all of _WORKERS (the distances add 1/d); each worker
    allocates them once per call and refills them slice by slice. Two or more
    slices are split over the worker threads, one contiguous range of tokens
    each; each slice writes its own columns with the same arithmetic, so the
    bits do not depend on the split.
    """
    G, T = at.shape
    B, d = blocks.shape[1:]
    L = span * B
    # blocks are taken as bytes: np.take copies an unaligned source whole (a
    # mapped pool's codes sit 5 bytes off alignment), a uint8 one never
    source = np.ascontiguousarray(blocks).view(np.uint8)
    runs = at[..., None] + np.arange(span)  # (G, T, span) block numbers
    pos = np.empty((G, T), dtype=np.intp)
    errors = np.empty((G, T))
    nt = max(1, _CHUNK_BYTES // (8 * (G + 1) * L * d * _WORKERS))

    def search_tokens(lo: int, hi: int) -> None:
        n = min(nt, hi - lo)
        z_buf, diff_buf, dists_buf = np.empty((n, L, d)), np.empty(G * n * L * d), np.empty(G * n * L)
        groups, rows = np.arange(G)[:, None], np.arange(n)
        for t in range(lo, hi, nt):
            s = slice(t, min(t + nt, hi))
            w = s.stop - t
            diff = diff_buf[: G * w * L * d].reshape(G, w, span, B, d)
            # "clip" writes straight into out; every block index is in range
            source.take(runs[:, s], axis=0, out=diff.view(np.uint8), mode="clip")
            diff = diff.reshape(G, w, L, d)
            # with each token repeated L times, the subtraction runs over
            # contiguous (L, d) rows instead of d values at a time
            zr = z_buf[:w]
            zr[...] = z[s, None]
            np.subtract(zr, diff, out=diff)
            dists = dists_buf[: G * w * L].reshape(G, w, L)
            np.einsum("kd,kd->k", diff.reshape(-1, d), diff.reshape(-1, d), out=dists.reshape(-1))
            j = dists.argmin(axis=2)  # argmin returns the first minimum
            best = dists[groups, rows[:w], j]
            if perm is not None:
                tied = np.nonzero((dists == best[..., None]).sum(axis=2) > 1)
                if len(tied[0]):  # rare: of the codes at the minimum, the lowest code index
                    codes = perm[at[:, s][tied][:, None] * B + np.arange(L)]
                    j[tied] = np.where(dists[tied] == best[tied][:, None], codes, np.iinfo(codes.dtype).max).argmin(axis=1)
            pos[:, s], errors[:, s] = j, best

    _over_workers(T, nt, search_tokens)
    return pos, errors


@functools.lru_cache(maxsize=16)
def _tally(K: int) -> np.ndarray:
    """Rows of 1s and of 0..K−1: a product counts a row's candidates and sums their indices."""
    tally = np.stack([np.ones(K), np.arange(K)])
    tally.flags.writeable = False
    return tally


def _over_workers(n: int, step: int, work) -> None:
    """work(lo, hi) over range(n) in slices of `step`: serially for one slice,
    else one contiguous range of whole slices per worker thread, as even as they go."""
    slices = -(-n // step)
    workers = min(_WORKERS, slices)
    if workers < 2:
        work(0, n)
        return
    ends = [step * (slices * w // workers) for w in range(workers)] + [n]
    for done in [_executor().submit(work, lo, hi) for lo, hi in zip(ends, ends[1:])]:
        done.result()


def quantize_group(tokens, g: TokenSpecificGroup, index=None) -> tuple[np.ndarray, float]:
    """Per-token nearest-neighbor indices and the summed squared error; `index`
    is the window index of g's codes, if there is one."""
    values = _tokens(tokens, (g.T, g.d))
    indices, errors = search(values[None], g.codes[None], index)
    return indices[0, 0].astype(np.int64), float(errors[0, 0].sum())


def group_errors(batch: np.ndarray, pool: CodebookPool) -> np.ndarray:
    """(B, M) total quantization error of each image under each group."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim == 2:
        batch = batch[None]
    return search(batch, pool.codes, pool.index if len(batch) == 1 else None)[1].sum(axis=2)


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
    index = pool.index and pool.index.group(gi)
    indices, _ = quantize_group(tokens, TokenSpecificGroup(pool.codes[gi], pool.T), index)
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
