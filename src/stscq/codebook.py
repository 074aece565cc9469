"""Codebooks, switchable pools and the pool file.

A pool holds M switchable groups of K codes of dimension d for T token
positions, stored as one float64 array of shape (M, T', K, d). T' = 1 gives
each group one codebook that every token shares (stage 1); T' = T gives each
token position its own (stage 2). `Codebook` is the single (K, d) codebook
that k-means++ produces and `quantize_one` searches. `TokenSpecificGroup`
is one group's (T', K, d) slice; it and `CodebookPool` also accept lists of
Codebook / TokenSpecificGroup objects, where the same Codebook object at
every token position means a shared codebook.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import artifact, window
from .errors import HeaderMismatch, RangeViolation, ShapeMismatch, TooFewSamples

POOL_MAGIC = b"STSCQPOOL"
POOL_VERSION = 1
_POOL_HEADER = "<BHHIHB"  # version, M, T, K, d, flag
# flag byte -> (token_shared, frozen). 0 and 1 keep the meaning they had when
# frozen was inferred as "not token-shared"; 2 and 3 are the other two states,
# e.g. a stage-2 pool at T = 1, which is token-shared and frozen.
_POOL_STATES = {0: (False, True), 1: (True, False), 2: (False, False), 3: (True, True)}
_POOL_FLAGS = {state: flag for flag, state in _POOL_STATES.items()}


def bit_width(n: int) -> int:
    """ceil(log2 n) for n >= 1; 0 when a single choice needs no bits."""
    if n < 1:
        raise RangeViolation(f"bit_width needs n >= 1, got {n}")
    return (n - 1).bit_length()


@dataclass
class Codebook:
    codes: np.ndarray  # (K, d) float64

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=np.float64)
        if self.codes.ndim != 2 or self.codes.shape[0] < 1:
            raise ShapeMismatch(f"codes must be a (K, d) array with K >= 1, got {self.codes.shape}")

    @property
    def K(self) -> int:
        return self.codes.shape[0]

    @property
    def d(self) -> int:
        return self.codes.shape[1]


def _check_codes(codes: np.ndarray, ndim: int, T: int) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.float64)
    if codes.ndim != ndim or 0 in codes.shape or codes.shape[-3] not in (1, T):
        raise ShapeMismatch(f"codes must be a non-empty {ndim}-d array with T' in (1, {T}), got {codes.shape}")
    return codes


class TokenSpecificGroup:
    """One switchable group: a (T', K, d) code array serving T tokens.

    Built from that array and T, which it keeps without copying, or from a
    list of T Codebooks, where the same object T times is one shared codebook.
    """

    def __init__(self, codes, T: int | None = None):
        if isinstance(codes, list):
            if not codes:
                raise ShapeMismatch("group needs at least one sub-codebook")
            first, T = codes[0], len(codes)
            shared = all(cb is first for cb in codes)
            codes = first.codes[None] if shared else np.stack([cb.codes for cb in codes])
        self.T = codes.shape[0] if T is None else T
        self.codes = _check_codes(codes, 3, self.T)

    @property
    def K(self) -> int:
        return self.codes.shape[1]

    @property
    def d(self) -> int:
        return self.codes.shape[2]

    @property
    def token_shared(self) -> bool:
        return self.codes.shape[0] == 1

    @property
    def sub(self) -> list[Codebook]:
        """The T per-token codebooks as views; one object T times when shared."""
        if self.token_shared:
            return [Codebook(self.codes[0])] * self.T
        return [Codebook(c) for c in self.codes]

    def codes_array(self) -> np.ndarray:
        """(T, K, d) view of the codes, broadcast when shared."""
        return np.broadcast_to(self.codes, (self.T, self.K, self.d))


class CodebookPool:
    """M switchable groups as one (M, T', K, d) float64 array, `codes`.

    T' = 1 gives each group one codebook shared by all T tokens (stage 1);
    T' = T gives each token position its own (stage 2). `frozen` marks a
    finished stage-2 pool: stage 3 requires it and stage 2 refuses it. Built
    from that array and T, or from a list of TokenSpecificGroup.
    """

    def __init__(self, codes, frozen: bool = False, T: int | None = None):
        if isinstance(codes, list):
            if not codes:
                raise ShapeMismatch("pool needs at least one group")
            g0 = codes[0]
            if any((g.T, g.K, g.d) != (g0.T, g0.K, g0.d) for g in codes):
                raise ShapeMismatch("groups must share (T, K, d)")
            groups, T = codes, g0.T
            codes = np.empty((len(groups), 1 if all(g.token_shared for g in groups) else T, g0.K, g0.d))
            for m, g in enumerate(groups):
                codes[m] = g.codes  # a shared group broadcasts over T
        self.T = codes.shape[1] if T is None else T
        self.codes = _check_codes(codes, 4, self.T)
        self.frozen = bool(frozen)
        self._source = None  # (path, os.stat_result) of the file load_pool mapped the codes from
        self._index = None

    @property
    def index(self) -> window.WindowIndex | None:
        """The window index beside the file the codes were loaded from, opened on
        first use; None when there is none or it was written for another file."""
        if self._source is not None:
            path, st = self._source
            self._index = window.load(path, artifact.fingerprint(st), self.codes.shape, self.frozen)
            self._source = None
        return self._index

    @property
    def M(self) -> int:
        return self.codes.shape[0]

    @property
    def K(self) -> int:
        return self.codes.shape[2]

    @property
    def d(self) -> int:
        return self.codes.shape[3]

    @property
    def token_shared(self) -> bool:
        return self.codes.shape[1] == 1

    @property
    def groups(self) -> list[TokenSpecificGroup]:
        """Per-group views into `codes`."""
        return [TokenSpecificGroup(c, self.T) for c in self.codes]


@dataclass
class UtilizationStats:
    per_token_rates: np.ndarray  # (T,) percentages
    min: float = field(init=False)
    max: float = field(init=False)
    mean: float = field(init=False)
    std: float = field(init=False)

    def __post_init__(self):
        r = np.asarray(self.per_token_rates, dtype=np.float64)
        self.per_token_rates = r
        self.min = float(r.min())
        self.max = float(r.max())
        self.mean = float(r.mean())
        self.std = float(r.std())  # population std


def init_kmeanspp(samples: np.ndarray, K: int, seed: int) -> Codebook:
    """Codebook from k-means++ seeding plus 10 Lloyd iterations.

    samples: (n, d) array of encoder outputs. Deterministic for a fixed seed
    and sample order.
    """
    from .quantizer import search  # quantizer imports this module

    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        samples = samples.reshape(-1, samples.shape[-1])
    n = samples.shape[0]
    if n < K:
        raise TooFewSamples(f"need at least {K} samples, got {n}")
    rng = np.random.default_rng(seed)

    centers = np.empty((K, samples.shape[1]))
    centers[0] = samples[rng.integers(n)]
    d2 = ((samples - centers[0]) ** 2).sum(axis=1)
    for k in range(1, K):
        total = d2.sum()
        if total <= 0.0:
            # zero-variance corpus: remaining centers duplicate existing points
            centers[k] = samples[rng.integers(n)]
            continue
        centers[k] = samples[np.searchsorted(np.cumsum(d2 / total), rng.random())]
        d2 = np.minimum(d2, ((samples - centers[k]) ** 2).sum(axis=1))

    d = samples.shape[1]
    for _ in range(10):
        assign = search(samples[:, None], centers[None, None])[0][:, 0, 0]
        # each centre's sum adds its samples in order, as a sum over axis 0 of
        # its rows does, so every mean has the bits of samples[mask].mean(axis=0)
        counts = np.bincount(assign, minlength=K)
        sums = np.bincount((assign[:, None] * d + np.arange(d)).ravel(), weights=samples.ravel(), minlength=K * d)
        full = counts > 0
        centers[full] = sums.reshape(K, d)[full] / counts[full, None]
        for k in np.flatnonzero(~full):  # an empty centre draws a new start, in k order
            centers[k] = samples[rng.integers(n)] + 1e-3 * rng.standard_normal(d)
    return Codebook(centers)


def derive_token_specific(shared: Codebook, T: int) -> TokenSpecificGroup:
    """T independent copies of a shared codebook.

    Immediately after derivation the group quantizes identically to the
    shared codebook; the copies may then diverge under per-token training.
    """
    return TokenSpecificGroup(np.repeat(shared.codes[None], T, axis=0), T)


def index_histograms(indices: np.ndarray, K: int) -> np.ndarray:
    """(T, K) counts of each code index at each token position over (N, T) indices."""
    T = indices.shape[1]
    return np.bincount((np.arange(T) * K + indices).ravel(), minlength=T * K).reshape(T, K)


def utilization(assignments: np.ndarray, K: int) -> UtilizationStats:
    """Per-token distinct-usage percentages from (T, K) index histograms."""
    hist = np.asarray(assignments)
    if hist.ndim != 2 or hist.shape[1] != K:
        raise ShapeMismatch(f"expected (T, {K}) histograms, got {hist.shape}")
    rates = (hist > 0).sum(axis=1) / K * 100.0
    return UtilizationStats(rates)


def save_pool(pool: CodebookPool, path) -> None:
    """Writes the pool file, then the window index beside it (window.save), or
    removes an old index when the pool gets none."""
    M, T, K, d = shape = (pool.M, pool.T, pool.K, pool.d)
    flag = _POOL_FLAGS[pool.token_shared, pool.frozen]
    fields = {"version": POOL_VERSION, "M": M, "T": T, "K": K, "d": d, "flag": flag}
    artifact.write(path, POOL_MAGIC, _POOL_HEADER, fields, [np.broadcast_to(pool.codes, shape)])
    window.save(pool.codes, pool.frozen, path)


def _pool_shapes(version, M, T, K, d, flag):
    if flag not in _POOL_STATES:
        raise HeaderMismatch(f"unknown pool flag byte {flag}")
    return [(M, T, K, d)]


def _pool_mapped(version, M, T, K, d, flag):
    return not _POOL_STATES[flag][0]


def load_pool(path) -> CodebookPool:
    """A token-specific pool's codes are a read-only map of the file, so loading
    reads nothing and a decode touches only the rows it gathers. A shared pool is
    read whole: its copies are checked and one per group is kept. The window
    index is not opened here, but on the pool's first search (CodebookPool.index)."""
    fields, (codes,), st = artifact.read(
        path, POOL_MAGIC, _POOL_HEADER, (POOL_VERSION,), _pool_shapes, mapped=_pool_mapped
    )
    _, _, T, _, _, flag = fields
    shared, frozen = _POOL_STATES[flag]
    if shared:  # the file repeats each group's one codebook T times; keep one
        if not (codes == codes[:, :1]).all():
            raise HeaderMismatch("token-shared pool file holds different codebooks per token")
        codes = np.ascontiguousarray(codes[:, :1])
    pool = CodebookPool(codes, frozen=frozen, T=T)
    pool._source = (path, st)
    return pool


def index_pool(path) -> str | None:
    """Builds or rebuilds the window index beside the pool file at `path`, for
    the codes read from it; returns why the pool gets none, or None."""
    pool = load_pool(path)
    return window.save(pool.codes, pool.frozen, path, pool._source[1])
