"""The window index beside a frozen token-specific pool file: `<pool>.pidx`.

For each (group, token) codebook it holds the principal axis p (the top
eigenvector of the codebook's d×d scatter about its mean), the codes sorted by
p·c, the permutation from sorted position back to code index, and every 16th
sorted projection, which places a search window at a token's rank. One image's
search reads W = K/4 codes around that rank instead of all K
(quantizer._window_search); the rows that window cannot certify read 2W, then
4W, … and at last a window of all K, which certifies every row it gets, all
through quantizer._block_search; so the index serves encode in place of the
pool.

The header holds the pool's shape, W and the pool file's inode, size and change
time as they were when the index was written. A pool that was re-saved, copied
or replaced no longer matches, and its index is ignored. The bytes depend on
LAPACK's eigh, so they are not portable; the search's results do not.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from . import artifact
from .errors import HeaderMismatch

PIDX_MAGIC = b"STSCQPIDX"
PIDX_VERSION = 1
# version, M, T, K, d, W, then the pool file's st_ino, st_size and st_ctime_ns;
# 48 bytes with the magic, so every float64 array starts 8-byte aligned
_PIDX_HEADER = "<BHHIHIQQQ"
MIN_K = 256  # below this a window saves too little of a K-code search to pay for its bounds
MARK = 16  # every MARK-th sorted projection is stored


@dataclass
class WindowIndex:
    codes: np.ndarray  # (M, T, K, d) float64: each codebook's codes in the order of their projections
    marks: np.ndarray  # (M, T, ceil(K/MARK)) float64: the projections at sorted positions 0, MARK, 2·MARK, ...
    axes: np.ndarray  # (M, T, d) float64: each codebook's principal axis
    perm: np.ndarray  # (M, T, K) uint16 (uint32 when K > 65536): the code index at each sorted position
    W: int  # codes per window

    def group(self, m: int) -> WindowIndex:
        """The index of group m alone, as views."""
        g = slice(m, m + 1)
        return WindowIndex(self.codes[g], self.marks[g], self.axes[g], self.perm[g], self.W)


def index_path(pool_path) -> str:
    """Where the index of the pool file at `pool_path` lives: beside the file a symlink resolves to."""
    return os.path.realpath(pool_path) + ".pidx"


def why_not(shape, frozen: bool) -> str | None:
    """Why a pool of (M, T', K, d) `shape` gets no index, or None when it may have one."""
    if not frozen:
        return "the pool is not frozen"
    if shape[1] == 1:
        return "every token shares its group's codebook (T' = 1)"
    if shape[2] < MIN_K:
        return f"K={shape[2]} is below {MIN_K}"
    return None


def _perm_dtype(K: int) -> str:
    return "<u2" if K <= 1 << 16 else "<u4"


def build(codes: np.ndarray):
    """(marks, axes, perm) of the (M, T, K, d) `codes`, a group at a time, or None
    when a codebook has a non-finite code, or its scatter or projections overflow."""
    M, T, K, d = codes.shape
    marks = np.empty((M, T, -(-K // MARK)))
    axes = np.empty((M, T, d))
    perm = np.empty((M, T, K), dtype=_perm_dtype(K))
    for m in range(M):
        c = np.asarray(codes[m])
        x = c - c.mean(axis=1, keepdims=True)
        scatter = x.swapaxes(1, 2) @ x
        if not (np.isfinite(c).all() and np.isfinite(scatter).all()):
            return None
        axes[m] = np.linalg.eigh(scatter)[1][..., -1]  # eigenvalues ascend: the last vector is the principal axis
        keys = np.einsum("tkd,td->tk", c, axes[m])
        if not np.isfinite(keys).all():  # a NaN key would sort out of order
            return None
        order = np.argsort(keys, axis=1, kind="stable")
        perm[m] = order
        marks[m] = np.take_along_axis(keys, order[:, ::MARK], axis=1)
    return marks, axes, perm


def save(codes: np.ndarray, frozen: bool, pool_path, st: os.stat_result | None = None) -> str | None:
    """Writes the index of the pool file at `pool_path` from its (M, T', K, d)
    `codes`, or removes an old one when the pool gets none; returns why it gets
    none, or None. The header holds the fingerprint of `st`, the stat of the
    file the codes were read from, or else of the file at `pool_path` now: after
    a save, stat it after the pool file's rename."""
    path = index_path(pool_path)
    M, T, K, d = codes.shape
    reason = why_not(codes.shape, frozen)
    built = None if reason else build(codes)
    if built is None:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        return reason or "the pool has a non-finite code, or its scatter or projections overflow"
    marks, axes, perm = built
    ino, size, ctime = artifact.fingerprint(st or os.stat(pool_path))
    fields = {"version": PIDX_VERSION, "M": M, "T": T, "K": K, "d": d, "W": K // 4,
              "st_ino": ino, "st_size": size, "st_ctime_ns": ctime}
    # the sorted codes a group at a time, so the whole sorted copy is never in memory
    groups = (np.take_along_axis(np.asarray(codes[m]), perm[m][..., None].astype(np.intp), axis=1) for m in range(M))
    dtypes = ["<f8"] * (M + 2) + [perm.dtype]
    artifact.write(path, PIDX_MAGIC, _PIDX_HEADER, fields, itertools.chain(groups, (marks, axes, perm)), dtypes)
    return None


def _shapes(version, M, T, K, d, W, ino, size, ctime):
    if not 1 <= W <= K:
        raise HeaderMismatch(f"a window of {W} codes does not fit K={K}")
    return [(M, T, K, d), (M, T, -(-K // MARK)), (M, T, d), (M, T, K)]


def load(pool_path, fingerprint, shape, frozen: bool) -> WindowIndex | None:
    """The index beside `pool_path`, mapped, when it was written for the pool file
    with `fingerprint` and (M, T', K, d) `shape`; None when there is none or it
    was written for another file. A file that is not a whole index raises."""
    if why_not(shape, frozen):
        return None
    try:
        fields, arrays, _ = artifact.read(
            index_path(pool_path), PIDX_MAGIC, _PIDX_HEADER, (PIDX_VERSION,), _shapes,
            mapped=lambda *fields: True, dtypes=lambda *f: ["<f8"] * 3 + [_perm_dtype(f[3])],
        )
    except FileNotFoundError:
        return None
    _, M, T, K, d, W, *written_for = fields
    if tuple(written_for) != tuple(fingerprint):
        return None
    if (M, T, K, d) != tuple(shape):
        raise HeaderMismatch(f"index of shape {(M, T, K, d)} beside a pool of shape {tuple(shape)}")
    return WindowIndex(*arrays, W)
