"""Group selection: exact minimum-error routing and the learnable scorer.

The learned router is a one-hidden-layer MLP over the mean-pooled token
matrix. It is used only during training; inference always routes by
minimum quantization error, so encoded streams do not depend on router
weights under the NN policy.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .codebook import CodebookPool
from .errors import (
    BadMagic,
    DimensionMismatch,
    EmptyBatch,
    HeaderMismatch,
    LengthMismatch,
    ShapeMismatch,
    Truncated,
)
from .quantizer import _tokens_2d, group_errors

ROUTER_MAGIC = b"STSCQRTR"
ROUTER_VERSION = 1

_LOG_FLOOR = 1e-12


@dataclass
class RouterParams:
    W1: np.ndarray  # (h, d)
    b1: np.ndarray  # (h,)
    W2: np.ndarray  # (M, h)
    b2: np.ndarray  # (M,)

    @property
    def d(self) -> int:
        return self.W1.shape[1]

    @property
    def h(self) -> int:
        return self.W1.shape[0]

    @property
    def M(self) -> int:
        return self.W2.shape[0]

    def copy(self) -> "RouterParams":
        return RouterParams(self.W1.copy(), self.b1.copy(), self.W2.copy(), self.b2.copy())


def init_router(d: int, M: int, h: int = 64, seed: int = 0) -> RouterParams:
    rng = np.random.default_rng(seed)
    return RouterParams(
        W1=rng.standard_normal((h, d)) * (1.0 / np.sqrt(d)),
        b1=np.zeros(h),
        W2=rng.standard_normal((M, h)) * (1.0 / np.sqrt(h)),
        b2=np.zeros(M),
    )


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _pool_tokens(tokens) -> np.ndarray:
    values = np.asarray(getattr(tokens, "values", tokens), dtype=np.float64)
    if values.ndim == 2:
        return values.mean(axis=0)
    return values  # already pooled


def router_probs(x: np.ndarray, p: RouterParams) -> np.ndarray:
    """Softmax selection probabilities for pooled input(s) x of dim d."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != p.d:
        raise DimensionMismatch(f"input dim {x.shape[-1]} vs router dim {p.d}")
    hidden = np.maximum(x @ p.W1.T + p.b1, 0.0)
    return _softmax(hidden @ p.W2.T + p.b2)


def route_naive(tokens, pool: CodebookPool) -> int:
    """argmin over groups of total quantization error; ties to lowest index."""
    values = _tokens_2d(tokens)
    if values.shape != (pool.T, pool.d):
        raise ShapeMismatch(f"tokens {values.shape} vs pool (T={pool.T}, d={pool.d})")
    errs = group_errors(values, pool)[0]
    return int(errs.argmin())


def route_learned(tokens, p: RouterParams) -> tuple[int, np.ndarray]:
    """argmax of the scorer's distribution; returns (group_index, probs)."""
    probs = router_probs(_pool_tokens(tokens), p)
    return int(probs.argmax()), probs


def _safe_log(x: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(x, _LOG_FLOOR))


def loss_entropy(batch_dists) -> float:
    """Negative entropy of the batch-mean distribution (minimizing balances routing)."""
    dists = np.asarray(list(batch_dists), dtype=np.float64)
    if dists.size == 0:
        raise EmptyBatch("loss_entropy needs a non-empty batch")
    gbar = dists.mean(axis=0)
    terms = np.where(gbar > 0.0, gbar * _safe_log(gbar), 0.0)
    return float(terms.sum())


def loss_decisive(dist) -> float:
    """Scaled entropy of one distribution; zero exactly at one-hot."""
    g = np.asarray(dist, dtype=np.float64)
    terms = np.where(g > 0.0, g * _safe_log(g), 0.0)
    return float(-terms.sum() / g.shape[0])


def loss_quant_guided(dist, errors) -> float:
    """Probability-weighted centered quantization errors (errors are constants)."""
    g = np.asarray(dist, dtype=np.float64)
    e = np.asarray(errors, dtype=np.float64)
    if g.shape != e.shape:
        raise LengthMismatch(f"dist {g.shape} vs errors {e.shape}")
    return float((g * (e - e.mean())).sum() / g.shape[0])


def loss_router(dists, errors, lam1: float = 0.1, lam2: float = 0.1) -> float:
    """Composite routing loss: batch-mean guided + lam1*entropy + lam2*decisive."""
    dists = np.asarray(list(dists), dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if dists.size == 0:
        raise EmptyBatch("loss_router needs a non-empty batch")
    if dists.shape != errors.shape:
        raise LengthMismatch(f"dists {dists.shape} vs errors {errors.shape}")
    qua = np.mean([loss_quant_guided(g, e) for g, e in zip(dists, errors)])
    dec = np.mean([loss_decisive(g) for g in dists])
    return float(qua + lam1 * loss_entropy(dists) + lam2 * dec)


def router_loss_and_grads(
    inputs: np.ndarray,
    errors: np.ndarray,
    p: RouterParams,
    lam1: float = 0.1,
    lam2: float = 0.1,
) -> tuple[float, dict[str, np.ndarray]]:
    """Composite loss and its analytic gradients w.r.t. the router weights.

    inputs: (B, d) pooled token matrices; errors: (B, M) per-group total
    quantization errors, treated as constants.
    """
    x = np.asarray(inputs, dtype=np.float64)
    e = np.asarray(errors, dtype=np.float64)
    if x.ndim != 2 or e.ndim != 2 or x.shape[0] != e.shape[0]:
        raise LengthMismatch("inputs and errors must be (B, d) and (B, M)")
    B, M = e.shape

    pre = x @ p.W1.T + p.b1
    hidden = np.maximum(pre, 0.0)
    logits = hidden @ p.W2.T + p.b2
    g = _softmax(logits)  # (B, M)

    centered = e - e.mean(axis=1, keepdims=True)
    gbar = g.mean(axis=0)
    log_g = _safe_log(g)
    log_gbar = _safe_log(gbar)

    qua = float((g * centered).sum() / (B * M))
    ent = float((gbar * log_gbar).sum())
    dec = float(-(g * log_g).sum() / (B * M))
    loss = qua + lam1 * ent + lam2 * dec

    # dL/dg, then back through softmax per sample
    dg = centered / (B * M)
    dg = dg + lam1 * (log_gbar + 1.0)[None, :] / B
    dg = dg - lam2 * (log_g + 1.0) / (B * M)
    dlogits = g * (dg - (dg * g).sum(axis=1, keepdims=True))

    dW2 = dlogits.T @ hidden
    db2 = dlogits.sum(axis=0)
    dhidden = dlogits @ p.W2
    dpre = dhidden * (pre > 0.0)
    dW1 = dpre.T @ x
    db1 = dpre.sum(axis=0)

    return loss, {"W1": dW1, "b1": db1, "W2": dW2, "b2": db2}


def save_router(p: RouterParams, path) -> None:
    with open(path, "wb") as f:
        f.write(ROUTER_MAGIC)
        f.write(struct.pack("<BHHH", ROUTER_VERSION, p.d, p.h, p.M))
        for arr in (p.W1, p.b1, p.W2, p.b2):
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_router(path) -> RouterParams:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[: len(ROUTER_MAGIC)] != ROUTER_MAGIC:
        raise BadMagic("not a router file")
    off = len(ROUTER_MAGIC)
    try:
        version, d, h, M = struct.unpack_from("<BHHH", raw, off)
    except struct.error as err:
        raise Truncated(str(err)) from None
    if version != ROUTER_VERSION:
        raise HeaderMismatch(f"unsupported router version {version}")
    off += struct.calcsize("<BHHH")
    counts = [h * d, h, M * h, M]
    if len(raw) - off < 8 * sum(counts):
        raise Truncated("router file shorter than declared shape")
    arrays = []
    for count in counts:
        arrays.append(np.frombuffer(raw, dtype="<f8", count=count, offset=off).copy())
        off += 8 * count
    return RouterParams(
        W1=arrays[0].reshape(h, d),
        b1=arrays[1],
        W2=arrays[2].reshape(M, h),
        b2=arrays[3],
    )
