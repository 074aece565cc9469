"""Group selection: exact minimum-error routing and the learnable scorer.

The learned router is a one-hidden-layer MLP over the mean-pooled token
matrix. It is used only during training; inference always routes by
minimum quantization error, so encoded streams do not depend on router
weights under the NN policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifact
from .codebook import CodebookPool
from .errors import DimensionMismatch, EmptyBatch, LengthMismatch, RangeViolation
from .quantizer import _tokens, group_errors

ROUTER_MAGIC = b"STSCQRTR"
ROUTER_VERSION = 1
_ROUTER_HEADER = "<BHHH"  # version, d, h, M

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


def _forward(x: np.ndarray, p: RouterParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scorer's pre-activation, hidden layer and softmax probabilities for pooled x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != p.d:
        raise DimensionMismatch(f"input dim {x.shape[-1]} vs router dim {p.d}")
    pre = x @ p.W1.T + p.b1
    hidden = np.maximum(pre, 0.0)
    logits = hidden @ p.W2.T + p.b2
    z = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return pre, hidden, z / z.sum(axis=-1, keepdims=True)


def router_probs(x: np.ndarray, p: RouterParams) -> np.ndarray:
    """Softmax selection probabilities for pooled input(s) x of dim d."""
    return _forward(x, p)[2]


def _finite_probs(x: np.ndarray, p: RouterParams) -> np.ndarray:
    """router_probs for choosing groups; RangeViolation for a non-finite probability."""
    # overflowing weights make inf − inf in the softmax: refused below, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        probs = router_probs(x, p)
    if not np.isfinite(probs).all():
        raise RangeViolation("the router's probabilities are not finite: a weight is non-finite or overflows")
    return probs


def route_naive(tokens, pool: CodebookPool) -> int:
    """argmin over groups of total quantization error; ties to lowest index."""
    errs = group_errors(_tokens(tokens, (pool.T, pool.d)), pool)[0]
    gi = int(errs.argmin())  # the first NaN, if there is one
    if not np.isfinite(errs[gi]):
        raise RangeViolation(f"group {gi}'s error is not finite: a code is non-finite or overflows")
    return gi


def route_learned(tokens, p: RouterParams) -> tuple[int, np.ndarray]:
    """argmax of the scorer's distribution over a (T, d) token matrix; returns (group_index, probs)."""
    probs = _finite_probs(_tokens(tokens, (None, p.d)).mean(axis=0), p)
    return int(probs.argmax()), probs


def _batch(dists, errors=None) -> tuple[np.ndarray, np.ndarray]:
    """(B, M) distributions and errors (zeros when not given) as float64; one
    distribution is a batch of one."""
    g = np.asarray(list(dists), dtype=np.float64)
    e = np.zeros_like(g) if errors is None else np.asarray(errors, dtype=np.float64)
    if g.size == 0:
        raise EmptyBatch("the routing loss needs a non-empty batch")
    if g.shape != e.shape:
        raise LengthMismatch(f"dists {g.shape} vs errors {e.shape}")
    return np.atleast_2d(g), np.atleast_2d(e)


def _loss_terms(g: np.ndarray, e: np.ndarray):
    """The guided, balance and decisive terms of (B, M) distributions g under
    errors e, and the pieces of their gradient: the centered errors, log g and log ḡ."""
    B, M = g.shape
    # sums over a count: the bits of .mean(), without its per-call checks
    centered = e - e.sum(axis=1, keepdims=True) / M
    gbar = g.sum(axis=0) / B
    log_g = np.log(np.maximum(g, _LOG_FLOOR))
    log_gbar = np.log(np.maximum(gbar, _LOG_FLOOR))
    qua = float((g * centered).sum() / (B * M))
    ent = float((gbar * log_gbar).sum())
    dec = float(-(g * log_g).sum() / (B * M))
    return (qua, ent, dec), (centered, log_g, log_gbar)


def loss_entropy(batch_dists) -> float:
    """Negative entropy of the batch-mean distribution (minimizing balances routing)."""
    return _loss_terms(*_batch(batch_dists))[0][1]


def loss_decisive(dist) -> float:
    """Scaled entropy of one distribution; zero exactly at one-hot."""
    return _loss_terms(*_batch(dist))[0][2]


def loss_quant_guided(dist, errors) -> float:
    """Probability-weighted centered quantization errors (errors are constants)."""
    return _loss_terms(*_batch(dist, errors))[0][0]


def loss_router(dists, errors, lam1: float = 0.1, lam2: float = 0.1) -> float:
    """Composite routing loss: batch-mean guided + lam1*entropy + lam2*decisive."""
    qua, ent, dec = _loss_terms(*_batch(dists, errors))[0]
    return float(qua + lam1 * ent + lam2 * dec)


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
    pre, hidden, g = _forward(x, p)
    (qua, ent, dec), (centered, log_g, log_gbar) = _loss_terms(g, e)
    loss = qua + lam1 * ent + lam2 * dec

    # dL/dg, then back through softmax per sample; the golden loss curves depend on this order
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
    fields = {"version": ROUTER_VERSION, "d": p.d, "h": p.h, "M": p.M}
    artifact.write(path, ROUTER_MAGIC, _ROUTER_HEADER, fields, (p.W1, p.b1, p.W2, p.b2))


def load_router(path) -> RouterParams:
    _, arrays = artifact.read(
        path, ROUTER_MAGIC, _ROUTER_HEADER, (ROUTER_VERSION,), lambda version, d, h, M: [(h, d), (h,), (M, h), (M,)]
    )
    return RouterParams(*arrays)
