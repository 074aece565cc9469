import hashlib
import math

import numpy as np
import pytest

from stscq.codebook import Codebook, CodebookPool, TokenSpecificGroup
from stscq.errors import EmptyBatch, LengthMismatch, RangeViolation, ShapeMismatch
from stscq.quantizer import quantize_group, quantize_routed
from stscq.router import (
    RouterParams,
    init_router,
    load_router,
    loss_decisive,
    loss_entropy,
    loss_quant_guided,
    loss_router,
    route_learned,
    route_naive,
    router_loss_and_grads,
    router_probs,
    save_router,
)


def zero_router(d, M, h=4):
    return RouterParams(
        W1=np.zeros((h, d)), b1=np.zeros(h), W2=np.zeros((M, h)), b2=np.zeros(M)
    )


def test_route_learned_zero_weights_uniform():
    p = zero_router(d=3, M=4)
    gi, probs = route_learned(np.zeros((5, 3)), p)
    assert gi == 0
    assert np.allclose(probs, 0.25)


def test_route_learned_dominant_bias():
    p = zero_router(d=2, M=16)
    p.b2[0] = 10.0
    gi, probs = route_learned(np.zeros((3, 2)), p)
    assert gi == 0
    assert probs[0] > 0.99


def test_route_learned_probs_sum_to_one():
    rng = np.random.default_rng(0)
    p = init_router(4, 6, h=8, seed=1)
    for _ in range(20):
        _, probs = route_learned(rng.standard_normal((3, 4)), p)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert (probs >= 0).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_route_learned_rejects_non_finite_tokens(bad):
    # NaN probabilities used to come back with group 0
    tokens = np.zeros((3, 4))
    tokens[1, 2] = bad
    with pytest.raises(RangeViolation):
        route_learned(tokens, init_router(4, 3, h=8))


def test_route_naive_single_group():
    cb = Codebook(np.zeros((2, 2)))
    pool = CodebookPool([TokenSpecificGroup([cb] * 3)])
    assert route_naive(np.ones((3, 2)), pool) == 0


def test_route_naive_exact_group_wins():
    rng = np.random.default_rng(1)
    groups = [
        TokenSpecificGroup([Codebook(rng.standard_normal((4, 2))) for _ in range(3)])
        for _ in range(3)
    ]
    pool = CodebookPool(groups)
    tokens = np.stack([groups[1].sub[t].codes[0] for t in range(3)])
    assert route_naive(tokens, pool) == 1


def test_route_naive_matches_brute_force():
    rng = np.random.default_rng(2)
    groups = [
        TokenSpecificGroup([Codebook(rng.standard_normal((5, 3))) for _ in range(4)])
        for _ in range(4)
    ]
    pool = CodebookPool(groups)
    for _ in range(25):
        tokens = rng.standard_normal((4, 3))
        chosen = route_naive(tokens, pool)
        errs = [quantize_group(tokens, g)[1] for g in pool.groups]
        assert chosen == int(np.argmin(errs))
        assert all(errs[chosen] <= e + 1e-12 for e in errs)


def test_route_naive_shape_check():
    pool = CodebookPool([TokenSpecificGroup([Codebook(np.zeros((2, 2)))] * 3)])
    with pytest.raises(ShapeMismatch):
        route_naive(np.zeros((2, 2)), pool)


def test_route_naive_rejects_non_finite_tokens():
    pool = CodebookPool([TokenSpecificGroup([Codebook(np.zeros((2, 2)))] * 3)] * 2)
    tokens = np.zeros((3, 2))
    tokens[0, 0] = np.nan
    with pytest.raises(RangeViolation):
        route_naive(tokens, pool)


def test_loss_entropy_uniform_16():
    dists = [np.full(16, 1 / 16)] * 3
    assert loss_entropy(dists) == pytest.approx(-math.log(16), abs=1e-9)


def test_loss_entropy_one_hot_is_zero():
    one_hot = np.zeros(8)
    one_hot[2] = 1.0
    assert loss_entropy([one_hot]) == pytest.approx(0.0)


def test_loss_entropy_opposite_one_hots():
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert loss_entropy([a, b]) == pytest.approx(-math.log(2), abs=1e-9)


def test_loss_entropy_empty_batch():
    with pytest.raises(EmptyBatch):
        loss_entropy([])


def test_loss_decisive_cases():
    one_hot = np.zeros(4)
    one_hot[1] = 1.0
    assert loss_decisive(one_hot) == pytest.approx(0.0)
    assert loss_decisive(np.full(16, 1 / 16)) == pytest.approx(math.log(16) / 16, abs=1e-9)
    assert loss_decisive(np.full(2, 0.5)) == pytest.approx(math.log(2) / 2, abs=1e-9)


def test_loss_quant_guided_centered():
    dist = np.array([0.7, 0.2, 0.1])
    assert loss_quant_guided(dist, np.full(3, 5.0)) == pytest.approx(0.0)
    errors = np.array([1.0, 4.0, 7.0])
    assert loss_quant_guided(np.full(3, 1 / 3), errors) == pytest.approx(0.0)


def test_loss_quant_guided_constant_shift_invariant():
    rng = np.random.default_rng(3)
    dist = rng.dirichlet(np.ones(5))
    errors = rng.random(5) * 10
    a = loss_quant_guided(dist, errors)
    b = loss_quant_guided(dist, errors + 123.4)
    assert a == pytest.approx(b, abs=1e-9)


def test_loss_quant_guided_one_hot_minimum():
    rng = np.random.default_rng(4)
    errors = rng.random(6) * 5
    centered = errors - errors.mean()
    values = []
    for i in range(6):
        one_hot = np.zeros(6)
        one_hot[i] = 1.0
        values.append(loss_quant_guided(one_hot, errors))
    assert min(values) == pytest.approx(centered.min() / 6)
    assert int(np.argmin(values)) == int(np.argmin(errors))


def test_loss_quant_guided_length_mismatch():
    with pytest.raises(LengthMismatch):
        loss_quant_guided(np.ones(3) / 3, np.zeros(4))


def test_loss_router_reduces_to_quant_guided():
    rng = np.random.default_rng(5)
    dists = rng.dirichlet(np.ones(4), size=6)
    errors = rng.random((6, 4))
    expect = np.mean([loss_quant_guided(g, e) for g, e in zip(dists, errors)])
    assert loss_router(dists, errors, 0.0, 0.0) == pytest.approx(expect)


def test_loss_router_combined_trivial_case():
    dists = np.full((3, 16), 1 / 16)
    errors = np.full((3, 16), 2.5)
    value = loss_router(dists, errors, 1.0, 1.0)
    assert value == pytest.approx(-math.log(16) + math.log(16) / 16, abs=1e-6)
    assert value == pytest.approx(-2.599302, abs=1e-6)


def test_loss_router_matches_reference_recomputation():
    rng = np.random.default_rng(6)
    dists = rng.dirichlet(np.ones(5), size=8)
    errors = rng.random((8, 5)) * 3
    lam1, lam2 = 0.3, 0.7
    gbar = dists.mean(axis=0)
    ent = sum(g * math.log(g) for g in gbar if g > 0)
    dec = np.mean([-sum(g * math.log(g) for g in row if g > 0) / 5 for row in dists])
    qua = np.mean([(row * (e - e.mean())).sum() / 5 for row, e in zip(dists, errors)])
    assert loss_router(dists, errors, lam1, lam2) == pytest.approx(
        qua + lam1 * ent + lam2 * dec
    )


def test_loss_bounds():
    rng = np.random.default_rng(7)
    for M in (2, 5, 16):
        dists = rng.dirichlet(np.ones(M), size=10)
        assert -math.log(M) - 1e-9 <= loss_entropy(dists) <= 1e-9
        for row in dists:
            assert -1e-9 <= loss_decisive(row) <= math.log(M) / M + 1e-9


def _xlogx(v):
    return np.where(v > 0.0, v * np.log(np.maximum(v, 1e-12)), 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_public_losses_keep_their_per_distribution_values(seed):
    """Each loss as it was written per distribution, on non-negative entries
    that include zeros, a one-hot, a value under the log floor and a row not summing to one."""
    rng = np.random.default_rng(seed)
    dists = rng.dirichlet(np.ones(5), size=6)
    dists[0, 2] = 0.0
    dists[1] = np.eye(5)[3]
    dists[2, 1] = 1e-15
    dists[3] *= 3.0
    errors = rng.random((6, 5)) * 3
    ent = _xlogx(dists.mean(axis=0)).sum()
    dec = [-_xlogx(g).sum() / 5 for g in dists]
    qua = [(g * (e - e.mean())).sum() / 5 for g, e in zip(dists, errors)]
    assert loss_entropy(dists) == pytest.approx(ent, rel=1e-12, abs=1e-15)
    for g, e, d, q in zip(dists, errors, dec, qua):
        assert loss_decisive(g) == pytest.approx(d, rel=1e-12, abs=1e-15)
        assert loss_quant_guided(g, e) == pytest.approx(q, rel=1e-12, abs=1e-15)
    expect = np.mean(qua) + 0.3 * ent + 0.7 * np.mean(dec)
    assert loss_router(dists, errors, 0.3, 0.7) == pytest.approx(expect, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("call", [lambda: loss_router([], []), lambda: loss_decisive([]),
                                  lambda: loss_quant_guided([], [])], ids=["router", "decisive", "guided"])
def test_losses_reject_an_empty_batch(call):
    with pytest.raises(EmptyBatch):
        call()


def test_loss_router_length_mismatch():
    with pytest.raises(LengthMismatch):
        loss_router(np.full((3, 4), 0.25), np.zeros((3, 5)))


def test_gradient_check_finite_differences():
    rng = np.random.default_rng(8)
    p = init_router(5, 6, h=12, seed=9)
    x = rng.standard_normal((7, 5))
    errors = rng.random((7, 6)) * 4
    _, grads = router_loss_and_grads(x, errors, p, 0.1, 0.1)
    eps = 1e-5
    for name in ("W1", "b1", "W2", "b2"):
        arr = getattr(p, name)
        flat = arr.reshape(-1)
        for j in range(0, flat.size, max(1, flat.size // 10)):
            orig = flat[j]
            flat[j] = orig + eps
            lp, _ = router_loss_and_grads(x, errors, p, 0.1, 0.1)
            flat[j] = orig - eps
            lm, _ = router_loss_and_grads(x, errors, p, 0.1, 0.1)
            flat[j] = orig
            fd = (lp - lm) / (2 * eps)
            analytic = grads[name].reshape(-1)[j]
            denom = max(abs(fd), abs(analytic), 1e-8)
            assert abs(fd - analytic) / denom <= 1e-4


# SHA-256 of the loss and the W1, b1, W2, b2 gradients, as the code before the
# loss was written once gave them. Neither B nor M is a power of two, and lam1 !=
# lam2, so dividing by B*M before or after scaling by a lambda shows in the last
# bits. Like tests/test_golden.py, these hold for this host's BLAS and numpy loops.
ROUTER_BYTES = {
    (7, 5): "01220bdd5a7f0d4434daecd59b3b03208957c26cec3f0373a6cb021906919f92",
    (33, 6): "82766fc53680fb0356d70124e0285740e1e32609bbf94068a94d770c38fb10f7",
    (1, 3): "6a1642565b237be6609004be90a69b7d8d4c931ed607ddd048522527c757b333",
}


@pytest.mark.parametrize("B, M", list(ROUTER_BYTES))
def test_router_loss_and_grads_keep_their_bytes(B, M):
    rng = np.random.default_rng(1300 + B)
    p = init_router(5, M, h=11, seed=1300 + B)
    p.b1 += rng.standard_normal(p.h) * 0.1
    p.b2 += rng.standard_normal(M) * 0.1
    x = rng.standard_normal((B, 5))
    errors = rng.random((B, M)) * 4
    loss, grads = router_loss_and_grads(x, errors, p, 0.3, 0.7)
    h = hashlib.sha256(np.float64(loss).tobytes())
    for name in ("W1", "b1", "W2", "b2"):
        h.update(grads[name].tobytes())
    assert h.hexdigest() == ROUTER_BYTES[B, M]


@pytest.mark.parametrize("B", [1, 2, 3, 5, 7, 9, 16, 33])
def test_loss_router_is_the_training_loss_exactly(B):
    """The public loss of the scorer's distributions is the loss training descends, bit for bit."""
    for M in (1, 2, 3, 5, 8, 13):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p = init_router(4, M, h=9, seed=seed)
            x = rng.standard_normal((B, 4))
            errors = rng.random((B, M)) * 3
            expect = router_loss_and_grads(x, errors, p, 0.3, 0.7)[0]
            assert loss_router(router_probs(x, p), errors, 0.3, 0.7) == expect, (M, seed)


def test_nn_encode_is_router_independent():
    rng = np.random.default_rng(10)
    groups = [
        TokenSpecificGroup([Codebook(rng.standard_normal((4, 2))) for _ in range(3)])
        for _ in range(3)
    ]
    pool = CodebookPool(groups)
    tokens = rng.standard_normal((3, 2))
    with_router = quantize_routed(tokens, pool, policy="nn", router=init_router(2, 3, seed=0))
    without = quantize_routed(tokens, pool, policy="nn")
    assert with_router.group_index == without.group_index
    assert np.array_equal(with_router.indices, without.indices)


def test_router_file_round_trip(tmp_path):
    p = init_router(6, 4, h=10, seed=11)
    path = tmp_path / "r.rtr"
    save_router(p, path)
    q = load_router(path)
    for name in ("W1", "b1", "W2", "b2"):
        assert np.array_equal(getattr(p, name), getattr(q, name))
