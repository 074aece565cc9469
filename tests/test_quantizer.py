import itertools
import os
import signal
import sys
import time

import numpy as np
import pytest

from stscq import trainer
from stscq.codebook import Codebook, CodebookPool, TokenSpecificGroup, derive_token_specific, init_kmeanspp
from stscq.errors import (
    DimensionMismatch,
    HeaderMismatch,
    IndexOutOfRange,
    RangeViolation,
    ShapeMismatch,
    UntrainedRouter,
)
from stscq import quantizer
from stscq.quantizer import (
    QuantizedImage,
    dequantize,
    quantize_corpus,
    quantize_group,
    quantize_one,
    quantize_routed,
    search,
)
from stscq.router import init_router, route_naive


def brute_force_nearest(z, codes):
    """Independent exhaustive scan; deliberately written as plain loops."""
    best_i, best_d = 0, float("inf")
    for i, code in enumerate(codes):
        dist = 0.0
        for a, b in zip(z, code):
            dist += (a - b) ** 2
        if dist < best_d:
            best_i, best_d = i, dist
    return best_i, best_d


def random_pool(rng, M, T, K, d, token_shared=False):
    groups = []
    for _ in range(M):
        if token_shared:
            cb = Codebook(rng.standard_normal((K, d)))
            groups.append(TokenSpecificGroup([cb] * T))
        else:
            groups.append(
                TokenSpecificGroup([Codebook(rng.standard_normal((K, d))) for _ in range(T)])
            )
    return CodebookPool(groups)


def test_quantize_one_simple():
    cb = Codebook([[0.0, 0.0], [1.0, 1.0]])
    idx, err = quantize_one(np.array([0.1, 0.1]), cb)
    assert idx == 0
    assert err == pytest.approx(0.02)


def test_quantize_one_exact_match():
    rng = np.random.default_rng(0)
    cb = Codebook(rng.standard_normal((7, 3)))
    for j in range(7):
        idx, err = quantize_one(cb.codes[j].copy(), cb)
        assert idx == j
        assert err == 0.0


def test_quantize_one_matches_oracle():
    rng = np.random.default_rng(1)
    cb = Codebook(rng.standard_normal((16, 8)))
    for _ in range(100):
        z = rng.standard_normal(8)
        idx, err = quantize_one(z, cb)
        oi, od = brute_force_nearest(z, cb.codes)
        assert idx == oi
        assert err == pytest.approx(od)


def test_quantize_one_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        quantize_one(np.zeros(3), Codebook(np.zeros((2, 2))))
    with pytest.raises(ShapeMismatch):  # one kind of error: a dimension mismatch is a shape mismatch
        quantize_one(np.zeros(3), Codebook(np.zeros((2, 2))))


def test_group_token_shared_equals_shared_codebook():
    rng = np.random.default_rng(2)
    cb = Codebook(rng.standard_normal((8, 4)))
    group = TokenSpecificGroup([cb] * 5)
    tokens = rng.standard_normal((5, 4))
    indices, total = quantize_group(tokens, group)
    expect = [quantize_one(t, cb) for t in tokens]
    assert list(indices) == [e[0] for e in expect]
    assert total == pytest.approx(sum(e[1] for e in expect))


def test_group_exact_tokens_zero_error():
    rng = np.random.default_rng(3)
    group = TokenSpecificGroup([Codebook(rng.standard_normal((6, 3))) for _ in range(4)])
    tokens = np.stack([group.sub[t].codes[t % 6] for t in range(4)])
    _, total = quantize_group(tokens, group)
    assert total == 0.0


def test_group_matches_per_token_oracle():
    rng = np.random.default_rng(4)
    group = TokenSpecificGroup([Codebook(rng.standard_normal((9, 5))) for _ in range(6)])
    tokens = rng.standard_normal((6, 5))
    indices, total = quantize_group(tokens, group)
    oracle = [brute_force_nearest(tokens[t], group.sub[t].codes) for t in range(6)]
    assert list(indices) == [o[0] for o in oracle]
    assert total == pytest.approx(sum(o[1] for o in oracle))


def test_group_shape_mismatch():
    group = TokenSpecificGroup([Codebook(np.zeros((2, 2)))] * 3)
    with pytest.raises(ShapeMismatch):
        quantize_group(np.zeros((4, 2)), group)
    with pytest.raises(ShapeMismatch):
        quantize_group(np.zeros((3, 5)), group)


def test_search_matches_per_token_oracle():
    rng = np.random.default_rng(12)
    batch = rng.standard_normal((3, 5, 2))
    codes = rng.standard_normal((2, 5, 6, 2))
    indices, errors = search(batch, codes)
    for b in range(3):
        for m in range(2):
            for t in range(5):
                oi, od = brute_force_nearest(batch[b, t], codes[m, t])
                assert indices[b, m, t] == oi
                assert errors[b, m, t] == pytest.approx(od, abs=1e-12)


# M=2, K=7, d=3 and T=9 give the difference form (one image per call) 504
# bytes of temporaries per token: on one worker, all 9 tokens at once, 2 at a
# time and one at a time (more workers share the cap, in smaller slices). The screen (several images per call) takes 336 bytes of codes per
# token and 112 of screen values per (image, token): of 33 images, all at once,
# 9 at a time, 3 at a time in slices of 4 tokens, and one token of one image
SLICING_CAPS = {"whole": 1 << 22, "image-slices": 9072, "token-slices": 1500, "one-token": 1}


def test_search_slicing_and_sharing_are_exact(monkeypatch):
    rng = np.random.default_rng(13)
    batch = rng.standard_normal((4, 9, 3))
    codes = rng.standard_normal((2, 9, 7, 3))
    whole = search(batch, codes)
    shared = search(batch, codes[:, :1])
    # codes 5 bytes off 8-byte alignment, as a mapped pool file's are
    unaligned = np.frombuffer(bytes(5) + codes.tobytes(), offset=5).reshape(codes.shape)
    assert not unaligned.flags.aligned
    for cap, c in itertools.product(SLICING_CAPS.values(), (codes, unaligned)):
        monkeypatch.setattr(quantizer, "_CHUNK_BYTES", cap)
        for got, want in zip(search(batch, c), whole):
            assert np.array_equal(got, want)
        broadcast = np.broadcast_to(c[:, :1], codes.shape)
        for got, want in zip(search(batch, broadcast), shared):
            assert np.array_equal(got, want)


def oracle_search(batch, codes):
    """search() by brute force, one (image, group, token) at a time."""
    B, T, _ = batch.shape
    M = codes.shape[0]
    indices = np.zeros((B, M, T), dtype=int)
    errors = np.zeros((B, M, T))
    for b in range(B):
        for m in range(M):
            for t in range(T):
                indices[b, m, t], errors[b, m, t] = brute_force_nearest(batch[b, t], codes[m, t % codes.shape[1]])
    return indices, errors


# M=3, K=5, d=2 and T=4 give search() 320 bytes of temporaries per token (the
# differences to M groups plus the token repeated K times) and 1280 per image:
# slices of 4 whole images, of 2 tokens of one image, and of one token
TIE_CAPS = {"whole": 1 << 22, "image-slices": 5120, "token-slices": 700, "one-token": 1}


@pytest.mark.parametrize("shared", [False, True], ids=["T'=T", "T'=1"])
@pytest.mark.parametrize("cap", list(TIE_CAPS.values()), ids=list(TIE_CAPS))
def test_search_ties_go_to_the_lowest_index(monkeypatch, cap, shared):
    """Integer grids, duplicate codes and tokens midway between codes tie exactly."""
    monkeypatch.setattr(quantizer, "_CHUNK_BYTES", cap)
    rng = np.random.default_rng(15)
    M, T, K, d = 3, 4, 5, 2
    for trial in range(20):
        codes = rng.integers(-2, 3, size=(M, 1 if shared else T, K, d)).astype(float)
        codes[:, :, 3] = codes[:, :, 1]  # a duplicate after its first copy
        grid = rng.integers(-3, 4, size=(6, T, d)).astype(float)
        batch = grid + 0.5 * (trial % 2)  # half-integers sit midway between grid codes
        want_i, want_e = oracle_search(batch, codes)
        got_i, got_e = search(batch, codes)
        assert np.array_equal(got_i, want_i)
        assert np.array_equal(got_e, want_e)  # small dyadic values: every sum is exact
        assert not (got_i == 3).any()  # the later duplicate is never chosen


def one_image_at_a_time(batch, codes):
    """search() of each image alone, which is the difference form over all K."""
    indices = np.empty((len(batch), codes.shape[0], batch.shape[1]), dtype=np.intp)
    errors = np.empty(indices.shape)
    for b in range(len(batch)):
        (indices[b],), (errors[b],) = search(batch[b : b + 1], codes)
    return indices, errors


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("B", [0, 2, 33])
@pytest.mark.parametrize("shared", [False, True], ids=["T'=T", "T'=1"])
@pytest.mark.parametrize("data", ["normal", "grid", "midpoints", "offset", "non-finite"])
def test_screened_search_is_the_difference_form_bit_for_bit(monkeypatch, data, shared, B):
    """Grids tie exactly, with a duplicate code after its first copy; midpoints
    sit between grid codes; a common offset of 1e3 with 1e-6 spreads puts the
    screen's rounding far above the gaps between codes; a NaN code is the
    difference form's choice, and an infinite one never is. The screen's
    inf − inf on those codes must not warn."""
    rng = np.random.default_rng(19)
    M, T, K, d = 2, 9, 7, 3
    shape = (M, 1 if shared else T, K, d)
    if data in ("normal", "non-finite"):
        codes, batch = rng.standard_normal(shape), rng.standard_normal((B, T, d))
        if data == "non-finite":
            codes[0, :, 2, 1], codes[1, :, 4, 0] = np.nan, np.inf
    elif data == "offset":
        codes, batch = 1e3 + 1e-6 * rng.standard_normal(shape), 1e3 + 1e-6 * rng.standard_normal((B, T, d))
    else:
        codes = rng.integers(-2, 3, size=shape).astype(float)
        codes[:, :, 3] = codes[:, :, 1]
        batch = rng.integers(-3, 4, size=(B, T, d)) + (0.5 if data == "midpoints" else 0.0)
    want = one_image_at_a_time(batch, codes)
    unaligned = np.frombuffer(bytes(5) + codes.tobytes(), offset=5).reshape(codes.shape)
    for cap, c in itertools.product({**SLICING_CAPS, **TIE_CAPS}.values(), (codes, unaligned)):
        monkeypatch.setattr(quantizer, "_CHUNK_BYTES", cap)
        got = search(batch, c)
        assert got[0].shape == got[1].shape == (B, M, T)
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True)


def test_screen_leaves_few_rows_to_the_difference_form(monkeypatch):
    rescored = []
    difference = quantizer._difference_search

    def counting(tokens, codes):
        rescored.append(len(tokens))
        return difference(tokens, codes)

    monkeypatch.setattr(quantizer, "_difference_search", counting)
    rng = np.random.default_rng(20)
    B, M, T, K, d = 64, 4, 16, 32, 8
    batch, codes = rng.standard_normal((B, T, d)), rng.standard_normal((M, T, K, d))
    indices, _ = search(batch, codes)
    assert sum(rescored) < 0.01 * B * M * T
    # with every code duplicated, each row has two candidates and is rescored
    rescored.clear()
    doubled, _ = search(batch, np.concatenate([codes, codes], axis=2))
    assert sum(rescored) == B * M * T
    assert np.array_equal(doubled, indices)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("shared", [False, True], ids=["T'=T", "T'=1"])
@pytest.mark.parametrize("data", ["normal", "grid"])
def test_threaded_single_image_search_is_the_serial_one_bit_for_bit(monkeypatch, data, shared, workers):
    """Token slices split over worker threads give the bits of one serial pass.
    Grids tie exactly, with a duplicate code after its first copy; codes sit 5
    bytes off alignment, as a mapped pool's do. A call of one slice starts no
    thread."""
    rng = np.random.default_rng(22)
    M, T, K, d = 2, 9, 7, 3
    shape = (M, 1 if shared else T, K, d)
    # three images in turn, so a column a call fails to write keeps another
    # image's value from the memory numpy hands it again
    if data == "normal":
        codes, images = rng.standard_normal(shape), rng.standard_normal((3, T, d))
    else:
        codes = rng.integers(-2, 3, size=shape).astype(float)
        codes[:, :, 3] = codes[:, :, 1]
        images = rng.integers(-3, 4, size=(3, T, d)) + 0.5 * rng.integers(0, 2, size=(3, T, d))
    unaligned = np.frombuffer(bytes(5) + codes.tobytes(), offset=5).reshape(codes.shape)
    monkeypatch.setattr(quantizer, "_pool", None)
    monkeypatch.setattr(quantizer, "_WORKERS", 1)
    wants = [quantizer._difference_search(tokens, codes) for tokens in images]
    assert quantizer._pool is None  # one slice: no thread
    if data == "grid":
        assert not any((i == 3).any() for i, _ in wants)  # the later duplicate is never chosen
    monkeypatch.setattr(quantizer, "_WORKERS", workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # 504 bytes per token (differences to M groups plus the token repeated
        # K times) per worker: slices of 1, 2 and 4 tokens, so 9, 5 and 3 slices
        for per_slice, c in itertools.product((1, 2, 4), (codes, unaligned)):
            monkeypatch.setattr(quantizer, "_CHUNK_BYTES", 8 * (M + 1) * K * d * workers * per_slice)
            for tokens, want in zip(images, wants):
                for got, w in zip(quantizer._difference_search(tokens, c), want):
                    assert np.array_equal(got, w)
    finally:
        sys.setswitchinterval(interval)
    assert (quantizer._pool is not None) == (workers > 1)
    if quantizer._pool is not None:
        quantizer._pool.shutdown()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # forking a process that has threads
def test_a_forked_child_searches_with_threads_of_its_own(monkeypatch):
    """The parent's search threads do not exist in a forked child; the child
    must start its own rather than wait on them for ever."""
    rng = np.random.default_rng(23)
    tokens, codes = rng.standard_normal((9, 3)), rng.standard_normal((2, 9, 7, 3))
    monkeypatch.setattr(quantizer, "_pool", None)
    monkeypatch.setattr(quantizer, "_WORKERS", 2)
    monkeypatch.setattr(quantizer, "_CHUNK_BYTES", 1)
    want = quantizer._difference_search(tokens, codes)
    assert quantizer._pool is not None
    pid = os.fork()
    if pid == 0:
        code = 2
        try:
            got = quantizer._difference_search(tokens, codes)
            code = 0 if all(np.array_equal(g, w) for g, w in zip(got, want)) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    quantizer._pool.shutdown()
    assert done[0] == pid, "the child hung"
    assert os.waitstatus_to_exitcode(done[1]) == 0


def broadcast_search(batch, codes):
    """The broadcast kernel that init_kmeanspp's Lloyd steps, init_stage1_pool's
    shard assignment and quantize_one ran before they called search: n
    single-token images against one (K, d) codebook through one (n, K, d)
    difference. quantize_one subtracted the other way round, codes - z, which
    squares to the same bits."""
    assert batch.shape[1] == 1 and codes.shape[:2] == (1, 1)
    samples, centers = batch[:, 0], codes[0, 0]
    dists = ((samples[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    idx = dists.argmin(axis=1)  # argmin returns the first minimum: lowest index
    return idx[:, None, None], dists[np.arange(len(idx)), idx][:, None, None]


def kmeans_codes(tokens):
    return init_kmeanspp(tokens.reshape(-1, tokens.shape[2]), K=6, seed=3).codes


def stage1_shards(tokens):
    _, T, d = tokens.shape
    return trainer.init_stage1_pool(tokens, trainer.TrainConfig(M=3, K=5, T=T, d=d, seed=1)).codes


def nearest_codes(tokens):
    flat = tokens.reshape(-1, tokens.shape[2])
    cb = Codebook(flat[:12])  # on the grid, repeated tokens make duplicate codes
    return np.array([quantize_one(z, cb) for z in np.concatenate([flat, flat + 0.5])])


@pytest.mark.parametrize("cap", [quantizer._CHUNK_BYTES, 1], ids=["default", "one-token"])
@pytest.mark.parametrize("data", ["random", "grid"])
@pytest.mark.parametrize("kernel", [kmeans_codes, stage1_shards, nearest_codes], ids=lambda f: f.__name__)
def test_search_callers_match_the_broadcast_formula(monkeypatch, kernel, data, cap):
    """Integer grids tie exactly: duplicate points, and points midway between codes."""
    rng = np.random.default_rng(18)
    if data == "random":
        tokens = rng.standard_normal((40, 4, 8))
    else:
        tokens = rng.integers(-2, 3, size=(40, 4, 8)).astype(float)
        tokens[20:] = tokens[:20]
    monkeypatch.setattr(quantizer, "_CHUNK_BYTES", cap)
    got = kernel(tokens)
    monkeypatch.setattr(quantizer, "search", broadcast_search)
    monkeypatch.setattr(trainer, "search", broadcast_search)
    want = kernel(tokens)
    if kernel is nearest_codes and data == "random":
        # search's einsum sums the d squares in another order than .sum(axis=2):
        # the same indices, and distances that may differ in the last bits
        assert np.array_equal(got[:, 0], want[:, 0])
        np.testing.assert_array_max_ulp(got[:, 1], want[:, 1], maxulp=4)
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("cap", list(TIE_CAPS.values()), ids=list(TIE_CAPS))
def test_tied_group_totals_route_to_the_lowest_group(monkeypatch, cap):
    monkeypatch.setattr(quantizer, "_CHUNK_BYTES", cap)
    rng = np.random.default_rng(16)
    T, K, d = 4, 5, 2
    base = rng.standard_normal((T, K, d))
    # group 1 is group 0 with its codes permuted, so both reach the same minimum
    # per token; group 2 is the worst one, and group 3 repeats group 0
    codes = np.stack([base, base[:, ::-1], base + 10.0, base])
    pool = CodebookPool(codes, T=T)
    batch = rng.standard_normal((7, T, d))
    totals = search(batch, codes)[1].sum(axis=2)
    assert np.array_equal(totals[:, 0], totals[:, 1]) and np.array_equal(totals[:, 0], totals[:, 3])
    groups, indices, errors = quantize_corpus(batch, pool)
    assert (groups == 0).all()
    want_i, want_e = oracle_search(batch, codes[:1])
    assert np.array_equal(indices, want_i[:, 0])
    assert np.allclose(errors, want_e[:, 0].sum(axis=1), rtol=1e-12, atol=0)
    for tokens in batch:
        assert route_naive(tokens, pool) == 0
        assert quantize_routed(tokens, pool).group_index == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_tokens_rejected(bad):
    # argmin over NaN errors used to pick group 0 and index 0 silently
    rng = np.random.default_rng(14)
    pool = random_pool(rng, M=3, T=4, K=5, d=2)
    tokens = rng.standard_normal((4, 2))
    tokens[2, 1] = bad
    with pytest.raises(RangeViolation):
        quantize_routed(tokens, pool, policy="nn")
    with pytest.raises(RangeViolation):
        quantize_group(tokens, pool.groups[0])


def test_routed_single_group_always_zero():
    rng = np.random.default_rng(5)
    pool = random_pool(rng, M=1, T=4, K=3, d=2)
    q = quantize_routed(rng.standard_normal((4, 2)), pool, policy="nn")
    assert q.group_index == 0


def test_routed_nn_never_worse_than_cr():
    from stscq.router import init_router

    rng = np.random.default_rng(6)
    pool = random_pool(rng, M=4, T=5, K=6, d=3)
    router = init_router(3, 4, h=8, seed=0)
    for _ in range(20):
        tokens = rng.standard_normal((5, 3))
        qn = quantize_routed(tokens, pool, policy="nn")
        qc = quantize_routed(tokens, pool, policy="cr", router=router)
        _, en = quantize_group(tokens, pool.groups[qn.group_index])
        _, ec = quantize_group(tokens, pool.groups[qc.group_index])
        assert en <= ec + 1e-12


def test_routed_cr_without_router_raises():
    rng = np.random.default_rng(7)
    pool = random_pool(rng, M=2, T=3, K=2, d=2)
    with pytest.raises(UntrainedRouter):
        quantize_routed(rng.standard_normal((3, 2)), pool, policy="cr")


@pytest.mark.parametrize("router_M", [1, 8])
def test_cr_router_for_another_group_count_is_rejected(router_M):
    # an 8-group router on a 2-group pool used to raise IndexError, or silently
    # route among the first groups only
    rng = np.random.default_rng(17)
    pool = random_pool(rng, M=2, T=3, K=4, d=2)
    router = init_router(2, router_M, h=8, seed=0)
    tokens = rng.standard_normal((5, 3, 2))
    with pytest.raises(HeaderMismatch, match=f"M={router_M} .* M=2"):
        quantize_routed(tokens[0], pool, policy="cr", router=router)
    with pytest.raises(HeaderMismatch, match=f"M={router_M} .* M=2"):
        quantize_corpus(tokens, pool, policy="cr", router=router)


def test_routed_nn_matches_double_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(30):
        M, T, K, d = (int(rng.integers(1, 9)) for _ in range(4))
        pool = random_pool(rng, M=M, T=T, K=K, d=d)
        tokens = rng.standard_normal((T, d))
        q = quantize_routed(tokens, pool, policy="nn")
        best_g, best_e, best_idx = 0, float("inf"), None
        for gi, g in enumerate(pool.groups):
            idx = []
            total = 0.0
            for t in range(T):
                i, e = brute_force_nearest(tokens[t], g.sub[t].codes)
                idx.append(i)
                total += e
            if total < best_e:
                best_g, best_e, best_idx = gi, total, idx
        assert q.group_index == best_g
        assert list(q.indices) == best_idx


def test_dequantize_looks_up_selected_group():
    rng = np.random.default_rng(9)
    pool = random_pool(rng, M=3, T=4, K=5, d=2)
    q = quantize_routed(rng.standard_normal((4, 2)), pool, policy="nn")
    z = dequantize(q, pool)
    g = pool.groups[q.group_index]
    for t in range(4):
        assert np.array_equal(z[t], g.sub[t].codes[q.indices[t]])


def test_quantize_dequantize_fixed_point():
    rng = np.random.default_rng(10)
    for _ in range(20):
        pool = random_pool(rng, M=3, T=4, K=6, d=3)
        q = quantize_routed(rng.standard_normal((4, 3)), pool, policy="nn")
        z = dequantize(q, pool)
        q2 = quantize_routed(z, pool, policy="nn")
        assert q2.group_index == q.group_index
        assert np.array_equal(q2.indices, q.indices)


def test_dequantize_zero_codebook():
    pool = CodebookPool([TokenSpecificGroup([Codebook(np.zeros((3, 2)))] * 4)])
    z = dequantize(QuantizedImage(0, [0, 1, 2, 0]), pool)
    assert not z.any()


def test_dequantize_range_checks():
    rng = np.random.default_rng(11)
    pool = random_pool(rng, M=2, T=3, K=4, d=2)
    with pytest.raises(IndexOutOfRange):
        dequantize(QuantizedImage(2, [0, 0, 0]), pool)
    with pytest.raises(IndexOutOfRange):
        dequantize(QuantizedImage(0, [0, 4, 0]), pool)


def test_duplicate_code_never_changes_index():
    rng = np.random.default_rng(12)
    cb = Codebook(rng.standard_normal((5, 3)))
    dup = np.insert(cb.codes, 3, cb.codes[2], axis=0)  # code 2 duplicated as 3
    cb_dup = Codebook(dup)
    for _ in range(50):
        z = rng.standard_normal(3)
        i1, _ = quantize_one(z, cb)
        i2, _ = quantize_one(z, cb_dup)
        assert i2 == (i1 if i1 <= 2 else i1 + 1)


def test_error_monotone_in_group_count():
    rng = np.random.default_rng(13)
    groups = [
        TokenSpecificGroup([Codebook(rng.standard_normal((4, 2))) for _ in range(3)])
        for _ in range(5)
    ]
    tokens = rng.standard_normal((3, 2))
    prev = float("inf")
    for m in range(1, 6):
        pool = CodebookPool(groups[:m])
        q = quantize_routed(tokens, pool, policy="nn")
        _, err = quantize_group(tokens, pool.groups[q.group_index])
        assert err <= prev + 1e-12
        prev = err


def test_derived_group_quantizes_like_shared():
    rng = np.random.default_rng(14)
    cb = Codebook(rng.standard_normal((6, 3)))
    group = derive_token_specific(cb, 5)
    tokens = rng.standard_normal((5, 3))
    gi, gt = quantize_group(tokens, group)
    si, st_ = quantize_group(tokens, TokenSpecificGroup([cb] * 5))
    assert np.array_equal(gi, si)
    assert gt == pytest.approx(st_)


def test_dequantize_rejects_non_finite_codes_it_gathers():
    rng = np.random.default_rng(15)
    codes = rng.standard_normal((2, 4, 3, 2))
    codes[1, 2, 1, 0] = np.nan  # group 1, token 2, code 1
    codes[0, 0, 0, 1] = np.inf  # gathered by no stream below
    pool = CodebookPool(codes, frozen=True)
    assert np.array_equal(dequantize(QuantizedImage(1, [0, 1, 2, 0]), pool), codes[1, np.arange(4), [0, 1, 2, 0]])
    assert np.isfinite(dequantize(QuantizedImage(0, [1, 1, 1, 1]), pool)).all()
    with pytest.raises(RangeViolation):
        dequantize(QuantizedImage(1, [0, 0, 1, 0]), pool)
