import hashlib
import itertools
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import stscq
from hypothesis import given, settings
from hypothesis import strategies as st

from stscq import trainer, window
from stscq.bitstream import StreamHeader, serialize
from stscq.codebook import Codebook, CodebookPool, TokenSpecificGroup, init_kmeanspp, load_pool, save_pool
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
    with pytest.raises(ShapeMismatch):  # the right length, but not real numbers
        quantize_one(np.array(["a", "b"]), Codebook(np.zeros((2, 2))))
    with pytest.raises(ShapeMismatch):  # ragged: numpy's asarray refuses it
        quantize_one([[1.0, 2.0], [3.0]], Codebook(np.zeros((2, 2))))


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
    with pytest.raises(ShapeMismatch):
        quantize_group([[0.0, 0.0], [0.0], [0.0, 0.0]], group)


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
@pytest.mark.parametrize("B, K", [(0, 7), (2, 7), (33, 7), (2, 300), (33, 300)],
                         ids=["0", "2", "33", "2-K300", "33-K300"])
@pytest.mark.parametrize("shared", [False, True], ids=["T'=T", "T'=1"])
@pytest.mark.parametrize("data", ["normal", "grid", "midpoints", "offset", "non-finite"])
def test_screened_search_is_the_difference_form_bit_for_bit(monkeypatch, data, shared, B, K):
    """Grids tie exactly, with a duplicate code after its first copy; midpoints
    sit between grid codes; a common offset of 1e3 with 1e-6 spreads puts the
    screen's rounding far above the gaps between codes; a NaN code is the
    difference form's choice, and an infinite one never is. The screen's
    inf − inf on those codes must not warn. At K=300 a slice holds fewer images
    than codes (B=2) or more (B=33)."""
    rng = np.random.default_rng(19)
    M, T, d = 2, 9, 3
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
    """_settle searches the screen's uncertified rows over all K with _block_search."""
    rescored = []
    block_search = quantizer._block_search

    def counting(z, blocks, at, *args, **kwargs):
        rescored.append(at.size)
        return block_search(z, blocks, at, *args, **kwargs)

    monkeypatch.setattr(quantizer, "_block_search", counting)
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
    wants = [search(tokens[None], codes) for tokens in images]
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
                for got, w in zip(search(tokens[None], c), want):
                    assert np.array_equal(got, w)
    finally:
        sys.setswitchinterval(interval)
    assert (quantizer._pool is not None) == (workers > 1)
    if quantizer._pool is not None:
        quantizer._pool.shutdown()


def broadcast_difference_form(tokens, codes):
    """One image's search as one broadcast formula: the (M, T, K, d)
    difference, its squares summed by einsum, argmin and take_along_axis."""
    T, d = tokens.shape
    M, _, K, _ = codes.shape
    diff = tokens[None, :, None, :] - np.broadcast_to(codes, (M, T, K, d))
    dists = np.einsum("mtkd,mtkd->mtk", diff, diff)
    idx = dists.argmin(axis=2)  # argmin returns the first minimum: lowest index
    return idx, np.take_along_axis(dists, idx[..., None], axis=2)[..., 0]


@pytest.mark.parametrize("d", [1, 3, 8])
@pytest.mark.parametrize("M", [1, 3])
@pytest.mark.parametrize("shared", [False, True], ids=["T'=T", "T'=1"])
@pytest.mark.parametrize("data", ["normal", "grid", "non-finite"])
def test_difference_search_is_the_broadcast_formula_bit_for_bit(monkeypatch, data, shared, M, d):
    """Every worker count and slice size gives the broadcast formula's bits.
    Grids tie exactly, with a duplicate code after its first copy, and
    half-integer tokens sit midway between codes. A NaN code is chosen at its
    first index with a NaN error; a token whose codes are all infinite takes
    the first, with an infinite error. Codes sit 5 bytes off alignment, as a
    mapped pool's do."""
    rng = np.random.default_rng(25)
    T, K = 7, 6
    shape = (M, 1 if shared else T, K, d)
    if data == "grid":
        codes = rng.integers(-2, 3, size=shape).astype(float)
        codes[:, :, 3] = codes[:, :, 1]
        tokens = rng.integers(-3, 4, size=(T, d)) + 0.5 * rng.integers(0, 2, size=(T, d))
    else:
        codes, tokens = rng.standard_normal(shape), rng.standard_normal((T, d))
    books = codes.reshape(-1, K, d)  # 1, 3, 7 or 21 codebooks
    if data == "non-finite":
        books[0, [2, 4], 0] = np.nan
        books[-1, 1, -1], books[-1, 3, 0] = np.inf, -np.inf
        books[1:2] = np.inf  # every code of the second codebook, if there is one
    want = broadcast_difference_form(tokens, codes)
    if data == "grid":
        assert not (want[0] == 3).any()  # the later duplicate is never chosen
    if data == "non-finite":
        assert want[0][0, 0] == 2 and np.isnan(want[1][0, 0])
        if len(books) > 1:
            m, t = divmod(1, shape[1])
            assert want[0][m, t] == 0 and want[1][m, t] == np.inf
    unaligned = np.frombuffer(bytes(5) + codes.tobytes(), offset=5).reshape(codes.shape)
    monkeypatch.setattr(quantizer, "_pool", None)
    try:
        for workers, c in itertools.product((1, 2, 3), (codes, unaligned)):
            monkeypatch.setattr(quantizer, "_WORKERS", workers)
            # all T = 7 tokens in one slice, and slices of 1, 2 and 3 tokens:
            # the last two leave a short last slice
            for per_slice in (T, 1, 2, 3):
                monkeypatch.setattr(quantizer, "_CHUNK_BYTES", 8 * (M + 1) * K * d * workers * per_slice)
                for got, w in zip(search(tokens[None], c), want):
                    assert got.shape == (1, M, T)
                    assert np.array_equal(got[0], w, equal_nan=True)
    finally:
        if quantizer._pool is not None:
            quantizer._pool.shutdown()


SEARCH_DIGEST = """
import hashlib, sys
import numpy as np
from stscq import quantizer, window
tokens, codes, *index = (np.load(a) for a in sys.argv[1:])
for found in quantizer.search(tokens[None], codes), quantizer.search(tokens[None], codes, window.WindowIndex(*index, 16)):
    print(hashlib.sha256(found[0].tobytes() + found[1].tobytes()).hexdigest())
"""


def _dispatched_targets():
    """The SIMD targets above its baseline that numpy dispatches to on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [t for t in getattr(umath, "__cpu_dispatch__", []) if umath.__cpu_features__.get(t)]


@pytest.mark.skipif(not _dispatched_targets(), reason="numpy dispatches to no SIMD target above its baseline here")
@pytest.mark.parametrize("d", [3, 8, 16])
def test_single_image_search_is_the_same_bits_under_baseline_simd(tmp_path, d):
    """numpy picks its subtract, einsum and argmin loops by the CPU's SIMD
    features at import; with every dispatched target disabled, one image's
    indices and errors must be the same bits, searched densely and through a
    window index built here (W = 16 of K = 64). The codes spread 4 times as
    far along their first axis, so at each d some rows are certified by the
    first window, some by the doubled one and some only by the all-K search."""
    rng = np.random.default_rng(26)
    tokens, codes = rng.standard_normal((16, d)), rng.standard_normal((4, 16, 64, d))
    tokens[:, 0] *= 4
    codes[..., 0] *= 4
    index = window_index(codes, 16)
    arrays = {"tokens": tokens, "codes": codes, "ordered": index.codes, "marks": index.marks, "axes": index.axes,
              "perm": index.perm}
    for name, a in arrays.items():
        np.save(tmp_path / f"{name}.npy", a)
    found = search(tokens[None], codes), search(tokens[None], codes, index)
    for g, w in zip(*found):
        assert np.array_equal(g, w)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(_dispatched_targets()))
    env["PYTHONPATH"] = os.pathsep.join([str(Path(stscq.__file__).parents[1]), env.get("PYTHONPATH", "")])
    args = [str(tmp_path / f"{name}.npy") for name in arrays]
    run = subprocess.run([sys.executable, "-c", SEARCH_DIGEST, *args], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [hashlib.sha256(i.tobytes() + e.tobytes()).hexdigest() for i, e in found]


@pytest.mark.parametrize("workers", [1, 2])
def test_single_image_search_allocates_within_its_cap(monkeypatch, workers):
    """Each worker's buffers (the token repeated K times, the differences and,
    at d = 8, distances an eighth of their size) are allocated once per call
    and refilled slice by slice: one call holds at most 1.25 × _CHUNK_BYTES
    besides its two (M, T) results. Fresh buffers per slice, allocated while
    the last slice's are still held, would take about twice the cap. Codes 5
    bytes off alignment, as a mapped pool's are, are taken as they are: a copy
    of them would be 6 to 13 times the cap."""
    rng = np.random.default_rng(27)
    M, T, K, d = 4, 32, 1024, 8
    tokens, codes = rng.standard_normal((T, d)), rng.standard_normal((M, T, K, d))
    unaligned = np.frombuffer(bytes(5) + codes.tobytes(), offset=5).reshape(codes.shape)
    cap = 8 * (M + 1) * K * d * workers * 2  # slices of 2 tokens: 16 on one worker, 8 each on two
    monkeypatch.setattr(quantizer, "_pool", None)
    monkeypatch.setattr(quantizer, "_WORKERS", workers)
    monkeypatch.setattr(quantizer, "_CHUNK_BYTES", cap)
    try:
        for c in (codes, unaligned):
            search(tokens[None], c)  # starts the threads
            tracemalloc.start()
            try:
                search(tokens[None], c)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * cap + 2 * 8 * M * T
    finally:
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
    want = search(tokens[None], codes)
    assert quantizer._pool is not None
    pid = os.fork()
    if pid == 0:
        code = 2
        try:
            got = search(tokens[None], codes)
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
    with pytest.raises(RangeViolation):  # it returned index 0 with a non-finite error
        quantize_one(tokens[2], Codebook(pool.codes[0, 2]))


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
    group = TokenSpecificGroup(np.repeat(cb.codes[None], 5, axis=0), 5)
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


# --- the window index (window.py) as search's candidate source for one image ---


def window_index(codes, W, marks=None):
    """The WindowIndex that window.save writes for (M, T, K, d) `codes`, in
    memory, with a window of W codes; `marks` replaces the stored projections,
    which only place the windows."""
    built_marks, axes, perm = window.build(codes)
    ordered = np.take_along_axis(codes, perm[..., None].astype(np.intp), axis=2)
    return window.WindowIndex(ordered, built_marks if marks is None else marks, axes, perm, W)


def window_codes(kind, rng, shape):
    """Values of one of the search tests' kinds: grids tie exactly, with
    duplicate codes after their first copies; offset values sit far from the
    origin, at 1e3 with 1e-6 spreads."""
    if kind == "normal":
        return rng.standard_normal(shape)
    if kind == "offset":
        return 1e3 + 1e-6 * rng.standard_normal(shape)
    codes = rng.integers(-2, 3, size=shape).astype(float)
    codes[:, :, 1::3] = codes[:, :, : len(range(1, shape[2], 3))]  # duplicates, later than their first copies
    return codes


@settings(deadline=None, max_examples=120, derandomize=True)
@given(
    kind=st.sampled_from(["normal", "grid", "offset"]),
    d=st.sampled_from([1, 3, 8]),
    M=st.integers(1, 3),
    T=st.integers(1, 7),
    K=st.sampled_from([5, 17, 40, 64, 96]),
    W=st.integers(1, 96) | st.sampled_from([16, 32, 48]),
    workers=st.sampled_from([1, 2]),
    per_slice=st.sampled_from([1, 2, 64]),
    seed=st.integers(0, 2**16),
)
def test_window_search_is_the_difference_form_bit_for_bit(kind, d, M, T, K, W, workers, per_slice, seed):
    """Every index and error of a search through the index is the difference
    form's over all K: ties and duplicate codes, offset codes, windows at both
    edges of their codebooks, K not a multiple of 16 (single-code windows) and
    K = 64 or 96 with W a multiple of 16 (windows of 16-code blocks), on one
    worker or two, in slices of 1, 2 or all tokens. Tokens from grids sit on
    codes or midway between them; others reach past every code, so some
    windows sit at a codebook's edge."""
    rng = np.random.default_rng(seed)
    W = min(W, K)
    codes = window_codes(kind, rng, (M, T, K, d))
    tokens = window_codes(kind, rng, (1, T, d))[0] + (0.5 * rng.integers(0, 2, size=(T, d)) if kind == "grid" else 0)
    tokens[0] *= 3  # beyond most codes: the window at an edge
    want = search(tokens[None], codes)
    index = window_index(codes, W)
    saved = quantizer._WORKERS, quantizer._CHUNK_BYTES, quantizer._pool
    quantizer._WORKERS, quantizer._pool = workers, None
    # per_slice tokens per slice of the fallback; the windows' slices hold K / W times as many
    quantizer._CHUNK_BYTES = 16 * K * d * workers * per_slice
    try:
        got = search(tokens[None], codes, index)
    finally:
        if quantizer._pool is not None:
            quantizer._pool.shutdown()
        quantizer._WORKERS, quantizer._CHUNK_BYTES, quantizer._pool = saved
    for g, w in zip(got, want):
        assert g.shape == (1, M, T)
        assert np.array_equal(g, w)


def spy_window_passes(monkeypatch):
    """The (width, positions, errors, certified) of each _window_pass a search makes."""
    passes = []
    window_pass = quantizer._window_pass

    def spying(z, books, book, axes, pz, rank, width, perm):
        found = window_pass(z, books, book, axes, pz, rank, width, perm)
        passes.append((width, *(a.copy() for a in found)))
        return found

    monkeypatch.setattr(quantizer, "_window_pass", spying)
    return passes


@pytest.mark.parametrize("place", ["left", "right", "middle"])
def test_window_search_certifies_what_it_can_and_settles_the_rest(monkeypatch, place):
    """Windows placed at a codebook's left or right edge by marks made for it,
    or at the tokens' ranks: the result is the difference form's, the widths
    double up to a last window of all K codes, which certifies every row it
    gets, and with the windows at the ranks most rows are certified by their
    first window alone, as the codes spread mostly along one axis."""
    rng = np.random.default_rng(40)
    M, T, K, d, W = 2, 6, 40, 3, 16
    spread = np.array([10.0, 1.0, 1.0])
    codes, tokens = rng.standard_normal((M, T, K, d)) * spread, rng.standard_normal((T, d)) * spread
    marks = {"left": np.inf, "right": -np.inf, "middle": None}[place]
    index = window_index(codes, W, None if marks is None else np.full((M, T, 3), marks))
    passes = spy_window_passes(monkeypatch)
    got = search(tokens[None], codes, index)
    for g, w in zip(got, search(tokens[None], codes)):
        assert np.array_equal(g, w)
    assert [p[0] for p in passes] == [W, 2 * W, K][: len(passes)]
    assert passes[-1][3].all()
    if place == "middle":
        narrow = sum(ok.sum() for width, _, _, ok in passes if width < K)  # rows certified below all K
        assert passes[0][3].mean() > 0.5 and narrow > 0.5 * M * T
    else:  # every pass's candidates lie in its window at the edge
        for width, positions, _, _ in passes:
            assert ((positions < width) if place == "left" else (positions >= K - width)).all()


def test_a_lower_index_duplicate_just_past_the_window_is_not_missed(monkeypatch):
    """Code 30 duplicates code 14; sorted by value, code 14 sits just left of
    the window [15, 17), which holds code 30. A token at the value plus 1 is
    exactly √best from code 14 in projection, so a certificate that took
    gap ≥ √best would certify the window and return code 30. The strict one,
    with its margin, leaves the row to the doubled window [14, 18), which holds
    both copies and returns code 14, the lowest code index at the minimum, as
    the difference form does."""
    K, W = 40, 2
    values = np.arange(K) * 10.0
    values[30] = values[14]
    perm = np.argsort(values, kind="stable")  # code 14 at position 14, code 30 at 15
    keys = values[perm]
    # axis 1, and the marks of the sorted projections: the token's rank is 16, so the window starts at 15
    index = window.WindowIndex(keys.reshape(1, 1, K, 1), keys[::16].reshape(1, 1, 3), np.ones((1, 1, 1)),
                               perm.astype(np.uint16).reshape(1, 1, K), W)
    codes, token = values.reshape(1, 1, K, 1), np.array([[values[14] + 1]])
    want = search(token[None], codes)
    assert want[0][0, 0, 0] == 14 and want[1][0, 0, 0] == 1.0
    assert token[0, 0] - keys[14] == np.sqrt(want[1][0, 0, 0])  # the gap past the left edge is exactly √best
    passes = spy_window_passes(monkeypatch)
    got = search(token[None], codes, index)
    assert got[0][0, 0, 0] == 14 and got[1][0, 0, 0] == 1.0
    _, first, _, first_certified = passes[0]
    assert first[0, 0] == 15 and not first_certified[0, 0]
    assert perm[first[0, 0]] == 30  # what the window alone would have returned


def test_a_lower_index_duplicate_just_past_the_doubled_window_is_not_missed(monkeypatch):
    """Code 30 duplicates code 5, and the token sits at their value plus 1, at
    sorted position 5 or 6, but its rank among the marks is 16. The first
    window, [11, 21), holds neither copy and is not certified. The doubled
    one, [6, 26), holds code 30, and code 5 sits just past its left edge,
    exactly √best from the token in projection; a second certificate that took
    gap ≥ √best would return code 30. The strict one leaves the row to the
    third window, 4W = K wide, which holds every code and returns code 5."""
    K, W = 40, 10
    values = np.arange(K) * 10.0
    values[30] = values[5]
    perm = np.argsort(values, kind="stable")  # code 5 at position 5, code 30 at 6
    keys = values[perm]
    index = window.WindowIndex(keys.reshape(1, 1, K, 1), keys[::16].reshape(1, 1, 3), np.ones((1, 1, 1)),
                               perm.astype(np.uint16).reshape(1, 1, K), W)
    codes, token = values.reshape(1, 1, K, 1), np.array([[values[5] + 1]])
    want = search(token[None], codes)
    assert want[0][0, 0, 0] == 5 and want[1][0, 0, 0] == 1.0
    assert token[0, 0] - keys[5] == np.sqrt(want[1][0, 0, 0])  # the gap past the doubled window's edge is √best
    passes = spy_window_passes(monkeypatch)
    got = search(token[None], codes, index)
    assert [(width, pos.item(), ok.item()) for width, pos, _, ok in passes] == [
        (W, 11, False), (2 * W, 6, False), (K, 5, True)]
    assert got[0][0, 0, 0] == 5 and got[1][0, 0, 0] == 1.0
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_each_row_is_settled_by_the_narrowest_window_that_certifies_it(monkeypatch):
    """Codes along x = 0..127 with a little spread in y, so the principal axis
    is x, and tokens at x = 72 whose distance |y| from the axis sets how wide
    a window must be to certify them. The first window (W = 32) and the doubled
    one reach about 8 and 24 codes past the token; |y| below 8 is certified by
    the first, between 8 and 24 only by the doubled one, and above 24 by
    neither, and those rows go to the third window, 4W = K wide. Every index and
    error is the dense search's, bit for bit."""
    rng = np.random.default_rng(43)
    M, T, K, d, W = 2, 6, 128, 2, 32
    codes = np.stack(np.broadcast_arrays(np.arange(K, dtype=float), 0.01 * rng.standard_normal((M, T, K))), axis=-1)
    tokens = np.stack([np.full(T, 72.0), [0.5, -3.0, 14.0, -16.0, 35.0, -60.0]], axis=-1)
    want = search(tokens[None], codes)
    index = window_index(codes, W)
    searched = []
    block_search = quantizer._block_search

    def counting(z, blocks, at, span=1, perm=None):
        searched.append((at.size, span * blocks.shape[1]))
        return block_search(z, blocks, at, span, perm)

    def settling(*args):
        raise AssertionError("an indexed search calls no _settle")

    monkeypatch.setattr(quantizer, "_block_search", counting)
    monkeypatch.setattr(quantizer, "_settle", settling)
    got = search(tokens[None], codes, index)
    # (rows, codes per row): every row, the rows the first window left, then the rows neither window certified;
    # two tokens of each group in each tier
    assert searched == [(M * T, W), (4 * M, 2 * W), (2 * M, K)]
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("theta", np.linspace(0.1, 1.4, 14))
def test_the_certificate_margin_covers_the_projections_rounding(theta):
    """As above, a lower-index duplicate just left of the window, but with codes
    near 1e3 on an axis p that no float holds exactly, and the token t = 1e-13
    to 3e-12 from the duplicate along p. The gap in projection is then about
    √best, give or take the projections' rounding (about 1e-13): without its
    absolute margin, the certificate took the window's copy in 21 of these 56
    cases."""
    K, W = 40, 2
    p = np.array([np.cos(theta), np.sin(theta)])
    codes = np.stack([1000 + 10 * np.arange(K), np.full(K, 1000.0)], axis=1)
    codes[30] = codes[14]
    keys = np.einsum("kd,d->k", codes, p)
    perm = np.argsort(keys, kind="stable")  # code 14 at position 14, code 30 at 15: the window starts at 15
    index = window.WindowIndex(codes[perm].reshape(1, 1, K, 2), keys[perm][::16].reshape(1, 1, 3), p.reshape(1, 1, 2),
                               perm.astype(np.uint16).reshape(1, 1, K), W)
    for t in (1e-13, 3e-13, 1e-12, 3e-12):
        token = (codes[14] + t * p).reshape(1, 2)
        want = search(token[None], codes.reshape(1, 1, K, 2))
        assert want[0][0, 0, 0] == 14
        got = search(token[None], codes.reshape(1, 1, K, 2), index)
        assert got[0][0, 0, 0] == 14 and got[1][0, 0, 0] == want[1][0, 0, 0]


def test_a_pool_with_a_non_finite_code_gets_no_index(tmp_path):
    codes = np.random.default_rng(41).standard_normal((1, 2, window.MIN_K, 2))
    save_pool(CodebookPool(codes, frozen=True), tmp_path / "ok.pool")
    assert (tmp_path / "ok.pool.pidx").exists()
    codes[0, 1, 7, 0] = np.nan
    assert window.build(codes) is None
    save_pool(CodebookPool(codes, frozen=True), tmp_path / "ok.pool")  # over the finite pool: its index goes too
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ok.pool"]


def test_encode_reads_only_the_index(tmp_path, monkeypatch):
    """The index built from real codes, beside a pool whose codes are all NaN:
    NN encode, both its routing search and the winner's, gives the stream of
    the dense search over the real codes. Any read of the pool's codes would
    make a NaN error, or another index."""
    rng = np.random.default_rng(42)
    M, T, K, d = 3, 4, window.MIN_K, 2
    codes = rng.standard_normal((M, T, K, d))
    save_pool(CodebookPool(codes, frozen=True), tmp_path / "p.pool")
    index = load_pool(tmp_path / "p.pool").index
    assert index is not None
    nan_pool = CodebookPool(np.full_like(codes, np.nan), frozen=True)
    monkeypatch.setattr(CodebookPool, "index", property(lambda pool: index))
    header = StreamHeader(M=M, K=K, T=T, width=4 * T, height=4, channels=1)
    for tokens in rng.standard_normal((4, T, d)):
        got = quantize_routed(tokens, nan_pool)
        monkeypatch.setattr(CodebookPool, "index", property(lambda pool: None))
        want = quantize_routed(tokens, CodebookPool(codes, frozen=True))
        monkeypatch.setattr(CodebookPool, "index", property(lambda pool: index))
        assert serialize(got, header) == serialize(want, header)
