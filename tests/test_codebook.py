import struct

import numpy as np
import pytest

from stscq.codebook import (
    Codebook,
    CodebookPool,
    TokenSpecificGroup,
    bit_width,
    derive_token_specific,
    init_kmeanspp,
    load_pool,
    save_pool,
    utilization,
)
from stscq.errors import HeaderMismatch, LengthMismatch, RangeViolation, TooFewSamples, Truncated
from stscq.latent import PcaTransform, load_pca, save_pca
from stscq.quantizer import dequantize, quantize_routed
from stscq.router import init_router, load_router, save_router


def test_bit_width_values():
    assert bit_width(1) == 0
    assert bit_width(2) == 1
    assert bit_width(3) == 2
    assert bit_width(4) == 2
    assert bit_width(256) == 8
    assert bit_width(257) == 9
    assert bit_width(4096) == 12


def test_kmeans_exact_cover():
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((6, 3)) * 10
    cb = init_kmeanspp(samples, K=6, seed=1)
    # every sample should be one of the centers (quantization error 0)
    for s in samples:
        dists = ((cb.codes - s) ** 2).sum(axis=1)
        assert dists.min() == pytest.approx(0.0, abs=1e-12)


def test_kmeans_single_center_is_mean():
    rng = np.random.default_rng(1)
    samples = rng.standard_normal((50, 4))
    cb = init_kmeanspp(samples, K=1, seed=2)
    assert np.allclose(cb.codes[0], samples.mean(axis=0))


def test_kmeans_two_separated_clusters():
    rng = np.random.default_rng(2)
    a = rng.normal(-5.0, 0.5, size=(200, 2))
    b = rng.normal(5.0, 0.5, size=(200, 2))
    cb = init_kmeanspp(np.concatenate([a, b]), K=2, seed=3)
    separation = np.linalg.norm([10.0, 10.0])
    targets = [np.full(2, -5.0), np.full(2, 5.0)]
    for target in targets:
        best = min(np.linalg.norm(c - target) for c in cb.codes)
        assert best <= 0.1 * separation


def test_kmeans_too_few_samples():
    with pytest.raises(TooFewSamples):
        init_kmeanspp(np.zeros((3, 2)), K=4, seed=0)


def test_kmeans_deterministic():
    rng = np.random.default_rng(3)
    samples = rng.standard_normal((100, 3))
    a = init_kmeanspp(samples, K=8, seed=7)
    b = init_kmeanspp(samples, K=8, seed=7)
    assert np.array_equal(a.codes, b.codes)


def test_derive_copies_are_independent():
    cb = Codebook(np.arange(6, dtype=float).reshape(3, 2))
    group = derive_token_specific(cb, 4)
    assert group.T == 4
    assert not group.token_shared
    group.sub[0].codes[0, 0] = 99.0
    assert group.sub[1].codes[0, 0] == 0.0
    assert cb.codes[0, 0] == 0.0


def test_derive_single_copy_group():
    cb = Codebook(np.ones((2, 2)))
    group = derive_token_specific(cb, 1)
    assert group.T == 1
    assert np.array_equal(group.sub[0].codes, cb.codes)


def test_utilization_full_usage():
    hist = np.ones((4, 8), dtype=int)
    stats = utilization(hist, 8)
    assert stats.min == stats.max == stats.mean == 100.0
    assert stats.std == 0.0


def test_utilization_partial():
    hist = np.zeros((1, 4), dtype=int)
    hist[0, :3] = 5
    stats = utilization(hist, 4)
    assert stats.mean == pytest.approx(75.0)


def test_utilization_population_std():
    hist = np.zeros((2, 4), dtype=int)
    hist[0, :2] = 1  # 50%
    hist[1, :] = 1  # 100%
    stats = utilization(hist, 4)
    assert stats.mean == pytest.approx(75.0)
    assert stats.std == pytest.approx(25.0)  # population, not sample


def test_utilization_invariant_ordering():
    rng = np.random.default_rng(4)
    hist = rng.integers(0, 3, size=(6, 5))
    stats = utilization(hist, 5)
    assert 0 <= stats.min <= stats.mean <= stats.max <= 100


def test_token_shared_group_reference_semantics():
    cb = Codebook(np.zeros((3, 2)))
    group = TokenSpecificGroup([cb] * 5)
    assert group.token_shared
    cb.codes[0, 0] = 1.5
    assert group.codes_array()[4, 0, 0] == 1.5


def test_pool_file_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    groups = [
        TokenSpecificGroup([Codebook(rng.standard_normal((4, 3))) for _ in range(5)])
        for _ in range(3)
    ]
    pool = CodebookPool(groups)
    path = tmp_path / "p.pool"
    save_pool(pool, path)
    loaded = load_pool(path)
    assert (loaded.M, loaded.T, loaded.K, loaded.d) == (3, 5, 4, 3)
    assert not loaded.token_shared and not loaded.frozen
    for g1, g2 in zip(pool.groups, loaded.groups):
        assert np.array_equal(g1.codes_array(), g2.codes_array())


def test_pool_file_round_trip_token_shared(tmp_path):
    rng = np.random.default_rng(6)
    pool = CodebookPool(
        [TokenSpecificGroup([Codebook(rng.standard_normal((4, 2)))] * 3) for _ in range(2)]
    )
    path = tmp_path / "p.pool"
    save_pool(pool, path)
    loaded = load_pool(path)
    assert loaded.token_shared and not loaded.frozen
    assert np.array_equal(loaded.groups[0].codes_array(), pool.groups[0].codes_array())


def _save_artifact(kind, path):
    """Save a small pool, router or PCA transform to `path`; return its loader."""
    rng = np.random.default_rng(8)
    if kind == "pool":
        groups = [TokenSpecificGroup([Codebook(rng.standard_normal((4, 2))) for _ in range(3)]) for _ in range(2)]
        save_pool(CodebookPool(groups, frozen=True), path)
        return load_pool
    if kind == "rtr":
        save_router(init_router(d=2, M=3, h=4, seed=8), path)
        return load_router
    save_pca(PcaTransform(2, 1, rng.standard_normal(4), rng.standard_normal((3, 4))), path)
    return load_pca


# byte offset of each header field from the start of the file, and its struct format
HEADER_FIELDS = {
    "pool": {"version": (9, "<B"), "M": (10, "<H"), "T": (12, "<H"), "K": (14, "<I"), "d": (18, "<H"), "flag": (20, "<B")},
    "rtr": {"version": (8, "<B"), "d": (9, "<H"), "h": (11, "<H"), "M": (13, "<H")},
    "pca": {"version": (8, "<B"), "patch_size": (9, "<H"), "channels": (11, "<B"), "d": (12, "<H")},
}


def _malformed(kind, field, value, error):
    case = f"{field}-{value}-{error.__name__}"
    return pytest.param(kind, field, value, error, id=case if kind == "pool" else f"{kind}-{case}")


@pytest.mark.parametrize(
    "kind, field, value, error",
    [
        _malformed("pool", "M", 0, RangeViolation),
        _malformed("pool", "T", 0, RangeViolation),
        _malformed("pool", "K", 0, RangeViolation),
        _malformed("pool", "d", 0, RangeViolation),
        _malformed("pool", "flag", 1, HeaderMismatch),  # shared, but the per-token copies differ
        _malformed("pool", "flag", 3, HeaderMismatch),
        _malformed("pool", "flag", 4, HeaderMismatch),
        _malformed("pool", "flag", 7, HeaderMismatch),
        _malformed("pool", "length", 1, LengthMismatch),  # value: bytes added (+) or cut (-) at the end
        _malformed("pool", "length", -1, Truncated),
        _malformed("pool", "version", 2, HeaderMismatch),
        _malformed("rtr", "M", 0, RangeViolation),
        _malformed("rtr", "d", 0, RangeViolation),
        _malformed("rtr", "h", 0, RangeViolation),
        _malformed("rtr", "length", 8, LengthMismatch),
        _malformed("rtr", "length", -1, Truncated),
        _malformed("rtr", "version", 2, HeaderMismatch),
        _malformed("pca", "d", 0, RangeViolation),
        _malformed("pca", "patch_size", 0, RangeViolation),
        _malformed("pca", "channels", 0, RangeViolation),
        _malformed("pca", "channels", 2, HeaderMismatch),
        _malformed("pca", "length", 8, LengthMismatch),
        _malformed("pca", "length", -1, Truncated),
        _malformed("pca", "version", 3, HeaderMismatch),
    ],
)
def test_load_pool_rejects_malformed_file(tmp_path, kind, field, value, error):
    """The pool, router and PCA loaders reject the same malformed headers and lengths."""
    path = tmp_path / f"a.{kind}"
    load = _save_artifact(kind, path)
    raw = bytearray(path.read_bytes())
    if field == "length":
        raw = raw + bytes(value) if value > 0 else raw[:value]
    else:
        offset, fmt = HEADER_FIELDS[kind][field]
        struct.pack_into(fmt, raw, offset, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(error):
        load(path)


@pytest.mark.parametrize("shared", [True, False], ids=["T'=1", "T'=T"])
def test_array_and_group_constructors_agree(tmp_path, shared):
    rng = np.random.default_rng(7)
    M, T, K, d = 3, 5, 4, 2
    codes = rng.standard_normal((M, 1 if shared else T, K, d))
    if shared:
        groups = [TokenSpecificGroup([Codebook(c[0])] * T) for c in codes]
    else:
        groups = [TokenSpecificGroup([Codebook(cb) for cb in c]) for c in codes]
    pools = [CodebookPool(codes, frozen=not shared, T=T), CodebookPool(groups, frozen=not shared)]

    files = []
    for i, pool in enumerate(pools):
        assert pool.token_shared == shared
        save_pool(pool, tmp_path / f"{i}.pool")
        files.append((tmp_path / f"{i}.pool").read_bytes())
        for m, g in enumerate(pool.groups):
            assert np.shares_memory(g.codes_array(), pool.codes)
            assert np.array_equal(g.codes_array(), np.broadcast_to(codes[m], (T, K, d)))
    assert files[0] == files[1]

    for tokens in rng.standard_normal((8, T, d)):
        qa, qb = (quantize_routed(tokens, pool) for pool in pools)
        assert qa.group_index == qb.group_index
        assert np.array_equal(qa.indices, qb.indices)
        assert np.array_equal(dequantize(qa, pools[0]), dequantize(qb, pools[1]))
