import os
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stscq import artifact, window
from stscq.bitstream import StreamHeader, deserialize, serialize
from stscq.codebook import POOL_MAGIC, CodebookPool, load_pool, save_pool
from stscq.errors import BadMagic, LengthMismatch, RangeViolation, StscqError, Truncated
from stscq.latent import PcaTransform, load_pca, save_pca
from stscq.quantizer import QuantizedImage
from stscq.router import init_router, load_router, save_router


@pytest.mark.parametrize(
    "save, obj",
    [
        (save_pool, CodebookPool(np.zeros((1, 1, 1, 1)), T=70000)),
        (save_router, init_router(d=1, M=1, h=70000)),
        (save_pca, PcaTransform(1, 300, np.zeros(300), np.zeros((1, 300)))),
    ],
    ids=["pool-T", "rtr-h", "pca-channels"],
)
def test_savers_range_check_header_before_writing(tmp_path, save, obj):
    path = tmp_path / "artifact"
    with pytest.raises(RangeViolation):
        save(obj, path)
    assert not path.exists()


def test_header_at_its_maximum_is_truncated_not_overflowed(tmp_path):
    # M·T·K·d·8 is about 2**99 here; an int64 size would wrap
    path = tmp_path / "max.pool"
    path.write_bytes(POOL_MAGIC + struct.pack("<BHHIHB", 1, 2**16 - 1, 2**16 - 1, 2**32 - 1, 2**16 - 1, 0))
    with pytest.raises(Truncated):
        load_pool(path)


_rng = np.random.default_rng(3)
FUZZ_POOL = CodebookPool(_rng.standard_normal((2, 3, 4, 2)), frozen=True, T=3)


def _load_stream(path):
    raw = path.read_bytes()
    return StreamHeader.unpack(raw)[0], deserialize(raw, FUZZ_POOL)


def _save_stream(stream, path):
    path.write_bytes(serialize(stream[1], stream[0]))


# kind -> (object, saver, loader); the v2 PCA file carries all four arrays
FUZZ_FORMATS = {
    "pool": (FUZZ_POOL, save_pool, load_pool),
    "rtr": (init_router(d=2, M=3, h=4, seed=4), save_router, load_router),
    "pca": (PcaTransform(2, 1, _rng.standard_normal(4), *_rng.standard_normal((2, 3, 4)), _rng.standard_normal(4)), save_pca, load_pca),
    "stream": (
        (StreamHeader(M=2, K=4, T=3, width=8, height=8, channels=1), QuantizedImage(1, [3, 0, 2])),
        _save_stream,
        _load_stream,
    ),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("kind", list(FUZZ_FORMATS))
@settings(deadline=None, derandomize=True, max_examples=300)
# half of the positions fall in the first 24 bytes, where the magic and header are
@given(edit=st.sampled_from(["none", "cut", "flip"]), at=st.integers(0, 8 * 24) | st.integers(0, 2**16))
def test_loaders_survive_truncation_and_bit_flips(fuzz_dir, kind, edit, at):
    """A cut or a single flipped bit either raises StscqError or loads what saving writes back exactly."""
    obj, save, load = FUZZ_FORMATS[kind]
    path = fuzz_dir / kind
    save(obj, path)
    raw = bytearray(path.read_bytes())
    if edit == "cut":
        del raw[at % len(raw) :]
    elif edit == "flip":
        at %= 8 * len(raw)
        raw[at // 8] ^= 1 << (at % 8)
    path.write_bytes(bytes(raw))
    try:
        loaded = load(path)
    except StscqError:
        assert edit != "none"
        return
    save(loaded, path)
    assert path.read_bytes() == raw


class _FailsOnWrite:
    """An array argument whose conversion raises, as a full disk would part-way through a save."""

    def __array__(self, *args, **kwargs):
        raise OSError("no space left on device")


def test_a_failed_save_leaves_the_old_file_and_no_temporary(tmp_path):
    path = tmp_path / "a.pool"
    save_pool(FUZZ_POOL, path)
    before = path.read_bytes()
    fields = {"version": 1, "M": 2, "T": 3, "K": 4, "d": 2, "flag": 0}
    with pytest.raises(OSError, match="no space"):
        artifact.write(path, POOL_MAGIC, "<BHHIHB", fields, [_FailsOnWrite()])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.pool"]


def test_saving_over_a_loaded_pool_replaces_the_file(tmp_path):
    """Readers of the old file, the pool mapped from it among them, keep the old bytes."""
    path = tmp_path / "a.pool"
    save_pool(FUZZ_POOL, path)
    before = path.read_bytes()
    save_pool(load_pool(path), path)
    assert path.read_bytes() == before
    loaded = load_pool(path)
    with open(path, "rb") as held:
        save_pool(CodebookPool(FUZZ_POOL.codes + 1.0, frozen=True, T=3), path)
        assert held.read() == before
    assert np.array_equal(loaded.codes, FUZZ_POOL.codes)
    assert np.array_equal(load_pool(path).codes, FUZZ_POOL.codes + 1.0)
    assert [p.name for p in tmp_path.iterdir()] == ["a.pool"]


def test_saving_writes_through_a_symlink_and_keeps_the_mode(tmp_path):
    target, link = tmp_path / "a.pool", tmp_path / "link.pool"
    save_pool(FUZZ_POOL, target)
    target.chmod(0o640)
    link.symlink_to(target.name)
    save_pool(CodebookPool(FUZZ_POOL.codes + 1.0, frozen=True, T=3), link)
    assert link.is_symlink()
    assert target.stat().st_mode & 0o777 == 0o640
    assert np.array_equal(load_pool(target).codes, FUZZ_POOL.codes + 1.0)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.pool", "link.pool"]


@pytest.mark.parametrize("frozen", [True, False], ids=["flag-0", "flag-2"])
def test_token_specific_pool_codes_are_a_read_only_map(tmp_path, frozen):
    path = tmp_path / "a.pool"
    save_pool(CodebookPool(FUZZ_POOL.codes, frozen=frozen, T=3), path)
    codes = load_pool(path).codes
    assert not codes.flags.writeable
    with pytest.raises(ValueError):
        codes[0, 0, 0, 0] = 1.0
    header = len(POOL_MAGIC) + struct.calcsize("<BHHIHB")
    with open(path, "rb") as f:
        f.seek(header)
        assert np.array_equal(codes, np.fromfile(f, dtype="<f8").reshape(codes.shape))


@pytest.mark.parametrize("frozen", [False, True], ids=["flag-1", "flag-3"])
def test_token_shared_pool_codes_are_an_owned_aligned_array(tmp_path, frozen):
    shared = np.random.default_rng(5).standard_normal((2, 1, 4, 2))
    path = tmp_path / "s.pool"
    save_pool(CodebookPool(shared, frozen=frozen, T=3), path)
    codes = load_pool(path).codes
    assert codes.flags.owndata and codes.flags.aligned and codes.flags.writeable
    assert np.array_equal(codes, shared)


@pytest.mark.parametrize("kind", ["rtr", "shared-pool"])
def test_arrays_read_whole_must_be_finite(tmp_path, kind):
    # a NaN router weight used to route every image silently to group 0
    path = tmp_path / kind
    if kind == "rtr":
        router = init_router(d=2, M=3, h=4)
        router.W1[1, 0] = np.nan
        save_router(router, path)
        load = load_router
    else:
        codes = np.random.default_rng(6).standard_normal((2, 1, 4, 2))
        codes[1, 0, 2, 1] = np.inf
        save_pool(CodebookPool(codes, T=3), path)
        load = load_pool
    with pytest.raises(RangeViolation, match="non-finite"):
        load(path)


def test_a_mapped_pool_is_not_scanned_for_non_finite_codes(tmp_path):
    # scanning a map reads all of it; the codes a decode or search uses are checked there
    codes = np.random.default_rng(7).standard_normal((2, 3, 4, 2))
    codes[0, 1, 2, 0] = np.nan
    save_pool(CodebookPool(codes, frozen=True), tmp_path / "p.pool")
    assert np.isnan(load_pool(tmp_path / "p.pool").codes[0, 1, 2, 0])


@pytest.mark.parametrize("old_size", [0, 5, 11, 100], ids=["empty", "shorter", "same", "longer"])
@pytest.mark.parametrize("via_link", [False, True], ids=["file", "symlink"])
def test_rewrite_in_place_gives_the_fresh_bytes_and_keeps_inode_and_mode(tmp_path, old_size, via_link):
    chunks = (b"P5\n", bytearray(b"2 1\n255\n"), np.array([7, 250], dtype=np.uint8))
    fresh = tmp_path / "fresh"
    artifact.rewrite(fresh, *chunks)
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"\xaa" * old_size)
    target.chmod(0o640)
    link.symlink_to(target.name)
    inode = target.stat().st_ino
    artifact.rewrite(link if via_link else target, *chunks)
    assert target.read_bytes() == fresh.read_bytes() == b"P5\n2 1\n255\n\x07\xfa"
    assert target.stat().st_ino == inode
    assert target.stat().st_mode & 0o777 == 0o640
    assert link.is_symlink()


def test_rewrite_creates_a_new_file_with_the_umask_mode(tmp_path):
    umask = os.umask(0o027)
    try:
        artifact.rewrite(tmp_path / "new", b"abc")
    finally:
        os.umask(umask)
    assert (tmp_path / "new").read_bytes() == b"abc"
    assert (tmp_path / "new").stat().st_mode & 0o777 == 0o640


def test_arrays_of_other_dtypes_round_trip_aligned(tmp_path):
    """A header of 8 bytes, then float64s before uint16s: every array starts at a
    multiple of its item size, mapped or read whole; only floats must be finite."""
    path = tmp_path / "typed"
    a, b = np.arange(6.0).reshape(2, 3), np.array([65535, 0, 7], dtype=np.uint16)
    artifact.write(path, b"TYPED", "<BH", {"version": 1, "n": 3}, [a, b], ["<f8", "<u2"])
    assert path.stat().st_size == 8 + 6 * 8 + 3 * 2
    for mapped in (None, lambda *fields: True):
        _, (ra, rb), st = artifact.read(path, b"TYPED", "<BH", (1,), lambda v, n: [(2, n), (n,)], mapped=mapped,
                                        dtypes=lambda v, n: ["<f8", "<u2"])
        assert ra.dtype == np.float64 and rb.dtype == np.uint16 and ra.flags.aligned and rb.flags.aligned
        assert np.array_equal(ra, a) and np.array_equal(rb, b)
        assert artifact.fingerprint(st) == artifact.fingerprint(os.stat(path))
    artifact.write(path, b"TYPED", "<BH", {"version": 1, "n": 3}, [a + np.nan, b], ["<f8", "<u2"])
    with pytest.raises(RangeViolation, match="non-finite"):
        artifact.read(path, b"TYPED", "<BH", (1,), lambda v, n: [(2, n), (n,)], dtypes=lambda v, n: ["<f8", "<u2"])


def _indexed_pool(tmp_path, name="a.pool"):
    """A frozen token-specific pool at the smallest K that gets a window index, saved with it."""
    codes = np.random.default_rng(8).standard_normal((2, 3, window.MIN_K, 2))
    save_pool(CodebookPool(codes, frozen=True), tmp_path / name)
    return tmp_path / name, codes


def test_save_pool_writes_the_index_beside_the_pool(tmp_path):
    """The .pidx holds the pool's shape, W = K/4 and the pool file's fingerprint;
    its sorted codes, mapped through the permutation, are the pool's, in the
    order of their projections on the axis; and load_pool does not open it."""
    path, codes = _indexed_pool(tmp_path)
    pidx = tmp_path / "a.pool.pidx"
    fields = artifact.unpack_header(pidx.read_bytes(), window.PIDX_MAGIC, window._PIDX_HEADER, (1,))
    M, T, K, d = codes.shape
    assert fields[1:] == (M, T, K, d, K // 4, *artifact.fingerprint(os.stat(path)))
    # 48 header bytes, the sorted codes, the marks, the axes and a 2-byte permutation
    assert pidx.stat().st_size == 48 + 8 * M * T * (K * d + -(-K // 16) + d) + 2 * M * T * K
    pool = load_pool(path)
    assert pool._index is None  # not opened until the first search
    index = pool.index
    assert index.perm.dtype == np.uint16 and index.W == K // 4
    restored = np.empty_like(codes)
    np.put_along_axis(restored, index.perm[..., None].astype(np.intp), index.codes, axis=2)
    assert np.array_equal(restored, codes)
    keys = np.einsum("mtkd,mtd->mtk", index.codes, index.axes)
    assert (np.diff(keys, axis=2) >= 0).all()
    assert np.array_equal(index.marks, keys[..., ::window.MARK])


@pytest.mark.parametrize("codes", ["K=16", "T'=1", "not frozen"])
def test_pools_that_get_no_index(tmp_path, codes):
    rng = np.random.default_rng(9)
    pool = {"K=16": CodebookPool(rng.standard_normal((2, 3, 16, 2)), frozen=True),
            "T'=1": CodebookPool(rng.standard_normal((2, 1, window.MIN_K, 2)), frozen=True, T=3),
            "not frozen": CodebookPool(rng.standard_normal((2, 3, window.MIN_K, 2)))}[codes]
    save_pool(pool, tmp_path / "a.pool")
    assert [p.name for p in tmp_path.iterdir()] == ["a.pool"]
    assert load_pool(tmp_path / "a.pool").index is None


@pytest.mark.parametrize("fault, error", [("magic", BadMagic), ("header", Truncated), ("cut", Truncated),
                                          ("trailing", LengthMismatch)])
def test_a_broken_index_is_a_typed_error_on_the_first_search(tmp_path, fault, error):
    path, _ = _indexed_pool(tmp_path)
    pidx = tmp_path / "a.pool.pidx"
    raw = pidx.read_bytes()
    pidx.write_bytes({"magic": b"X" + raw[1:], "header": raw[:20], "cut": raw[:-1], "trailing": raw + b"\0"}[fault])
    pool = load_pool(path)  # loading never opens it
    with pytest.raises(error):
        pool.index


def test_an_index_written_for_another_file_is_ignored(tmp_path):
    """Re-saving the pool makes a new file, and a copy is another file: an index
    with the old file's fingerprint is ignored, not trusted."""
    path, codes = _indexed_pool(tmp_path)
    pidx = tmp_path / "a.pool.pidx"
    old = pidx.read_bytes()
    save_pool(CodebookPool(codes, frozen=True), path)
    assert load_pool(path).index is not None
    pidx.write_bytes(old)
    assert load_pool(path).index is None
    (tmp_path / "copy").mkdir()
    save_pool(CodebookPool(codes, frozen=True), path)
    for name in ("a.pool", "a.pool.pidx"):
        shutil.copy2(tmp_path / name, tmp_path / "copy" / name)
    assert load_pool(tmp_path / "copy" / "a.pool").index is None
    assert load_pool(path).index is not None


def test_saving_through_a_symlink_writes_the_index_beside_the_target(tmp_path):
    target, link = tmp_path / "a.pool", tmp_path / "link.pool"
    link.symlink_to(target.name)
    _indexed_pool(tmp_path, "link.pool")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.pool", "a.pool.pidx", "link.pool"]
    assert load_pool(link).index is not None and load_pool(target).index is not None


def test_a_failed_index_save_leaves_no_temporary(tmp_path, monkeypatch):
    """The disk fills while the index is written, after its sorted codes: the
    pool file stands, and neither the index nor its temporary file does."""
    build = window.build
    monkeypatch.setattr(window, "build", lambda codes: (_FailsOnWrite(), *build(codes)[1:]))
    with pytest.raises(OSError, match="no space"):
        _indexed_pool(tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["a.pool"]
