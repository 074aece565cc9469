import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stscq import artifact
from stscq.bitstream import StreamHeader, deserialize, serialize
from stscq.codebook import POOL_MAGIC, CodebookPool, load_pool, save_pool
from stscq.errors import RangeViolation, StscqError, Truncated
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
