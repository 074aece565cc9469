import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stscq.bitstream import (
    StreamHeader,
    bit_width,
    bpp,
    deserialize,
    payload_bits,
    serialize,
)
from stscq.codebook import Codebook, CodebookPool, TokenSpecificGroup
from stscq.errors import (
    BadMagic,
    HeaderMismatch,
    LengthMismatch,
    NonZeroPadding,
    RangeViolation,
    Truncated,
)
from stscq.quantizer import QuantizedImage

HEADER_LEN = len(StreamHeader(M=1, K=1, T=1, width=1, height=1, channels=1).pack())


def make_pool(M, K, T, d=2):
    rng = np.random.default_rng(0)
    groups = [
        TokenSpecificGroup([Codebook(rng.standard_normal((K, d)))] * T)
        for _ in range(M)
    ]
    return CodebookPool(groups)


def header_for(pool, width=32, height=32):
    return StreamHeader(
        M=pool.M, K=pool.K, T=pool.T, width=width, height=height, channels=1
    )


def test_single_group_emits_no_router_bits():
    pool = make_pool(M=1, K=4, T=5)
    q = QuantizedImage(0, [1, 2, 3, 0, 1])
    data = serialize(q, header_for(pool))
    assert len(data) - HEADER_LEN == math.ceil(5 * 2 / 8)


def test_titok_config_payload_is_129_bytes():
    # T=128 tokens at 8 bits plus an 8-bit group selector
    assert payload_bits(128, 256, 256) == 1032
    pool = make_pool(M=2, K=256, T=128, d=1)
    # byte-level check with a smaller M is separate; here just the formula
    assert math.ceil(1032 / 8) == 129


def test_round_trip_identity():
    rng = np.random.default_rng(1)
    pool = make_pool(M=6, K=11, T=9)
    for _ in range(50):
        q = QuantizedImage(int(rng.integers(6)), rng.integers(0, 11, size=9))
        q2 = deserialize(serialize(q, header_for(pool)), pool)
        assert q2.group_index == q.group_index
        assert np.array_equal(q2.indices, q.indices)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 40),
    st.integers(1, 10),
    st.integers(0, 2**32 - 1),
)
def test_round_trip_property(T, K, M, seed):
    rng = np.random.default_rng(seed)
    pool = make_pool(M=M, K=K, T=T)
    q = QuantizedImage(int(rng.integers(M)), rng.integers(0, K, size=T))
    q2 = deserialize(serialize(q, header_for(pool)), pool)
    assert q2.group_index == q.group_index
    assert np.array_equal(q2.indices, q.indices)


def test_corrupted_magic_rejected():
    pool = make_pool(M=2, K=4, T=3)
    data = serialize(QuantizedImage(1, [0, 1, 2]), header_for(pool))
    with pytest.raises(BadMagic):
        deserialize(b"XXXX" + data[4:], pool)


def test_truncated_payload_rejected():
    pool = make_pool(M=2, K=16, T=8)
    data = serialize(QuantizedImage(1, [3] * 8), header_for(pool))
    with pytest.raises(Truncated):
        deserialize(data[:-2], pool)


def test_nonzero_padding_rejected():
    pool = make_pool(M=2, K=4, T=3)  # 1 + 6 = 7 bits, 1 pad bit
    data = bytearray(serialize(QuantizedImage(0, [0, 0, 0]), header_for(pool)))
    data[-1] |= 0x01
    with pytest.raises(NonZeroPadding):
        deserialize(bytes(data), pool)


def test_trailing_bytes_rejected():
    pool = make_pool(M=2, K=4, T=3)
    data = serialize(QuantizedImage(1, [0, 1, 2]), header_for(pool))
    for extra in (b"\x00", b"garbage"):
        with pytest.raises(LengthMismatch):
            deserialize(data + extra, pool)


@pytest.mark.parametrize(
    "field, value",
    [("version", 256), ("M", 65536), ("K", 2**32), ("T", 65536), ("width", 70000),
     ("height", 65536), ("channels", 256), ("width", -1)],
)
def test_header_fields_range_checked(field, value):
    header = StreamHeader(M=2, K=4, T=3, width=32, height=32, channels=1)
    setattr(header, field, value)
    with pytest.raises(RangeViolation, match=field):
        header.pack()


def test_header_pool_mismatch_rejected():
    pool = make_pool(M=2, K=4, T=3)
    data = serialize(QuantizedImage(0, [0, 0, 0]), header_for(pool))
    with pytest.raises(HeaderMismatch):
        deserialize(data, make_pool(M=2, K=8, T=3))


def test_out_of_range_indices_rejected():
    pool = make_pool(M=2, K=4, T=3)
    with pytest.raises(RangeViolation):
        serialize(QuantizedImage(2, [0, 0, 0]), header_for(pool))
    with pytest.raises(RangeViolation):
        serialize(QuantizedImage(0, [0, 4, 0]), header_for(pool))
    # M=3, K=5, T=2 is 2 + 2*3 = 8 payload bits; 0xFF decodes as group 3,
    # indices [7, 7] and 0x28 as group 0, indices [5, 0]
    pool = make_pool(M=3, K=5, T=2)
    for payload in (b"\xff", b"\x28"):
        with pytest.raises(RangeViolation):
            deserialize(header_for(pool).pack() + payload, pool)


def _bits(value, choices):
    """`value` as an MSB-first string of ceil(log2 choices) bits; empty for one choice."""
    width = math.ceil(math.log2(choices))
    return format(value, f"0{width}b") if width else ""


@st.composite
def _fields(draw):
    M = draw(st.integers(1, 2**16 - 1))
    K = draw(st.integers(1, 2**32 - 1))
    T = draw(st.integers(1, 300))
    return M, K, T, draw(st.integers(0, M - 1)), draw(st.lists(st.integers(0, K - 1), min_size=T, max_size=T))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_fields())
@example((1, 1, 1, 0, [0]))
@example((1, 2**32 - 1, 300, 0, [2**32 - 2] * 300))
@example((2**16 - 1, 1, 300, 2**16 - 2, [0] * 300))
@example((3, 5, 7, 2, [4, 0, 1, 2, 3, 4, 0]))
def test_payload_matches_bit_string_oracle(fields):
    """The payload is the group and index fields as MSB-first bit strings, zero-padded."""
    M, K, T, group, indices = fields
    bits = _bits(group, M) + "".join(_bits(i, K) for i in indices)
    bits += "0" * (-len(bits) % 8)
    oracle = bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))
    pool = CodebookPool(np.broadcast_to(np.zeros(()), (M, 1, K, 1)), T=T)
    header = header_for(pool)
    assert serialize(QuantizedImage(group, indices), header)[HEADER_LEN:] == oracle
    q = deserialize(header.pack() + oracle, pool)
    assert q.group_index == group
    assert q.indices.tolist() == indices


def loop_unpack(payload: bytes, M: int, K: int, T: int) -> tuple[int, list[int]]:
    """The big-integer shift loop that unpacked payloads before numpy did."""
    nbits = payload_bits(T, K, M)
    value = int.from_bytes(payload, "big")
    pad = 8 * len(payload) - nbits
    if value & ((1 << pad) - 1):
        raise NonZeroPadding("trailing pad bits must be zero")
    value >>= pad
    kb = bit_width(K)
    mask = (1 << kb) - 1
    group, indices = value >> (kb * T), [value >> (kb * t) & mask for t in reversed(range(T))]
    if group >= M or any(i >= K for i in indices):
        raise RangeViolation("group index or code index out of range")
    return group, indices


@st.composite
def _raw_payloads(draw):
    """M, K, T and a payload whose fields fill their whole bit widths, so some
    exceed M or K, and whose pad bits are drawn too."""
    M, K, T = draw(st.integers(1, 4096)), draw(st.integers(1, 4096)), draw(st.integers(1, 300))
    mb, kb = bit_width(M), bit_width(K)
    pad = -payload_bits(T, K, M) % 8
    value = draw(st.integers(0, 2**mb - 1))
    for i in draw(st.lists(st.integers(0, 2**kb - 1), min_size=T, max_size=T)):
        value = value << kb | i
    value = value << pad | draw(st.integers(0, 2**pad - 1))
    return M, K, T, value.to_bytes((payload_bits(T, K, M) + pad) // 8, "big")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_raw_payloads())
@example((1, 1, 1, b""))
@example((1, 1, 300, b""))
@example((4096, 4096, 300, b"\xff" * 452))
@example((3, 5, 2, b"\x28"))
@example((2, 4, 3, b"\x01"))
def test_deserialize_matches_the_shift_loop(fields):
    """The same group and indices as the loop, or the same error class."""
    M, K, T, payload = fields
    pool = CodebookPool(np.broadcast_to(np.zeros(()), (M, 1, K, 1)), T=T)
    try:
        expect = loop_unpack(payload, M, K, T)
    except (NonZeroPadding, RangeViolation) as e:
        with pytest.raises(type(e)):
            deserialize(header_for(pool).pack() + payload, pool)
        return
    q = deserialize(header_for(pool).pack() + payload, pool)
    assert type(q.group_index) is int
    assert (q.group_index, q.indices.tolist()) == expect


def test_payload_bit_formula_grid():
    for T in (1, 2, 3, 7, 32, 128, 256):
        for K in (1, 2, 3, 5, 256, 1000, 4096):
            for M in (1, 2, 3, 16, 256, 4096):
                expect = (T * (0 if K == 1 else math.ceil(math.log2(K)))
                          + (0 if M == 1 else math.ceil(math.log2(M))))
                assert payload_bits(T, K, M) == expect


@pytest.mark.parametrize(
    "T,K,M,expected",
    [
        (256, 4096, 1, 0.046875),
        (128, 4096, 1, 0.0234375),
        (32, 4096, 1, 384 / 65536),
        (256, 1024, 16, 2564 / 65536),
        (128, 256, 256, 1032 / 65536),
    ],
)
def test_bpp_reference_points(T, K, M, expected):
    assert bpp(T, K, M, 256, 256) == pytest.approx(expected, abs=1e-12)


def test_switchable_saving_example():
    assert payload_bits(256, 4096, 1) == 3072
    assert payload_bits(256, 256, 256) == 2056
    assert (3072 - 2056) / 3072 == pytest.approx(0.3307, abs=1e-4)


def test_header_included_bpp_is_larger():
    assert bpp(16, 16, 4, 32, 32, include_header=True) > bpp(16, 16, 4, 32, 32)
