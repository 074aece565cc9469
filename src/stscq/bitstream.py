"""Bit-exact stream format for quantized images.

Layout: fixed header, then an MSB-first bit-packed payload of
ceil(log2 M) group-selection bits followed by T index fields of
ceil(log2 K) bits each, zero-padded to a byte boundary. Decoding
rejects nonzero padding, a group index >= M and a code index >= K.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import artifact
from .codebook import CodebookPool, bit_width
from .errors import HeaderMismatch, LengthMismatch, NonZeroPadding, RangeViolation, Truncated
from .quantizer import QuantizedImage

STREAM_MAGIC = b"STSQ"
STREAM_VERSION = 1
_HEADER_FMT = "<BHIHHHB"
_HEADER_FIELDS = ("version", "M", "K", "T", "width", "height", "channels")
_HEADER_SIZE = len(STREAM_MAGIC) + struct.calcsize(_HEADER_FMT)


@dataclass
class StreamHeader:
    M: int
    K: int
    T: int
    width: int
    height: int
    channels: int
    version: int = STREAM_VERSION

    def pack(self) -> bytes:
        return artifact.pack_header(STREAM_MAGIC, _HEADER_FMT, {name: getattr(self, name) for name in _HEADER_FIELDS})

    @classmethod
    def unpack(cls, raw: bytes) -> tuple["StreamHeader", int]:
        fields = artifact.unpack_header(raw, STREAM_MAGIC, _HEADER_FMT, (STREAM_VERSION,))
        return cls(**dict(zip(_HEADER_FIELDS, fields))), _HEADER_SIZE


def payload_bits(T: int, K: int, M: int) -> int:
    """Exact per-image payload size: T*ceil(log2 K) + ceil(log2 M) bits."""
    return T * bit_width(K) + bit_width(M)


def bpp(T: int, K: int, M: int, width: int, height: int, include_header: bool = False) -> float:
    """Bits per pixel of one encoded image; header excluded by default."""
    bits = payload_bits(T, K, M)
    if include_header:
        bits += 8 * _HEADER_SIZE
    return bits / (width * height)


def serialize(q: QuantizedImage, header: StreamHeader) -> bytes:
    if not 0 <= q.group_index < header.M:
        raise RangeViolation(f"group index {q.group_index} outside [0, {header.M})")
    if len(q.indices) != header.T:
        raise RangeViolation(f"{len(q.indices)} indices, header says T={header.T}")
    if ((q.indices < 0) | (q.indices >= header.K)).any():
        raise RangeViolation("code index outside [0, K)")
    kb = bit_width(header.K)
    value = int(q.group_index)
    for idx in q.indices.tolist():
        value = value << kb | idx
    nbits = payload_bits(header.T, header.K, header.M)
    need = math.ceil(nbits / 8)
    return header.pack() + (value << (8 * need - nbits)).to_bytes(need, "big")


def _fields(bits: np.ndarray, n: int, width: int) -> np.ndarray:
    """The n unsigned MSB-first `width`-bit fields that `bits` (one per byte) hold."""
    return bits.reshape(n, width) @ (1 << np.arange(width - 1, -1, -1, dtype=np.int64))


def deserialize(data: bytes, pool: CodebookPool) -> QuantizedImage:
    header, off = StreamHeader.unpack(data)
    if (header.M, header.K, header.T) != (pool.M, pool.K, pool.T):
        raise HeaderMismatch(
            f"stream (M={header.M}, K={header.K}, T={header.T}) vs "
            f"pool (M={pool.M}, K={pool.K}, T={pool.T})"
        )
    nbits = payload_bits(header.T, header.K, header.M)
    need = math.ceil(nbits / 8)
    payload = data[off:]
    if len(payload) < need:
        raise Truncated(f"payload has {len(payload)} bytes, need {need}")
    if len(payload) > need:
        raise LengthMismatch(f"{len(payload) - need} bytes after the {need}-byte payload")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    if bits[nbits:].any():
        raise NonZeroPadding("trailing pad bits must be zero")
    kb = bit_width(header.K)
    mb = bit_width(header.M)
    q = QuantizedImage(int(_fields(bits[:mb], 1, mb)[0]), _fields(bits[mb:nbits], header.T, kb))
    if q.group_index >= header.M or (q.indices >= header.K).any():
        raise RangeViolation(f"group index or code index outside M={header.M}, K={header.K}")
    return q
