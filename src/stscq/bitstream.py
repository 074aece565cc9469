"""Bit-exact stream format for quantized images.

Layout: fixed header, then an MSB-first bit-packed payload of
ceil(log2 M) group-selection bits followed by T index fields of
ceil(log2 K) bits each, zero-padded to a byte boundary.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

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


class BitWriter:
    """Accumulates fixed-width fields MSB-first."""

    def __init__(self):
        self._out = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        if value < 0 or (value >> nbits) != 0:
            raise RangeViolation(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            self._out.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def getvalue(self) -> bytes:
        if self._nbits:
            pad = 8 - self._nbits
            return bytes(self._out) + bytes([(self._acc << pad) & 0xFF])
        return bytes(self._out)


class BitReader:
    """Reads fixed-width MSB-first fields from a byte string."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0  # bit position

    def read(self, nbits: int) -> int:
        if self._pos + nbits > 8 * len(self._data):
            raise Truncated("bit field extends past end of payload")
        value = 0
        for _ in range(nbits):
            byte = self._data[self._pos >> 3]
            value = (value << 1) | ((byte >> (7 - (self._pos & 7))) & 1)
            self._pos += 1
        return value

    def padding_is_zero(self) -> bool:
        rem = (-self._pos) % 8
        if rem == 0:
            return True
        return self.read(rem) == 0


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
    if any(i < 0 or i >= header.K for i in q.indices):
        raise RangeViolation("code index outside [0, K)")
    w = BitWriter()
    w.write(q.group_index, bit_width(header.M))
    kb = bit_width(header.K)
    for idx in q.indices:
        w.write(int(idx), kb)
    return header.pack() + w.getvalue()


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
    r = BitReader(payload)
    group_index = r.read(bit_width(header.M))
    kb = bit_width(header.K)
    indices = [r.read(kb) for _ in range(header.T)]
    if not r.padding_is_zero():
        raise NonZeroPadding("trailing pad bits must be zero")
    return QuantizedImage(group_index=group_index, indices=indices)
