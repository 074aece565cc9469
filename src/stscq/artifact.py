"""The one binary layout of the stream header and the .pool, .rtr and .pca files.

An ASCII magic, a little-endian struct header of unsigned fields whose first
is the format version, then little-endian float64 arrays that end the file.
"""

import itertools
import math
import mmap
import os
import stat
import struct

import numpy as np

from .errors import BadMagic, HeaderMismatch, LengthMismatch, RangeViolation, Truncated

_F8 = np.dtype("<f8")


def pack_header(magic: bytes, fmt: str, fields: dict[str, int]) -> bytes:
    """`magic` plus the `fields` values, in `fmt` order; RangeViolation names one that does not fit."""
    for (name, value), code in zip(fields.items(), fmt.lstrip("<")):
        if not 0 <= value < 1 << (8 * struct.calcsize(code)):
            raise RangeViolation(f"{magic.decode()} header field {name}={value} does not fit in {code!r}")
    return magic + struct.pack(fmt, *fields.values())


def unpack_header(raw: bytes, magic: bytes, fmt: str, versions) -> tuple[int, ...]:
    if raw[: len(magic)] != magic:
        raise BadMagic(f"not a {magic.decode()} file")
    try:
        fields = struct.unpack_from(fmt, raw, len(magic))
    except struct.error:
        raise Truncated(f"{magic.decode()} file shorter than its header") from None
    if fields[0] not in versions:
        raise HeaderMismatch(f"unsupported {magic.decode()} version {fields[0]}")
    return fields


def write(path, magic: bytes, fmt: str, fields: dict[str, int], arrays) -> None:
    """Writes a sibling temporary file, syncs it and renames it over `path`.
    Truncating the old file instead would pull it from under a process that maps
    it (SIGBUS), and a save that fails part-way would leave it half written. A
    symlinked `path` is written through to its target, and an existing target
    keeps its permission bits."""
    header = pack_header(magic, fmt, fields)  # before open, so a bad field leaves no file
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    f = open(tmp, "wb")
    try:
        with f:
            f.write(header)
            for arr in arrays:
                f.write(np.ascontiguousarray(arr, dtype=_F8))
            f.flush()
            os.fsync(f.fileno())
        if os.path.exists(path):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read(path, magic: bytes, fmt: str, versions, shapes, mapped=None) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """(header fields, arrays); `shapes(*fields)` gives the array shapes and may raise
    for a field value its format does not define. The arrays are views of one aligned
    buffer read whole, which must be finite, or, when `mapped(*fields)` is true, views
    of a read-only map made after every check has passed, not scanned: that would read it all."""
    with open(path, "rb") as f:
        fields = unpack_header(f.read(len(magic) + struct.calcsize(fmt)), magic, fmt, versions)
        dims = shapes(*fields)
        if any(0 in s for s in dims):
            raise RangeViolation(f"{magic.decode()} array shapes {dims} have an empty axis")
        sizes = [math.prod(s) for s in dims]  # Python ints: a header at its maximum overflows int64
        extra = os.fstat(f.fileno()).st_size - f.tell() - sum(sizes) * _F8.itemsize
        if extra < 0:
            raise Truncated(f"{magic.decode()} file shorter than its declared shapes {dims}")
        if extra > 0:
            raise LengthMismatch(f"{extra} bytes after the {magic.decode()} file's arrays")
        if mapped is not None and mapped(*fields):
            buf = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            flat = np.frombuffer(buf, dtype=_F8, count=sum(sizes), offset=f.tell())
        else:
            flat = np.fromfile(f, dtype=_F8, count=sum(sizes))
            if not np.isfinite(flat).all():
                raise RangeViolation(f"{path} holds non-finite values")
    # slices, not np.split, whose overhead is a visible share of loading a small file
    ends = itertools.accumulate(sizes)
    return fields, [flat[e - n : e].reshape(s) for e, n, s in zip(ends, sizes, dims)]
