"""The one binary layout of the stream header and the .pool, .rtr and .pca files.

An ASCII magic, a little-endian struct header of unsigned fields whose first
is the format version, then little-endian arrays that end the file: float64
unless a format gives each its own dtype.
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
_BYTE = np.dtype(np.uint8)


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


def write(path, magic: bytes, fmt: str, fields: dict[str, int], arrays, dtypes=None) -> None:
    """Writes `arrays`, each as its entry of `dtypes` (default float64), to a
    sibling temporary file, syncs it and renames it over `path`.
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
            for arr, dtype in zip(arrays, itertools.repeat(_F8) if dtypes is None else dtypes):
                f.write(np.ascontiguousarray(arr, dtype=dtype))
            f.flush()
            os.fsync(f.fileno())
        if os.path.exists(path):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def rewrite(path, *chunks) -> None:
    """Writes `chunks` over `path` in place, then cuts the file to their length.
    No O_TRUNC: ext4 writes a file cut to zero bytes back to disk as soon as it is
    closed (auto_da_alloc), which was most of the cost of rewriting a decoded image.
    Neither atomic nor synced. A symlink is written through, an existing file keeps
    its inode and permission bits, and a new one gets 0o666 less the umask."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as f:
        for chunk in chunks:
            f.write(chunk)
        f.truncate()


def fingerprint(st: os.stat_result) -> tuple[int, int, int]:
    """What tells a file from one that replaced it or a copy of it: inode, size and change time."""
    return st.st_ino, st.st_size, st.st_ctime_ns


def read(path, magic: bytes, fmt: str, versions, shapes, mapped=None, dtypes=None):
    """(header fields, arrays, the file's os.stat_result); `shapes(*fields)` gives
    the array shapes and may raise for a field value its format does not define,
    and `dtypes(*fields)`, when given, their dtypes (default float64). The arrays
    are views of one buffer read whole, whose floats must be finite, or, when
    `mapped(*fields)` is true, views of a read-only map made after every check has
    passed, not scanned: that would read it all. An array is aligned when the
    header and the arrays before it fill whole multiples of its item size."""
    with open(path, "rb") as f:
        fields = unpack_header(f.read(len(magic) + struct.calcsize(fmt)), magic, fmt, versions)
        dims = shapes(*fields)
        if any(0 in s for s in dims):
            raise RangeViolation(f"{magic.decode()} array shapes {dims} have an empty axis")
        # Python ints: a header at its maximum overflows int64
        if dtypes is None:  # a float64 format is read as float64s
            unit, types, sizes = _F8, None, [math.prod(s) for s in dims]
        else:  # any other as bytes
            unit, types = _BYTE, [np.dtype(t) for t in dtypes(*fields)]
            sizes = [math.prod(s) * t.itemsize for s, t in zip(dims, types)]
        st = os.fstat(f.fileno())
        extra = st.st_size - f.tell() - sum(sizes) * unit.itemsize
        if extra < 0:
            raise Truncated(f"{magic.decode()} file shorter than its declared shapes {dims}")
        if extra > 0:
            raise LengthMismatch(f"{extra} bytes after the {magic.decode()} file's arrays")
        scan = mapped is None or not mapped(*fields)
        if scan:
            flat = np.fromfile(f, dtype=unit, count=sum(sizes))
        else:
            buf = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            flat = np.frombuffer(buf, dtype=unit, count=sum(sizes), offset=f.tell())
    # slices, not np.split, whose overhead is a visible share of loading a small file
    ends = itertools.accumulate(sizes)
    if types is None:
        arrays = [flat[e - n : e].reshape(s) for e, n, s in zip(ends, sizes, dims)]
    else:
        arrays = [flat[e - n : e].view(t).reshape(s) for e, n, s, t in zip(ends, sizes, dims, types)]
    if scan and not (np.isfinite(flat).all() if types is None else all(np.isfinite(a).all() for a in arrays)):
        raise RangeViolation(f"{path} holds non-finite values")
    return fields, arrays, st
