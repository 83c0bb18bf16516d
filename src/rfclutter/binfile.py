"""Reading and writing the binary file formats.

Every format (RFWAV001, RFGIR002, RFCUBE01) is a fixed little-endian
header that starts with an 8-byte magic, then one payload of
interleaved float32 I/Q samples whose dimensions the header declares,
then nothing.  An impulse response stores only its occupied taps: its
header declares the full tap axis and the count K of occupied taps,
and K u32 tap indices sit between the header and the payload, which
holds those K taps only.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct

import numpy as np

from .errors import ConfigurationError

# payload bytes per read: each chunk is hashed and checked while it is
# still in cache, and a read never holds a second copy of the payload
_CHUNK = 1 << 20


def read_header(f, header: struct.Struct, magic: bytes, what: str) -> tuple[bytes, tuple]:
    """Read and unpack the header at the start of the open binary file
    `f`.  A file shorter than the header, or one that starts with
    another magic, raises ConfigurationError.  Returns (header bytes,
    the fields that follow the magic)."""
    head = f.read(header.size)
    if len(head) < header.size:
        raise ConfigurationError(f"{f.name}: truncated {what} header")
    found, *fields = header.unpack(head)
    if found != magic:
        raise ConfigurationError(f"{f.name}: expected magic {magic!r}, found {found!r}")
    return head, tuple(fields)


def _read_exact(f, nbytes: int, path, what: str) -> bytes:
    data = f.read(nbytes)
    if len(data) < nbytes:
        raise ConfigurationError(f"{path}: truncated {what} payload")
    return data


def read_framed(path, header: struct.Struct, magic: bytes, what: str, shape,
                sha256: str | None = None, occupied=None,
                ) -> tuple[tuple, np.ndarray | None, np.ndarray]:
    """Read and check one header-then-payload file.

    `shape(*fields)` gives the declared array dimensions from the header
    fields that follow the magic; each must be at least 1.  The payload
    holds one complex64 (8 bytes of float32 I/Q) per element.  With
    `occupied(*fields)` given, the last axis is stored sparse: it
    returns the count K of occupied positions along that axis, the file
    holds their K u32 indices after the header, strictly ascending and
    below the declared length, and the payload holds those K positions
    only (K may be 0).

    The declared size is compared with the file size before any index
    or payload byte is read, and the indices are checked before the
    payload is read, so a header or an index section that lies raises
    ConfigurationError instead of allocating.  The payload is read in
    one pass of `_CHUNK`-byte reads straight into the array returned,
    and each chunk is hashed and checked for non-finite values as it
    arrives.  With `sha256` (hex) given, the bytes read must hash to
    it, so the bytes returned are the bytes verified and the file is
    read once; a mismatch is raised before any non-finite value.  A
    NaN or infinite I or Q value raises ConfigurationError.  Returns
    (fields, the read-only index array or None, the read-only payload
    array).
    """
    with open(path, "rb") as f:
        head, fields = read_header(f, header, magic, what)
        dims = shape(*fields)
        if min(dims) < 1:
            raise ConfigurationError(f"{path}: {what} header declares an empty array {dims}")
        count = None
        if occupied is not None:
            count, limit = occupied(*fields), dims[-1]
            if count > limit:
                raise ConfigurationError(
                    f"{path}: {what} header declares {count} occupied of {limit} positions")
            dims = dims[:-1] + (count,)
        nindex = 0 if count is None else 4 * count
        nbytes = 8 * math.prod(dims)
        available = os.fstat(f.fileno()).st_size - header.size
        if nindex + nbytes > available:
            raise ConfigurationError(f"{path}: truncated {what} payload")
        if nindex + nbytes < available:
            raise ConfigurationError(f"{path}: trailing bytes after {what} payload")
        # with K = 0 no byte backs the leading axes, and numpy refuses a
        # shape whose non-zero axes multiply past the address space
        if 8 * math.prod(d for d in dims if d) > np.iinfo(np.intp).max:
            raise ConfigurationError(
                f"{path}: {what} header declares {dims}, too many elements to address")
        index = None
        if count is not None:
            index = np.frombuffer(_read_exact(f, nindex, path, what), dtype="<u4")
            if index.size and (index[-1] >= limit or np.any(index[1:] <= index[:-1])):
                raise ConfigurationError(
                    f"{path}: {what} indices must ascend strictly below {limit}")
        digest = None
        if sha256 is not None:
            digest = hashlib.sha256(head)
            if index is not None:
                digest.update(index)
        iq = np.empty(nbytes // 4, dtype="<f4")
        raw = memoryview(iq.view(np.uint8))
        finite = True
        for start in range(0, nbytes, _CHUNK):
            chunk = raw[start:start + _CHUNK]
            if f.readinto(chunk) < len(chunk):
                raise ConfigurationError(f"{path}: truncated {what} payload")
            if digest is not None:
                digest.update(chunk)
            # min and max both propagate NaN, and an infinity is one of them
            values = iq[start // 4:(start + len(chunk)) // 4]
            finite = finite and bool(np.isfinite(values.min()) and np.isfinite(values.max()))
    if digest is not None:
        actual = digest.hexdigest()
        if actual != sha256:
            raise ConfigurationError(
                f"{path}: checksum mismatch: expected {sha256[:12]}..., file {actual[:12]}...")
    if not finite:
        raise ConfigurationError(f"{path}: {what} payload holds a non-finite sample")
    iq.setflags(write=False)
    return fields, index, iq.view("<c8").reshape(dims)


def write_framed(path, *parts) -> str:
    """Write `parts` (bytes, or C-contiguous arrays in their file byte
    order) to `path` one after another; returns the SHA-256 hex digest
    of the bytes written, so a file is hashed as it is written and
    never read back."""
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for part in parts:
            f.write(part)
            digest.update(part)
    return digest.hexdigest()
