"""Reading the binary file formats.

Every format (RFWAV001, RFGIR001, RFCUBE01) is a fixed little-endian
header that starts with an 8-byte magic, then one payload of
interleaved float32 I/Q samples whose dimensions the header declares,
then nothing.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct

import numpy as np

from .errors import ConfigurationError


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


def read_framed(path, header: struct.Struct, magic: bytes, what: str,
                shape, sha256: str | None = None) -> tuple[tuple, np.ndarray]:
    """Read and check one header-then-payload file.

    `shape(*fields)` gives the payload dimensions from the header fields
    that follow the magic; the payload holds one complex64 (8 bytes of
    float32 I/Q) per element.  The declared size is compared with the
    file size before any payload byte is read, so a header that lies
    about its dimensions raises ConfigurationError instead of
    allocating.  With `sha256` (hex) given, the header and payload
    bytes read must hash to it, so the bytes returned are the bytes
    verified and the file is read once.  A NaN or infinite I or Q value
    raises ConfigurationError.  Returns (fields, the read-only payload
    array of those dimensions).
    """
    with open(path, "rb") as f:
        head, fields = read_header(f, header, magic, what)
        dims = shape(*fields)
        if min(dims) < 1:
            raise ConfigurationError(f"{path}: {what} header declares an empty array {dims}")
        nbytes = 8 * math.prod(dims)
        available = os.fstat(f.fileno()).st_size - header.size
        if nbytes > available:
            raise ConfigurationError(f"{path}: truncated {what} payload")
        if nbytes < available:
            raise ConfigurationError(f"{path}: trailing bytes after {what} payload")
        payload = f.read(nbytes)
    if len(payload) < nbytes:
        raise ConfigurationError(f"{path}: truncated {what} payload")
    if sha256 is not None:
        digest = hashlib.sha256(head)
        digest.update(payload)
        actual = digest.hexdigest()
        if actual != sha256:
            raise ConfigurationError(
                f"{path}: checksum mismatch: expected {sha256[:12]}..., file {actual[:12]}...")
    iq = np.frombuffer(payload, dtype="<f4")
    # min and max both propagate NaN, and an infinity is one of them
    if not (np.isfinite(iq.min()) and np.isfinite(iq.max())):
        raise ConfigurationError(f"{path}: {what} payload holds a non-finite sample")
    return fields, iq.view("<c8").reshape(dims)
