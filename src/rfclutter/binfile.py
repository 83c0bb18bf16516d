"""Reading the binary file formats.

Every format (RFWAV001, RFGIR001, RFCUBE01, RFCOV001) is a fixed
little-endian header that starts with an 8-byte magic, then one array
payload whose size the header declares, then nothing.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct

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
                shape, itemsize: int, sha256: str | None = None) -> tuple[tuple, bytes]:
    """Read and check one header-then-payload file.

    `shape(*fields)` gives the payload dimensions from the header fields
    that follow the magic; the payload holds `itemsize` bytes per
    element.  The declared size is compared with the file size before
    any payload byte is read, so a header that lies about its
    dimensions raises ConfigurationError instead of allocating.
    With `sha256` (hex) given, the header and payload bytes read must
    hash to it, so the bytes returned are the bytes verified and the
    file is read once.  Returns (fields, payload bytes).
    """
    with open(path, "rb") as f:
        head, fields = read_header(f, header, magic, what)
        dims = shape(*fields)
        if min(dims) < 1:
            raise ConfigurationError(f"{path}: {what} header declares an empty array {dims}")
        nbytes = itemsize * math.prod(dims)
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
    return fields, payload
