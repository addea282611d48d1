"""Length-checked sequential reader shared by every binary loader."""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np


class BinaryReader:
    """Reads one little-endian file front to back, checking every length.

    Opening checks the magic and, unless version is None, the u32 version
    after it. A read past the end, or bytes left over at `done`, raise
    ValueError("<path>: ..."): a truncated or padded file is never parsed.
    """

    def __init__(self, path: str | Path, magic: bytes, kind: str, version: int | None = 1):
        self.path = path
        self.raw = Path(path).read_bytes()
        self.off = len(magic)
        if self.raw[:self.off] != magic:
            raise ValueError(f"{path}: bad {kind} magic {self.raw[:self.off]!r}, "
                             f"expected {magic!r}")
        if version is not None:
            (ver,) = self.header("<I")
            if ver != version:
                raise ValueError(f"{path}: unsupported {kind} version {ver}")

    def _advance(self, nbytes: int) -> int:
        start, self.off = self.off, self.off + nbytes
        if self.off > len(self.raw):
            raise ValueError(f"{self.path}: truncated: needs at least {self.off} bytes, "
                             f"has {len(self.raw)}")
        return start

    def header(self, fmt: str) -> tuple:
        start = self._advance(struct.calcsize(fmt))
        return struct.unpack_from(fmt, self.raw, start)

    def array(self, dtype: str, *shape: int) -> np.ndarray:
        """The next prod(shape) values of dtype as a writable array of that shape."""
        count = math.prod(shape)
        start = self._advance(count * np.dtype(dtype).itemsize)
        return np.frombuffer(self.raw, dtype=dtype, count=count, offset=start).reshape(shape).copy()

    def make(self, cls, **fields):
        """cls(**fields), whose own checks' ValueError is raised naming the file."""
        try:
            return cls(**fields)
        except ValueError as exc:
            raise ValueError(f"{self.path}: {exc}") from None

    def done(self, value):
        """Return value if the whole file has been read."""
        if self.off != len(self.raw):
            raise ValueError(f"{self.path}: {len(self.raw) - self.off} trailing bytes after "
                             f"the {self.off} the header implies")
        return value
