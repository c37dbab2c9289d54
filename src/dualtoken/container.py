"""The DTVT tensor container of checkpoints, training states and dataset
caches: magic `DTVT`, version, tensor count, then length-prefixed named
tensors (dtype code, rank, u64 dims, little-endian data)."""

from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"DTVT"
VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


class CheckpointError(Exception):
    pass


def write_tensors(path, named):
    """Write an ordered name -> ndarray mapping in the DTVT container.

    Each payload is written from the array's own buffer, little-endian; only
    an array that is not C-contiguous or not little-endian is copied first.
    A dtype the container cannot hold, or a name that is not a `str` of at
    most 65,535 bytes of UTF-8, raises `ValueError` before `path` is
    opened, so an existing file there is left as it was."""
    items = []
    for name, arr in named.items():
        if not isinstance(name, str):
            raise ValueError(f"tensor name {name!r} is not a str")
        nb = name.encode("utf-8")  # a lone surrogate: UnicodeEncodeError, a ValueError
        if len(nb) > 0xFFFF:
            raise ValueError(f"tensor name {name[:40]!r}... is {len(nb)} bytes "
                             "of UTF-8; DTVT stores at most 65535")
        dtype = np.asarray(arr).dtype
        if dtype.newbyteorder("=") not in _DTYPE_CODES:
            raise ValueError(f"tensor {name} has dtype {dtype}; "
                             "DTVT stores float32 and float64 only")
        items.append((nb, arr))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(items)))
        for nb, arr in items:
            arr = np.ascontiguousarray(arr)
            code = _DTYPE_CODES[arr.dtype.newbyteorder("=")]
            arr = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<BB", code, arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.data)


class Reader:
    """A DTVT file open for reading, as `with Reader(path) as r:`.

    Opening it parses every header without reading a payload, and checks
    each payload against the file size from `os.fstat`, so a header that
    claims more data than the file holds is refused before anything is
    allocated for it. `shapes` and `dtypes` then map each stored name, in
    file order, to its dims and its dtype. A loader checks its names and
    shapes with `expect`, and only then reads payloads, with `read` into new
    arrays or with `read_into` into arrays of its own. A broken file raises
    `CheckpointError`."""

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "rb")
        try:
            self.shapes, self.dtypes, self._offsets = self._index()
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def _index(self):
        fh, path = self._fh, self.path
        end = os.fstat(fh.fileno()).st_size

        def take(n):
            chunk = fh.read(n)
            if len(chunk) != n:
                raise CheckpointError(f"{path}: truncated file")
            return chunk

        if take(4) != MAGIC:
            raise CheckpointError(f"{path}: bad magic bytes (not a DTVT checkpoint)")
        version, = struct.unpack("<I", take(4))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        count, = struct.unpack("<I", take(4))
        shapes, dtypes, offsets = {}, {}, {}
        for _ in range(count):
            nlen, = struct.unpack("<H", take(2))
            try:
                name = take(nlen).decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: tensor name is not UTF-8") from None
            if name in shapes:
                raise CheckpointError(f"{path}: duplicate tensor {name}")
            code, rank = struct.unpack("<BB", take(2))
            if code not in _CODE_DTYPES:
                raise CheckpointError(f"{path}: unknown dtype code {code} for {name}")
            dtype = _CODE_DTYPES[code]
            dims = struct.unpack(f"<{rank}Q", take(8 * rank))
            # exact Python ints, so an absurd shape cannot wrap around
            offset = fh.tell()
            nbytes = math.prod(dims) * dtype.itemsize
            if offset + nbytes > end:
                raise CheckpointError(f"{path}: truncated file")
            fh.seek(nbytes, os.SEEK_CUR)
            shapes[name], dtypes[name], offsets[name] = dims, dtype, offset
        if fh.tell() != end:
            raise CheckpointError(f"{path}: {end - fh.tell()} trailing bytes")
        return shapes, dtypes, offsets

    def expect(self, shapes):
        """Refuse the file unless it holds exactly the tensors of `shapes`,
        which maps each name to its shape; a None dim matches any size. A
        missing, misshapen or unexpected tensor raises `CheckpointError`
        naming it."""
        for name, shape in shapes.items():
            if name not in self.shapes:
                raise CheckpointError(f"{self.path}: missing tensor {name}")
            dims = self.shapes[name]
            if len(dims) != len(shape) or any(
                    want is not None and got != want for got, want in zip(dims, shape)):
                raise CheckpointError(f"{self.path}: shape mismatch for {name}: "
                                      f"stored {dims} vs expected {tuple(shape)}")
        extra = set(self.shapes) - set(shapes)
        if extra:
            raise CheckpointError(f"{self.path}: unexpected tensors {sorted(extra)[:3]}")

    def read(self, name, dtype):
        """The payload of `name` in a new array of `dtype`."""
        try:
            out = np.empty(self.shapes[name], dtype)
        except ValueError as exc:  # an empty tensor with dims numpy refuses
            raise CheckpointError(
                f"{self.path}: bad shape {self.shapes[name]} for {name}: {exc}") from None
        self._read_payload(name, out)
        return out

    def read_into(self, arrays):
        """Read the payload of each name of `arrays` into its array, in
        place. Every payload stored in another dtype is read and cast first,
        so a value beyond the range of its array's dtype is refused before
        any array is written."""
        cast = {name: self.read(name, out.dtype) for name, out in arrays.items()
                if self.dtypes[name] != out.dtype}
        for name, out in arrays.items():
            if name in cast:
                out[...] = cast[name]
            else:
                self._read_payload(name, out)

    def _read_payload(self, name, out):
        """Read the payload of `name` into the array `out` of its shape:
        straight into `out`'s buffer, or through a scratch array when `out`
        has another dtype or byte order, or is not C-contiguous. A value
        beyond the range of `out`'s dtype raises `CheckpointError`, and
        leaves `out` unchanged."""
        stored = self.dtypes[name].newbyteorder("<")
        direct = out.dtype == stored and out.flags.c_contiguous
        buf = out if direct else np.empty(out.shape, stored)
        self._fh.seek(self._offsets[name])
        if self._fh.readinto(buf.reshape(-1).view(np.uint8)) != buf.nbytes:
            raise CheckpointError(f"{self.path}: {name} was cut short while it was read")
        if buf is not out:
            try:
                with np.errstate(over="raise"):
                    np.copyto(out, buf.astype(out.dtype, copy=False))
            except FloatingPointError:
                raise CheckpointError(f"{self.path}: {name} holds values beyond "
                                      f"the {out.dtype} range") from None
