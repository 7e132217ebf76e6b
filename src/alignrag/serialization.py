"""Versioned binary container for index and checkpoint files.

Layout (little-endian throughout):

    bytes 0..3    magic b"ARAG"
    bytes 4..7    uint32 format version
    bytes 8..11   uint32 header length L
    bytes 12..    header: UTF-8 JSON with sorted keys
    ...           float64 C-order array payloads, concatenated in the
                  order listed under header["arrays"]

The header's "kind" field distinguishes file types and its "arrays"
field records name, shape, and byte offset of every payload. Writing
is fully deterministic, so save -> load -> save is byte-identical.
"""
from __future__ import annotations

import json
import math
import os
import stat
import struct

import numpy as np

from .errors import CheckpointError

MAGIC = b"ARAG"
FORMAT_VERSION = 1


def write_container(path, kind: str, header: dict, arrays: dict[str, np.ndarray]) -> None:
    manifest = []
    offset = 0
    names = sorted(arrays)
    payloads = [np.ascontiguousarray(arrays[name], dtype="<f8") for name in names]
    for name, arr in zip(names, payloads):
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes
    full_header = dict(header)
    full_header["kind"] = kind
    full_header["arrays"] = manifest
    blob = json.dumps(full_header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for arr in payloads:
            fh.write(arr)  # from the array's own buffer, with no copy


def read_container(path, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and arrays of a container; CheckpointError if it is malformed or truncated,
    or if an array holds a NaN or an infinity."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        fixed = fh.read(8)
        if len(fixed) != 8:
            raise CheckpointError(f"{path}: truncated before the header length")
        version, header_len = struct.unpack("<II", fixed)
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        blob = fh.read(header_len)
        if len(blob) != header_len:
            raise CheckpointError(f"{path}: header is {len(blob)} bytes, expected {header_len}")
        try:
            header = json.loads(blob.decode("utf-8"))
        except ValueError as err:  # invalid UTF-8 or invalid JSON
            raise CheckpointError(f"{path}: undecodable header: {err}") from err
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is not a JSON object")
        if header.get("kind") != kind:
            raise CheckpointError(f"{path}: expected kind {kind!r}, got {header.get('kind')!r}")
        try:
            manifest = [(e["name"], tuple(e["shape"]), e["offset"]) for e in header["arrays"]]
        except (KeyError, TypeError) as err:
            raise CheckpointError(f"{path}: malformed array manifest ({err!r})") from err
        # The arrays must tile the payload exactly, in manifest order.
        end = 0
        for name, shape, start in manifest:
            valid_shape = all(type(d) is int and d >= 0 for d in shape)
            if type(name) is not str or not valid_shape or start != end:
                raise CheckpointError(f"{path}: array {name!r} has shape {shape} at offset {start}")
            end += 8 * math.prod(shape)
        # A regular file too short for the manifest is refused before allocating.
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size - fh.tell() < end:
            raise CheckpointError(f"{path}: arrays need {end} payload bytes, file has {st.st_size - fh.tell()}")
        # One read into a writable buffer; the arrays are views of it.
        payload = bytearray(end)
        size = fh.readinto(payload)
        if size != end or fh.read(1):
            have = size if size < end else "more"
            raise CheckpointError(f"{path}: arrays need {end} payload bytes, file has {have}")
    arrays = {}
    for name, shape, start in manifest:
        arr = np.frombuffer(payload, dtype="<f8", count=math.prod(shape), offset=start)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: non-finite values in array {name!r}")
        arrays[name] = arr.reshape(shape)
    return header, arrays
