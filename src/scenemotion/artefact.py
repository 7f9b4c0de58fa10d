"""The one on-disk container of the program's arrays: weights, SDF caches,
sequences and datasets. No other module lays out array bytes on disk.

Layout: the magic ``SMWT``, little-endian uint32 container version and
manifest length, a JSON manifest (tensor names and shapes in order, dtype and
``meta``, whose ``kind`` names the contents), then each tensor's
little-endian float64 bytes in manifest order.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import ArtefactError

MAGIC = b"SMWT"
CONTAINER_VERSION = 1


def save(path, arrays, meta):
    """Write ``arrays`` (name -> array) and ``meta`` (with a ``kind``)."""
    order = sorted(arrays)
    manifest = {"version": CONTAINER_VERSION, "dtype": "<f8", "meta": meta,
                "tensors": [{"name": n, "shape": list(np.shape(arrays[n]))} for n in order]}
    blob = json.dumps(manifest, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<II", CONTAINER_VERSION, len(blob)) + blob)
        for n in order:
            f.write(np.ascontiguousarray(arrays[n], dtype="<f8").tobytes())


def load(path, kind):
    """(arrays, meta) of the container at ``path``, which must hold ``kind``.
    A file that cannot be read or is not a whole container of that kind
    raises ArtefactError."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise ArtefactError(f"{path}: cannot read: {e.strerror}") from None
    pos = 4

    def take(size, what):
        nonlocal pos
        if pos + size > len(data):
            raise ArtefactError(f"{path}: truncated {what} ({len(data) - pos} of {size} bytes)")
        pos += size
        return pos - size

    if data[:4] != MAGIC:
        raise ArtefactError(f"{path}: not a container")
    version, hlen = struct.unpack_from("<II", data, take(8, "header"))
    if version != CONTAINER_VERSION:
        raise ArtefactError(f"{path}: unsupported container version {version}")
    start = take(hlen, "manifest")
    try:
        manifest = json.loads(data[start:pos])
        tensors = [(rec["name"], [int(d) for d in rec["shape"]]) for rec in manifest["tensors"]]
        if any(d < 0 for _, shape in tensors for d in shape):
            raise ValueError("negative tensor dimension")
        meta = manifest.get("meta", {})
        held = meta.get("kind")
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ArtefactError(f"{path}: bad manifest: {e}") from None
    if held != kind:
        raise ArtefactError(f"{path}: holds {held!r} data, expected {kind!r}")
    arrays = {}
    for name, shape in tensors:
        offset = take(8 * math.prod(shape), f"tensor {name!r}")
        arrays[name] = np.frombuffer(data, dtype="<f8", count=math.prod(shape),
                                     offset=offset).reshape(shape).astype(np.float64)
    return arrays, meta
