"""Named parameter tensors with gradient slots, init, and persistence.

Weights persist to a single versioned container: a JSON manifest (names,
shapes, seed, arbitrary metadata) followed by little-endian float64 blobs
in manifest order.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from ..errors import WeightFormatError

MAGIC = b"SMWT"
CONTAINER_VERSION = 1


class Param:
    """A trainable array plus its gradient slot."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name, value):
        self.name = name
        self.value = np.array(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Param({self.name}, shape={self.value.shape})"


def uniform_init(rng, shape, fan_in):
    """Uniform fan-in scaled initialization, U(-1/sqrt(fan_in), +)."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Module:
    """Tiny base: modules expose their params and submodules by attribute."""

    def named_params(self, prefix=""):
        """{dotted name: Param}, depth-first over attribute names in sorted
        order; list and tuple items are named by index. The one tree walk:
        params() and named_arrays() keep its order."""
        out = {}
        for key in sorted(vars(self)):
            val = getattr(self, key)
            items = enumerate(val) if isinstance(val, (list, tuple)) else [(None, val)]
            for i, item in items:
                name = f"{prefix}{key}" if i is None else f"{prefix}{key}.{i}"
                if isinstance(item, Param):
                    out[name] = item
                elif isinstance(item, Module):
                    out.update(item.named_params(name + "."))
        return out

    def params(self):
        return list(self.named_params().values())

    def named_arrays(self):
        return {name: p.value for name, p in self.named_params().items()}

    def zero_grad(self):
        for p in self.params():
            p.zero_grad()

    def load_arrays(self, arrays):
        params = self.named_params()
        missing = set(params) - set(arrays)
        extra = set(arrays) - set(params)
        if missing or extra:
            raise ValueError(f"weight mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, param in params.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != param.value.shape:
                raise ValueError(f"{name}: stored shape {arr.shape} != model shape {param.value.shape}")
            param.value[...] = arr

    def checksum(self):
        """Order-stable fingerprint of all parameter values."""
        import hashlib
        hasher = hashlib.sha256()
        for name, arr in sorted(self.named_arrays().items()):
            hasher.update(name.encode())
            hasher.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        return hasher.hexdigest()


def save_weights(path, arrays, meta=None):
    """Write the versioned weight container."""
    order = sorted(arrays)
    manifest = {
        "version": CONTAINER_VERSION,
        "dtype": "<f8",
        "tensors": [{"name": n, "shape": list(np.asarray(arrays[n]).shape)} for n in order],
        "meta": meta or {},
    }
    blob = json.dumps(manifest, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", CONTAINER_VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for n in order:
            f.write(np.ascontiguousarray(arrays[n], dtype="<f8").tobytes())


def load_weights(path):
    """Read the container; returns (arrays dict, meta dict). A file that is not
    a whole container raises WeightFormatError."""
    with open(path, "rb") as f:
        if f.read(4) != MAGIC:
            raise WeightFormatError(f"{path}: not a weight container")
        version, hlen = struct.unpack("<II", _read_exact(f, 8, path, "header"))
        if version != CONTAINER_VERSION:
            raise WeightFormatError(f"{path}: unsupported container version {version}")
        blob = _read_exact(f, hlen, path, "manifest")
        try:
            manifest = json.loads(blob.decode())
            tensors = [(rec["name"], [int(d) for d in rec["shape"]])
                       for rec in manifest["tensors"]]
            if any(d < 0 for _, shape in tensors for d in shape):
                raise ValueError("negative tensor dimension")
        except (KeyError, TypeError, ValueError) as e:
            raise WeightFormatError(f"{path}: bad manifest: {e}") from None
        arrays = {}
        for name, shape in tensors:
            data = _read_exact(f, 8 * math.prod(shape), path, f"tensor {name!r}")
            arrays[name] = np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)
    return arrays, manifest.get("meta", {})


def _read_exact(f, size, path, what):
    data = f.read(size)
    if len(data) != size:
        raise WeightFormatError(f"{path}: truncated {what} ({len(data)} of {size} bytes)")
    return data
