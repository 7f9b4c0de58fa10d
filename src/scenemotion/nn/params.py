"""Named parameter tensors with gradient slots and init. Weights persist
through ``scenemotion.artefact``."""

from __future__ import annotations

import numpy as np


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
