"""Named parameter tensors with gradient slots and init. Weights persist
through ``scenemotion.artefact``.

A parameter's gradient slot is allocated on its first read, not with the
parameter. Inference (goal sampling, clip synthesis, refinement against the
scene) reads no network gradient, so a model that is only run holds its
weights alone; a backward pass or an optimizer (``nn.adam.AdamState``)
creates the slots it uses.
"""

from __future__ import annotations

import numpy as np


class Param:
    """A trainable array plus its gradient slot.

    The slot does not exist until ``grad`` is first read: that read creates
    it as zeros of the value's shape, so ``p.grad += g`` and
    ``p.grad[...] = g`` work on a fresh parameter as on a used one.
    ``zero_grad`` clears a slot that exists and creates none.
    """

    __slots__ = ("name", "value", "_grad")

    def __init__(self, name, value):
        self.name = name
        self.value = np.array(value, dtype=np.float64)
        self._grad = None

    @property
    def grad(self):
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, g):
        self._grad = g

    def zero_grad(self):
        if self._grad is not None:
            self._grad[...] = 0.0

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
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name}: stored tensor holds non-finite values")
            param.value[...] = arr

    def checksum(self):
        """Order-stable fingerprint of all parameter values."""
        import hashlib
        hasher = hashlib.sha256()
        for name, arr in sorted(self.named_arrays().items()):
            hasher.update(name.encode())
            hasher.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        return hasher.hexdigest()
