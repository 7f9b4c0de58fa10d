"""Fully-connected layers, leaky activation, and two-layer residual blocks.

All forwards return ``(output, cache)``; the matching backward consumes the
cache and a cotangent, accumulates parameter gradients into the grad slots
and returns the input cotangent. Everything is float64.
"""

from __future__ import annotations

import numpy as np

from .params import Module, Param, uniform_init

LEAKY_SLOPE = 0.01


def leaky_relu(x):
    # with a slope below 1, max(x, slope * x) is x for x >= 0 and slope * x below
    y = LEAKY_SLOPE * x
    np.maximum(x, y, out=y)
    return y


def leaky_relu_backward(x, gy):
    # each slope is exactly 1 or LEAKY_SLOPE, since (1 - s) + s == 1 in float64
    g = (x >= 0.0) * (1.0 - LEAKY_SLOPE)
    g += LEAKY_SLOPE
    g *= gy
    return g


class Linear(Module):
    """y = x W^T + b over the trailing input axis."""

    def __init__(self, in_dim, out_dim, rng, name="linear"):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.W = Param(f"{name}.W", uniform_init(rng, (out_dim, in_dim), in_dim))
        self.b = Param(f"{name}.b", uniform_init(rng, (out_dim,), in_dim))

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_dim:
            raise ValueError(f"{self.W.name}: expected input width {self.in_dim}, got {x.shape[-1]}")
        y = x @ self.W.value.T
        y += self.b.value
        return y, x

    def backward(self, cache, gy):
        x = cache
        gy = np.asarray(gy, dtype=np.float64)
        gy2 = gy.reshape(-1, self.out_dim)
        self.W.grad += gy2.T @ x.reshape(-1, self.in_dim)
        self.b.grad += gy2.sum(axis=0)
        return gy @ self.W.value


class ResidualBlock(Module):
    """y = x + FC2(act(FC1(x))); input and output widths are equal."""

    def __init__(self, width, rng, name="res"):
        self.width = width
        self.fc1 = Linear(width, width, rng, name=f"{name}.fc1")
        self.fc2 = Linear(width, width, rng, name=f"{name}.fc2")

    def forward(self, x):
        h1, c1 = self.fc1.forward(x)
        a1 = leaky_relu(h1)
        h2, c2 = self.fc2.forward(a1)
        return x + h2, (c1, h1, c2)

    def backward(self, cache, gy):
        c1, h1, c2 = cache
        ga1 = self.fc2.backward(c2, gy)
        gh1 = leaky_relu_backward(h1, ga1)
        gx = self.fc1.backward(c1, gh1)
        return gy + gx


class MLP(Module):
    """Linear stack with a leaky activation after every layer, the last included."""

    def __init__(self, dims, rng, name="mlp"):
        self.layers = [Linear(dims[i], dims[i + 1], rng, name=f"{name}.{i}") for i in range(len(dims) - 1)]

    def forward(self, x):
        caches = []
        for layer in self.layers:
            x, c = layer.forward(x)
            caches.append((c, x))
            x = leaky_relu(x)
        return x, caches

    def backward(self, caches, gy):
        for layer, (c, pre) in zip(reversed(self.layers), reversed(caches)):
            gy = layer.backward(c, leaky_relu_backward(pre, gy))
        return gy
