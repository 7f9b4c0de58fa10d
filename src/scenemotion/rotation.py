"""Rotation representations: 6D continuous vectors and axis-angle.

The 6D representation stores the first two columns of a rotation matrix;
the full matrix is recovered by Gram-Schmidt orthonormalization plus a
cross product. Every conversion here ships with a hand-derived reverse-mode
pullback so rotations can sit inside gradient-based optimization.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidRotationError, NumericError

_DEGENERATE_NORM = 1e-8
_ROTATION_TOL = 1e-4  # orthonormality and determinant error a rotation may carry
IDENTITY_6D = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


def rot6d_to_matrix(r):
    """Convert 6-vectors (..., 6) to rotation matrices (..., 3, 3) via Gram-Schmidt.

    The two embedded 3-vectors become the first two matrix columns after
    orthonormalization; the third column is their cross product.

    Raises:
        InvalidRotationError: if, in any row, either embedded vector is
            (near) zero or its norm overflows, or the two are (near) parallel.
            For a batch, the message names the first bad row.
    """
    return rot6d_to_matrix_with_cache(r)[0]


def rot6d_to_matrix_with_cache(r):
    """Like :func:`rot6d_to_matrix` but also returns the pullback cache."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape[-1:] != (6,):
        raise ValueError(f"expected 6-vectors, got shape {r.shape}")
    a1, a2 = r[..., :3], r[..., 3:]
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the finiteness checks
        n1 = np.linalg.norm(a1, axis=-1, keepdims=True)
        _reject(~np.isfinite(n1), "first 6D column has a non-finite norm")
        _reject(n1 < _DEGENERATE_NORM, "first 6D column is numerically zero")
        b1 = a1 / n1
        d = _dot(b1, a2)
        u2 = a2 - d * b1
        n2 = np.linalg.norm(u2, axis=-1, keepdims=True)
    _reject(~np.isfinite(n2), "second 6D column has a non-finite norm")
    _reject(n2 < _DEGENERATE_NORM, "6D columns are parallel or second is zero")
    b2 = u2 / n2
    b3 = np.cross(b1, b2)
    R = np.stack([b1, b2, b3], axis=-1)
    return R, (a2, b1, b2, b3, d, n1, n2)


def _reject(bad, message):
    """Raise InvalidRotationError if any row of ``bad`` (..., 1) is set; for a
    batch, the message names the first such row."""
    if np.any(bad):
        if bad.ndim > 1:
            row = tuple(int(i) for i in np.argwhere(bad[..., 0])[0])
            message = f"row {row[0] if len(row) == 1 else row}: {message}"
        raise InvalidRotationError(message)


def rot6d_matrix_pullback(cache, g_matrix):
    """Backpropagate cotangents on the rotation matrices to the 6-vectors.

    Args:
        cache: second return value of :func:`rot6d_to_matrix_with_cache`.
        g_matrix: (..., 3, 3) array, dL/dR.

    Returns:
        (..., 6) array, dL/dr.
    """
    a2, b1, b2, b3, d, n1, n2 = cache
    g = np.asarray(g_matrix, dtype=np.float64)
    g_b3 = g[..., 2]
    # b3 = b1 x b2
    g_b1 = g[..., 0] + np.cross(b2, g_b3)
    g_b2 = g[..., 1] + np.cross(g_b3, b1)
    # b2 = u2 / |u2|
    g_u2 = (g_b2 - _dot(b2, g_b2) * b2) / n2
    # u2 = a2 - (b1.a2) b1
    g_d = -_dot(b1, g_u2)
    g_a2 = g_u2 + g_d * b1
    g_b1 += -d * g_u2 + g_d * a2
    # b1 = a1 / |a1|
    g_a1 = (g_b1 - _dot(b1, g_b1) * b1) / n1
    return np.concatenate([g_a1, g_a2], axis=-1)


def _dot(x, y):
    return np.sum(x * y, axis=-1, keepdims=True)


def matrix_to_rot6d(R):
    """Extract the 6D representations (..., 6), the first two columns, of
    rotation matrices (..., 3, 3).

    Raises:
        InvalidRotationError: if any matrix deviates from orthonormality (or
            from determinant +1) by more than ``_ROTATION_TOL``, or is not finite. For a
            batch, the message names the first bad row.
    """
    R = np.asarray(R, dtype=np.float64)
    if R.shape[-2:] != (3, 3):
        raise ValueError(f"expected 3x3 matrices, got shape {R.shape}")
    with np.errstate(invalid="ignore"):  # a non-finite matrix fails the test below
        err = np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3)).max(axis=(-2, -1))
        ok = (err <= _ROTATION_TOL) & (np.abs(np.linalg.det(R) - 1.0) <= _ROTATION_TOL)
    _reject(~ok[..., None], f"matrix is not a rotation (orthonormality error "
                            f"{np.max(err, initial=0.0):.2e})")
    return np.concatenate([R[..., 0], R[..., 1]], axis=-1)


def axis_angle_to_matrix_with_cache(w):
    """Rodrigues formula over axis-angle vectors (..., 3), stable near the zero
    rotation; returns the matrices and the cache of :func:`axis_angle_pullback`.

    Raises:
        NumericError: if any row overflows.
    """
    w = np.asarray(w, dtype=np.float64)
    with np.errstate(over="ignore"):  # overflow is caught as a NumericError below
        theta2 = np.sum(w * w, axis=-1)
    a, b = _rodrigues_coeffs(theta2)
    K = skew(w)
    KK = K @ K
    R = np.eye(3) + a[..., None, None] * K + b[..., None, None] * KK
    return R, (w, K, KK, theta2, a, b)


def axis_angle_pullback(cache, g_matrix):
    """dL/dw (..., 3) for R = exp(skew(w)) given dL/dR (..., 3, 3)."""
    w, K, KK, theta2, a, b = cache
    g = np.asarray(g_matrix, dtype=np.float64)
    da_dt_over_t, db_dt_over_t = _rodrigues_coeff_derivs(theta2)
    g_w = a[..., None] * unskew(g) - b[..., None] * unskew(g @ K + K @ g)
    # chain through the scalar coefficients; *_over_t absorbs the 1/theta
    # from d(theta)/dw = w/theta so the formula stays finite at theta=0
    gK = np.sum(g * K, axis=(-2, -1))
    gK2 = np.sum(g * KK, axis=(-2, -1))
    g_w += (da_dt_over_t * gK + db_dt_over_t * gK2)[..., None] * w
    return g_w


def skew(v):
    """Cross-product matrices (..., 3, 3) of vectors (..., 3)."""
    v = np.asarray(v, dtype=np.float64)
    K = np.zeros(v.shape + (3,))
    K[..., 0, 1], K[..., 0, 2] = -v[..., 2], v[..., 1]
    K[..., 1, 0], K[..., 1, 2] = v[..., 2], -v[..., 0]
    K[..., 2, 0], K[..., 2, 1] = -v[..., 1], v[..., 0]
    return K


def unskew(m):
    """Adjoint of :func:`skew`: <M, skew(v)> = unskew(M) . v."""
    return np.stack([m[..., 2, 1] - m[..., 1, 2], m[..., 0, 2] - m[..., 2, 0],
                     m[..., 1, 0] - m[..., 0, 1]], axis=-1)


def _rodrigues_coeffs(theta2):
    # a = sin(t)/t, b = (1-cos(t))/t^2 with Taylor fallback for small t
    if not np.all(np.isfinite(theta2)):
        raise NumericError("axis-angle rotation overflowed")
    small = theta2 < 1e-12
    t2 = np.where(small, 1.0, theta2)
    t = np.sqrt(t2)
    a = np.where(small, 1.0 - theta2 / 6.0 + theta2 * theta2 / 120.0, np.sin(t) / t)
    b = np.where(small, 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0, (1.0 - np.cos(t)) / t2)
    return a, b


def _rodrigues_coeff_derivs(theta2):
    # returns a'(t)/t and b'(t)/t, both finite at t=0
    small = theta2 < 1e-8
    t2 = np.where(small, 1.0, theta2)
    t = np.sqrt(t2)
    da = np.where(small, -1.0 / 3.0 + theta2 / 30.0,
                  (t * np.cos(t) - np.sin(t)) / (t2 * t))
    db = np.where(small, -1.0 / 12.0 + theta2 / 180.0,
                  (t * np.sin(t) - 2.0 * (1.0 - np.cos(t))) / (t2 * t2))
    return da, db


def heading_to_rot6d(angle):
    """6D representations (..., 6) of rotations about +z by ``angle`` (...) radians."""
    c, s = np.cos(angle), np.sin(angle)
    R = np.zeros(np.shape(c) + (3, 3))
    R[..., 0, 0], R[..., 0, 1], R[..., 2, 2] = c, -s, 1.0
    R[..., 1, 0], R[..., 1, 1] = s, c
    return matrix_to_rot6d(R)
