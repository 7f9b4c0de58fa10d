import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenemotion import rotation
from scenemotion.errors import InvalidRotationError


def test_identity_6d_maps_to_identity():
    R = rotation.rot6d_to_matrix([1, 0, 0, 0, 1, 0])
    assert np.array_equal(R, np.eye(3))


def test_scaling_is_removed_by_normalization():
    R = rotation.rot6d_to_matrix([2, 0, 0, 0, 3, 0])
    assert np.array_equal(R, np.eye(3))


def test_random_inputs_give_orthonormal_matrices():
    rng = np.random.default_rng(0)
    for _ in range(100):
        R = rotation.rot6d_to_matrix(rng.standard_normal(6))
        assert np.abs(R.T @ R - np.eye(3)).max() < 1e-6
        assert abs(np.linalg.det(R) - 1.0) < 1e-6


def test_first_column_is_normalized_first_vector():
    r = np.array([3.0, 4.0, 0.0, 1.0, 1.0, 1.0])
    R = rotation.rot6d_to_matrix(r)
    np.testing.assert_allclose(R[:, 0], [0.6, 0.8, 0.0], atol=1e-12)


@pytest.mark.parametrize("bad", [
    np.zeros(6),
    np.array([1.0, 0, 0, 2.0, 0, 0]),       # parallel columns
    np.array([1.0, 0, 0, 0, 0, 0]),          # zero second column
])
def test_degenerate_inputs_rejected(bad):
    with pytest.raises(InvalidRotationError):
        rotation.rot6d_to_matrix(bad)


def test_matrix_to_rot6d_identity():
    r = rotation.matrix_to_rot6d(np.eye(3))
    assert np.array_equal(r, [1, 0, 0, 0, 1, 0])


def test_matrix_to_rot6d_z90():
    Rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(rotation.matrix_to_rot6d(Rz), [0, 1, 0, -1, 0, 0], atol=1e-12)


def test_round_trip_on_random_rotations():
    rng = np.random.default_rng(1)
    for _ in range(50):
        R = rotation.rot6d_to_matrix(rng.standard_normal(6))
        R2 = rotation.rot6d_to_matrix(rotation.matrix_to_rot6d(R))
        assert np.abs(R - R2).max() < 1e-6


def test_non_orthonormal_matrix_rejected():
    with pytest.raises(InvalidRotationError):
        rotation.matrix_to_rot6d(np.eye(3) * 1.01)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=6, max_size=6))
def test_rot6d_property_orthonormal_or_rejected(vals):
    r = np.asarray(vals)
    try:
        R = rotation.rot6d_to_matrix(r)
    except (InvalidRotationError, ValueError):
        return
    assert np.abs(R.T @ R - np.eye(3)).max() < 1e-6
    assert abs(np.linalg.det(R) - 1.0) < 1e-6


def test_rot6d_pullback_matches_fd():
    rng = np.random.default_rng(2)
    for _ in range(20):
        r = rng.standard_normal(6)
        G = rng.standard_normal((3, 3))
        _, cache = rotation.rot6d_to_matrix_with_cache(r)
        analytic = rotation.rot6d_matrix_pullback(cache, G)
        h = 1e-6
        numeric = np.zeros(6)
        for i in range(6):
            rp, rm = r.copy(), r.copy()
            rp[i] += h
            rm[i] -= h
            numeric[i] = (np.tensordot(G, rotation.rot6d_to_matrix(rp))
                          - np.tensordot(G, rotation.rot6d_to_matrix(rm))) / (2 * h)
        assert np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-9) < 1e-3


def test_axis_angle_round_trip_and_pullback():
    rng = np.random.default_rng(3)
    for scale in (1.0, 1e-4, 0.0):
        w = rng.standard_normal(3) * scale
        R, cache = rotation.axis_angle_to_matrix_with_cache(w)
        assert np.abs(R.T @ R - np.eye(3)).max() < 1e-12
        G = rng.standard_normal((3, 3))
        analytic = rotation.axis_angle_pullback(cache, G)
        h = 1e-6
        numeric = np.zeros(3)
        for i in range(3):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            numeric[i] = (np.tensordot(G, rotation.axis_angle_to_matrix_with_cache(wp)[0])
                          - np.tensordot(G, rotation.axis_angle_to_matrix_with_cache(wm)[0])) / (2 * h)
        assert np.abs(analytic - numeric).max() < 1e-5


def test_heading_rotation_is_about_z():
    r = rotation.heading_to_rot6d(0.5)
    R = rotation.rot6d_to_matrix(r)
    np.testing.assert_allclose(R @ np.array([0, 0, 1.0]), [0, 0, 1.0], atol=1e-12)


def test_batched_heading_and_matrix_conversions_match_single_calls():
    angles = np.random.default_rng(5).uniform(-7.0, 7.0, (3, 4))
    r = rotation.heading_to_rot6d(angles)
    assert r.shape == (3, 4, 6)
    assert np.array_equal(r, [[rotation.heading_to_rot6d(a) for a in row] for row in angles])
    R = rotation.rot6d_to_matrix(r)
    assert np.array_equal(rotation.matrix_to_rot6d(R),
                          [[rotation.matrix_to_rot6d(m) for m in row] for row in R])
    R[1, 2] *= 1.01
    with pytest.raises(InvalidRotationError, match=r"row \(1, 2\)"):
        rotation.matrix_to_rot6d(R)
    with pytest.raises(InvalidRotationError):
        rotation.matrix_to_rot6d(np.full((3, 3), np.nan))


def test_batched_rows_match_single_vector_calls():
    rng = np.random.default_rng(4)
    r = rng.standard_normal((4, 5, 6))
    w = rng.standard_normal((4, 5, 3))
    w[0, 0] = 0.0
    w[1, 2] *= 1e-5
    G = rng.standard_normal((4, 5, 3, 3))
    R6, c6 = rotation.rot6d_to_matrix_with_cache(r)
    Ra, ca = rotation.axis_angle_to_matrix_with_cache(w)
    g6 = rotation.rot6d_matrix_pullback(c6, G)
    ga = rotation.axis_angle_pullback(ca, G)
    assert R6.shape == Ra.shape == G.shape and g6.shape == r.shape and ga.shape == w.shape
    for i, j in np.ndindex(4, 5):
        R, cache = rotation.rot6d_to_matrix_with_cache(r[i, j])
        np.testing.assert_allclose(R6[i, j], R, rtol=0, atol=1e-15)
        np.testing.assert_allclose(g6[i, j], rotation.rot6d_matrix_pullback(cache, G[i, j]),
                                   rtol=1e-13, atol=1e-15)
        R, cache = rotation.axis_angle_to_matrix_with_cache(w[i, j])
        np.testing.assert_allclose(Ra[i, j], R, rtol=0, atol=1e-15)
        np.testing.assert_allclose(ga[i, j], rotation.axis_angle_pullback(cache, G[i, j]),
                                   rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("bad", [
    np.array([1e200, 0, 0, 0, 1.0, 0]),     # first column's norm overflows
    np.array([1.0, 0, 0, 0, 1e200, 0]),     # second column's norm overflows
    np.array([np.nan, 0, 0, 0, 1.0, 0]),
])
def test_non_finite_column_norm_rejected(bad):
    with np.errstate(all="raise"):  # rejected without a floating-point warning
        with pytest.raises(InvalidRotationError):
            rotation.rot6d_to_matrix(bad)


def test_one_overflowing_row_rejects_the_batch():
    r = np.tile(rotation.IDENTITY_6D, (3, 4, 1))
    r[2, 1] = [1e200, 0, 0, 0, 1.0, 0]
    with pytest.raises(InvalidRotationError):
        rotation.rot6d_to_matrix(r)
    r[2, 1] = [1.0, 0, 0, 0, 1e200, 0]
    with pytest.raises(InvalidRotationError):
        rotation.rot6d_to_matrix(r)


@pytest.mark.parametrize("bad, message", [
    (np.zeros(6), "first 6D column is numerically zero"),
    (np.array([np.nan, 0, 0, 0, 1.0, 0]), "first 6D column has a non-finite norm"),
    (np.array([1.0, 0, 0, 2.0, 0, 0]), "6D columns are parallel or second is zero"),
])
def test_batch_errors_name_the_first_bad_row(bad, message):
    with pytest.raises(InvalidRotationError) as single:
        rotation.rot6d_to_matrix(bad)
    assert str(single.value) == message
    r = np.tile(rotation.IDENTITY_6D, (5, 1))
    r[[2, 4]] = bad
    with pytest.raises(InvalidRotationError) as batch:
        rotation.rot6d_to_matrix(r)
    assert str(batch.value) == f"row 2: {message}"
    stacked = np.tile(rotation.IDENTITY_6D, (3, 4, 1))
    stacked[1, 3] = bad
    with pytest.raises(InvalidRotationError, match=r"^row \(1, 3\): "):
        rotation.rot6d_to_matrix(stacked)
