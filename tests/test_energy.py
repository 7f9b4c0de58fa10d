import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenemotion import body, energy
from scenemotion.energy import (CONTACT_SIGMA, EnergyReport, EnergyWeights, FootSegment,
                                _col_term, _cont_term, _foot_term, _smooth_term, e_col, e_cont,
                                e_smooth, geman_mcclure, segment_from_centroids,
                                segment_stable_foot, sole_centroids, total_energy)
from scenemotion.sdf import SdfGrid, sample_sdf_batch
from scenemotion.scene import VertexIndex
from scenemotion.sequence import MotionSequence
from helpers import (PinnedIndex, foot_labels, interpolated_rows, pinned_field, sdf_at,
                     worker_handoffs)


def standing_frames(template, positions, pelvis_z=0.93):
    frames = np.zeros((len(positions), body.PARAM_DIM))
    for i, (x, y) in enumerate(positions):
        frames[i] = body.BodyParams(t=np.array([x, y, pelvis_z]),
                                    r=np.array([1.0, 0, 0, 0, 1, 0]),
                                    beta=np.zeros(10), p=np.zeros(32),
                                    h=np.zeros(24)).flat()
    return frames


# -- robustifier ---------------------------------------------------------------

def test_geman_mcclure_identities():
    s = CONTACT_SIGMA
    assert geman_mcclure(0.0) == 0.0
    assert geman_mcclure(1e9) == pytest.approx(s * s, rel=1e-6)
    assert geman_mcclure(s) == pytest.approx(s * s / 2.0, abs=1e-15)  # 0.02 at sigma=0.2


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 100), st.floats(0, 100))
def test_geman_mcclure_monotone_and_bounded(a, b):
    s2 = CONTACT_SIGMA ** 2
    lo, hi = sorted((a, b))
    assert geman_mcclure(lo) <= geman_mcclure(hi) + 1e-15
    assert 0.0 <= geman_mcclure(hi) <= s2


# -- stable-foot segmentation ----------------------------------------------------

def test_static_left_moving_right_single_segment():
    T = 20
    left = np.tile([0.1, 0.0, 0.0], (T, 1))
    right = np.cumsum(np.tile([0.05, 0.0, 0.0], (T, 1)), axis=0)
    seg = segment_from_centroids(left, right)
    assert len(seg) == 1
    assert seg[0].side == "left"
    np.testing.assert_allclose(seg[0].mean, [0.1, 0.0, 0.0])


def test_alternating_gait_two_segments():
    # left static 10 frames then right static 10 frames
    left = np.zeros((20, 3))
    right = np.zeros((20, 3))
    left[10:, 0] = np.cumsum(np.full(10, 0.05))
    right[:10, 0] = np.cumsum(np.full(10, 0.05))
    right[10:, 0] = right[9, 0]
    seg = segment_from_centroids(left, right)
    sides = [s.side for s in seg]
    assert sides == ["left", "right"]


def test_segments_partition_timeline():
    rng = np.random.default_rng(0)
    left = rng.standard_normal((40, 3)) * 0.05
    right = rng.standard_normal((40, 3)) * 0.05
    seg = segment_from_centroids(left, right)
    assert seg[0].start == 0
    assert seg[-1].end == 40
    for a, b in zip(seg, seg[1:]):
        assert a.end == b.start
        assert a.side != b.side  # alternating or separated by no-stance


def test_short_runs_absorbed_by_hysteresis():
    left = np.zeros((20, 3))
    right = np.ones((20, 3))
    right[:, 0] = np.linspace(0, 1, 20)  # right always moving
    # inject a 1-frame flip by moving left hugely at frame 10
    left[10] = [5.0, 0, 0]
    seg = segment_from_centroids(left, right)
    assert all(s.end - s.start >= 3 or s is seg[-1] for s in seg)


# per-pair sole speeds (m/frame) on both sides of STANCE_MOVE_THRESHOLD, ties included
_SPEEDS = st.sampled_from([0.0, 0.005, 0.01, 0.02, 0.021, 0.05])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_SPEEDS, _SPEEDS), min_size=1, max_size=40))
def test_segments_tile_alternate_and_are_long(steps):
    left, right = (np.zeros((len(steps) + 1, 3)) for _ in range(2))
    left[1:, 0] = np.cumsum([dl for dl, _ in steps])
    right[1:, 1] = np.cumsum([dr for _, dr in steps])
    segments = segment_from_centroids(left, right)
    assert segments[0].start == 0 and segments[-1].end == len(left)
    for a, b in zip(segments, segments[1:]):
        assert a.end == b.start
        assert a.side != b.side
    if len(segments) > 1:
        assert all(s.end - s.start >= energy.STANCE_HYSTERESIS for s in segments)
    assert all(s.end > s.start for s in segments)


def test_segmentation_needs_two_frames(template):
    with pytest.raises(ValueError):
        segment_stable_foot(template, np.zeros((1, template.num_vertices, 3)))


def test_procedural_gait_oracle(template):
    from scenemotion.datagen import SyntheticMotionSpec, SyntheticSceneSpec, gen_motion
    spec = SyntheticSceneSpec(floor_extent=8.0)
    mspec = SyntheticMotionSpec(waypoints=[(-1.5, 0.0), (1.5, 0.4)], step_length=0.55,
                                cadence=1.8)
    seq, stance = gen_motion(spec, mspec, template)
    seg = segment_stable_foot(template, body.forward_batch(template, seq.frames).vertices)
    labels = foot_labels(seg, len(seq))
    agreement = np.mean([a == b for a, b in zip(labels, stance)])
    assert agreement >= 0.9


# -- energy terms -----------------------------------------------------------------

def test_e_foot_pivoting_foot_is_zero(template):
    frames = standing_frames(template, [(0.0, 0.0)] * 5)
    verts = body.forward_batch(template, frames).vertices
    seg = segment_stable_foot(template, verts)
    assert _foot_term(template, verts, seg) == 0.0


def test_e_foot_two_frame_hand_case():
    # 2-frame left segment with the sole at x=0 then x=0.1: the stored mean is
    # 0.05, so the energy is |0-0.05| + |0.1-0.05| = 0.1
    class _T:
        def sole_vertex_ids(self, side):
            return np.array([0])

    seg = [FootSegment(0, 2, "left", np.array([0.05, 0.0, 0.0]))]
    verts = np.zeros((2, 1, 3))
    verts[1, 0, 0] = 0.1
    total = _foot_term(_T(), verts, seg)
    assert total == pytest.approx(0.1, abs=1e-9)


def test_e_col_zero_above_floor(template, slab_field):
    frames = standing_frames(template, [(0.0, 0.0)], pelvis_z=1.5)
    verts = MotionSequence(frames=frames).meshes(template)
    assert e_col(verts, slab_field.grid) == 0.0


def test_e_col_hand_case_single_penetrating_vertex(slab_field):
    # one vertex 0.1 m below the slab top among V vertices, one frame
    V = 500
    verts = np.zeros((1, V, 3))
    verts[0, :, 2] = 1.0
    verts[0, 0, 2] = -0.1
    assert e_col(verts, slab_field.grid) == pytest.approx(0.1 / V, abs=1e-9)


def test_e_col_matches_naive_oracle(template, slab_field):
    rng = np.random.default_rng(1)
    frames = standing_frames(template, [(0.3, 0.2), (-0.4, 0.6)], pelvis_z=0.85)
    verts = MotionSequence(frames=frames).meshes(template)
    expected = 0.0
    for f in range(len(verts)):
        acc = 0.0
        for v in verts[f]:
            val, _ = sdf_at(slab_field.grid, v)
            acc += abs(min(val, 0.0))
        expected += acc / verts.shape[1]
    assert e_col(verts, slab_field.grid) == pytest.approx(expected, abs=1e-9)


def test_e_cont_identities():
    index = VertexIndex([[0.0, 0.0, 0.0]])
    contact = np.array([0])
    verts = np.zeros((1, 1, 3))
    assert e_cont(verts, contact, index) == 0.0  # coincident -> rho(0)=0
    verts_far = np.full((1, 1, 3), 1e6)
    assert e_cont(verts_far, contact, index) == pytest.approx(CONTACT_SIGMA ** 2, rel=1e-6)
    verts_sigma = np.zeros((1, 1, 3))
    verts_sigma[0, 0, 0] = CONTACT_SIGMA
    assert e_cont(verts_sigma, contact, index) == pytest.approx(CONTACT_SIGMA ** 2 / 2, abs=1e-12)


def test_e_smooth_static_zero(template):
    frames = standing_frames(template, [(0.5, 0.5)] * 4)
    verts = MotionSequence(frames=frames).meshes(template)
    assert e_smooth(verts) == 0.0


def test_e_smooth_rigid_translation_hand_case():
    V = 500
    verts = np.zeros((2, V, 3))
    verts[1, :, 0] = 0.01
    assert e_smooth(verts) == pytest.approx(0.01 * np.sqrt(V), abs=1e-9)


def test_e_smooth_matches_naive_oracle():
    rng = np.random.default_rng(2)
    verts = rng.standard_normal((5, 30, 3))
    expected = sum(
        np.sqrt(((verts[i] - verts[i + 1]) ** 2).sum()) for i in range(4))
    assert e_smooth(verts) == pytest.approx(expected, abs=1e-9)


def test_e_smooth_needs_two_frames():
    with pytest.raises(ValueError):
        e_smooth(np.zeros((1, 10, 3)))


# -- weighted total ----------------------------------------------------------------

def test_total_energy_zero_weights(template, slab_field):
    frames = standing_frames(template, [(0.0, 0.0), (0.1, 0.0)])
    report = total_energy(template, frames, slab_field, EnergyWeights(0, 0, 0, 0))
    assert report.total == 0.0


def test_total_energy_is_weighted_dot_product(template, slab_field):
    frames = standing_frames(template, [(0.0, 0.0), (0.15, 0.05), (0.32, 0.1)])
    w = EnergyWeights(0.0, 1.0, 1.0, 0.25)  # first refinement stage
    report = total_energy(template, frames, slab_field, w)
    manual = (w.foot * report.foot + w.col * report.col + w.cont * report.cont
              + w.smooth * report.smooth)
    assert report.total == pytest.approx(manual, abs=1e-9)
    assert min(report.foot, report.col, report.cont, report.smooth) >= 0.0


def test_energy_weights_validation():
    with pytest.raises(ValueError):
        EnergyWeights(-1.0, 0, 0, 0)
    with pytest.raises(ValueError):
        EnergyWeights(np.inf, 0, 0, 0)


def test_energy_report_totals():
    rep = EnergyReport(foot=1.0, col=2.0, cont=3.0, smooth=4.0,
                       weights=EnergyWeights(1.0, 1.0, 1.0, 0.25))
    assert rep.total == pytest.approx(1 + 2 + 3 + 1.0, abs=1e-12)


# -- scene terms over frame blocks ---------------------------------------------------

def _sinking_vertices(template, n=2 * body.FRAME_BLOCK + 3):
    """A slow shuffle low enough that the body penetrates the slab, over more
    frames than two blocks."""
    rng = np.random.default_rng(12)
    frames = np.zeros((n, body.PARAM_DIM))
    for i in range(n):
        frames[i] = body.BodyParams(
            t=np.array([0.02 * i - 0.6, 0.01 * i, 0.8 + 0.1 * rng.random()]),
            r=np.array([1.0, 0, 0, 0, 1, 0]) + rng.standard_normal(6) * 0.02,
            beta=np.zeros(10), p=rng.standard_normal(32) * 0.05,
            h=rng.standard_normal(24) * 0.2).flat()
    return MotionSequence(frames=frames).meshes(template)


def _one_frame_at_a_time(term, vertices):
    """Reference: the term on each frame alone, values added in frame order."""
    total = 0.0
    g = np.zeros(vertices.shape)
    for i in range(len(vertices)):
        total += term(vertices[i:i + 1], g[i:i + 1], i)
    return total, g


def test_col_term_equals_its_one_frame_evaluations(template, slab_field):
    verts = _sinking_vertices(template)
    grid = slab_field.grid
    want, g_want = _one_frame_at_a_time(
        lambda v, g, i: _col_term(v, grid, g, scale=0.7), verts)
    g = np.zeros(verts.shape)
    got = _col_term(verts, grid, g, scale=0.7)
    assert want > 0.0
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert e_col(verts, grid) == got
    assert np.array_equal(g, g_want)


@pytest.mark.parametrize("frozen", [False, True])
def test_cont_term_equals_its_one_frame_evaluations(template, slab_field, frozen):
    verts = _sinking_vertices(template)
    ids = template.contact_vertex_ids()
    index = slab_field.index
    if frozen:  # targets of other vertices, so they differ from fresh queries
        corr = np.stack([index.nearest(v[ids] + 0.05)[0] for v in verts])

    def targets(frames):
        return PinnedIndex(index.points, corr[frames]) if frozen else index

    def frame(v, g, i):
        return _cont_term(v, ids, targets(slice(i, i + 1)), g, scale=1.3)

    want, g_want = _one_frame_at_a_time(frame, verts)
    g = np.zeros(verts.shape)
    got = _cont_term(verts, ids, targets(slice(None)), g, scale=1.3)
    assert want > 0.0
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert np.array_equal(g, g_want)
    if not frozen:
        assert e_cont(verts, ids, index) == got


def test_scene_energy_is_its_terms_added_in_order(template, slab_field):
    """The bytes match the four terms called in turn."""
    verts = _sinking_vertices(template, n=2 * body.FRAME_BLOCK + 6)
    left, _ = sole_centroids(template, verts)
    seg = [FootSegment(0, 30, "left", left[:30].mean(axis=0)),
           FootSegment(30, len(verts), "right", left[30:].mean(axis=0))]
    w = EnergyWeights(foot=0.7, col=1.1, cont=1.3, smooth=0.25)
    report, g = energy.scene_energy(template, verts, slab_field, w, seg, want_grad=True)
    ids = template.contact_vertex_ids()
    g_want = np.zeros(verts.shape)
    terms = [_foot_term(template, verts, seg, g_want, scale=w.foot),
             _col_term(verts, slab_field.grid, g_want, scale=w.col),
             _cont_term(verts, ids, slab_field.index, g_want, scale=w.cont),
             _smooth_term(verts, g_want, scale=w.smooth)]
    assert min(terms) > 0.0
    assert [report.foot, report.col, report.cont, report.smooth] == terms
    assert g.tobytes() == g_want.tobytes()
    value_only, none = energy.scene_energy(template, verts, slab_field, w, seg)
    assert none is None and value_only.to_dict() == report.to_dict()


def test_scene_energy_runs_on_the_calling_thread(template, slab_field, monkeypatch):
    verts = _sinking_vertices(template, n=2 * body.FRAME_BLOCK + 6)
    seg = segment_from_centroids(*sole_centroids(template, verts))
    handoffs = worker_handoffs(monkeypatch)
    report, _ = energy.scene_energy(template, verts, slab_field, EnergyWeights(), seg,
                                    want_grad=True)
    assert report.cont > 0.0 and handoffs == []


def test_contact_pulls_the_soles_alone(template, slab_field):
    """A body lying on its back has its buttocks and hands within the
    Geman-McClure scale of the slab, yet only the sole vertices take a contact
    gradient."""
    lying = body.BodyParams(t=np.array([0.0, 0.0, 0.14]), r=np.array([1.0, 0, 0, 0, 0, 1]),
                            beta=np.zeros(10), p=np.zeros(32), h=np.zeros(24)).flat()
    frames = np.tile(lying, (3, 1))
    frames[:, 0] += [0.0, 0.01, 0.02]
    verts = body.forward_batch(template, frames).vertices
    rest = template.rest_vertices
    hand_joints = [body.JOINT_NAMES.index(j) for j in ("l_wrist", "r_wrist", "l_hand", "r_hand")]
    hands = np.isin(template.skin_weights.argmax(axis=1), hand_joints)
    buttocks = (rest[:, 1] < -0.08) & (rest[:, 2] < 0.05) & (rest[:, 2] > -0.1)
    assert hands.any() and buttocks.any()
    assert verts[:, hands, 2].max() < CONTACT_SIGMA and verts[:, buttocks, 2].max() < 0.05

    report, g = energy.scene_energy(template, verts, slab_field,
                                    EnergyWeights(foot=0.0, col=0.0, cont=1.0, smooth=0.0),
                                    [], want_grad=True)
    soles = np.zeros(template.num_vertices, dtype=bool)
    soles[template.sole_vertex_ids("left")] = soles[template.sole_vertex_ids("right")] = True
    assert report.cont > 0.0
    assert not g[:, ~soles].any()
    assert np.abs(g[:, soles]).sum(axis=-1).all()


def test_pinned_index_at_fresh_targets_is_the_real_index(template, slab_field):
    """The gradient checks pin the contact targets through ``PinnedIndex``; pinned
    where a fresh query lands, it scores exactly as the real index does."""
    verts = _sinking_vertices(template, n=2 * body.FRAME_BLOCK + 6)
    assert -(-len(verts) // body.FRAME_BLOCK) == 3
    seg = segment_from_centroids(*sole_centroids(template, verts))
    w = EnergyWeights(foot=0.7, col=1.1, cont=1.3, smooth=0.25)
    fresh = slab_field.index.nearest(verts[:, template.contact_vertex_ids()].reshape(-1, 3))[0]
    want, g_want = energy.scene_energy(template, verts, slab_field, w, seg, want_grad=True)
    got, g = energy.scene_energy(template, verts, pinned_field(slab_field, fresh), w, seg,
                                 want_grad=True)
    assert want.cont > 0.0
    assert got.to_dict() == want.to_dict()
    assert g.tobytes() == g_want.tobytes()
    # other pinned targets are the ones scored
    other, _ = energy.scene_energy(template, verts, pinned_field(slab_field, np.roll(fresh, 1)),
                                   w, seg)
    assert other.cont > want.cont and other.col == want.col


def test_scene_terms_query_once_per_frame_block(template, slab_field, monkeypatch):
    verts = _sinking_vertices(template)
    T, V = verts.shape[:2]
    queried = []
    nearest = VertexIndex.nearest

    def counting_nearest(self, query):
        queried.append(len(query))
        return nearest(self, query)

    sampled = interpolated_rows(monkeypatch)
    monkeypatch.setattr(VertexIndex, "nearest", counting_nearest)
    ids = template.contact_vertex_ids()
    _col_term(verts, slab_field.grid, np.zeros(verts.shape))
    _cont_term(verts, ids, slab_field.index, np.zeros(verts.shape))
    assert len(sampled) == -(-T // body.FRAME_BLOCK) == 3
    assert sum(sampled) == _candidate_count(slab_field.grid, verts.reshape(-1, 3))
    assert 0 < sum(sampled) < T * V
    assert queried == [T * len(ids)]


# -- the culled collision term and the block-vectorized terms against loops ------------

def _candidate_count(grid, points):
    """Points whose sampled cell has a negative corner node, or whose clamped
    coordinates reach a far face of the grid, read from the node values."""
    dims = np.array(grid.dims)
    local = (np.clip(points, grid.origin, grid.upper) - grid.origin) / grid.cell
    raw = np.floor(local).astype(int)
    i = np.minimum(raw, dims - 2)
    corners = np.stack([grid.values[i[:, 0] + a, i[:, 1] + b, i[:, 2] + c]
                        for a in (0, 1) for b in (0, 1) for c in (0, 1)])
    return int(((corners < 0.0).any(axis=0) | (raw >= dims - 1).any(axis=1)).sum())


def _unculled_col_term(vertices, grid, g_vertices=None, scale=1.0):
    """The collision term sampling every vertex, as before the cell cull."""
    T, V = vertices.shape[:2]
    per_frame = np.empty(T)
    for lo in range(0, T, body.FRAME_BLOCK):
        block = vertices[lo:lo + body.FRAME_BLOCK]
        vals, grads = sample_sdf_batch(grid, block.reshape(-1, 3))
        neg = vals < 0.0
        per_frame[lo:lo + len(block)] = (
            -np.where(neg, vals, 0.0).reshape(len(block), V).sum(axis=1) / V)
        if g_vertices is not None and neg.any():
            g_vertices[lo:lo + len(block)][neg.reshape(len(block), V)] += (
                scale * (-grads[neg]) / V)
    return float(np.cumsum(np.concatenate([[0.0], per_frame]))[-1])


def _assert_col_term_matches_unculled(vertices, grid, scale=0.7):
    rng = np.random.default_rng(14)
    g0 = rng.standard_normal(vertices.shape)
    g_want, g_got = g0.copy(), g0.copy()
    want = _unculled_col_term(vertices, grid, g_want, scale)
    got = _col_term(vertices, grid, g_got, scale)
    assert got == want
    assert np.array_equal(g_got, g_want)
    assert e_col(vertices, grid) == _unculled_col_term(vertices, grid)
    return got, g_got - g0


def _as_frames(points, V):
    """Points (N, 3), padded by repeating the first, as (T, V, 3) frames."""
    pad = -len(points) % V
    return np.concatenate([points, np.repeat(points[:1], pad, axis=0)]).reshape(-1, V, 3)


def test_culled_col_term_matches_unculled_on_sinking_bodies(template, slab_field):
    verts = _sinking_vertices(template)
    value, g = _assert_col_term_matches_unculled(verts, slab_field.grid)
    assert value > 0.0 and np.any(g != 0.0)


def test_culled_col_term_matches_unculled_around_one_negative_node():
    rng = np.random.default_rng(15)
    cell = 0.25
    values = rng.uniform(0.1, 1.0, size=(8, 7, 9))
    node = np.array([3, 4, 5])
    values[tuple(node)] = -0.6
    grid = SdfGrid(origin=np.array([-1.0, 0.5, -0.75]), cell=cell, values=values)
    centre = grid.origin + node * cell
    pts = [centre[None]]
    for corner in np.ndindex(2, 2, 2):                      # inside the 8 cells around it
        off = (np.array(corner) * 2 - 1)[None] * rng.uniform(0.0, cell, size=(40, 3))
        pts.append(centre + off)
    for axis in range(3):                                   # on the faces through it and
        for shift in (-cell, 0.0, cell):                    # on the faces one cell away
            face = centre + rng.uniform(-cell, cell, size=(40, 3))
            face[:, axis] = centre[axis] + shift
            pts.append(face)
    pts.append(rng.uniform(grid.origin, grid.upper, size=(300, 3)))
    pts = np.concatenate(pts)
    verts = _as_frames(pts[rng.permutation(len(pts))], V=13)
    assert len(verts) > body.FRAME_BLOCK
    value, g = _assert_col_term_matches_unculled(verts, grid)
    assert value > 0.0 and np.any(g != 0.0)


def test_culled_col_term_matches_unculled_past_negative_boundary_nodes():
    rng = np.random.default_rng(16)
    values = rng.uniform(0.05, 0.5, size=(6, 5, 7))
    values[0, 2, 3] = values[-1, 1, 4] = values[3, -1, 0] = values[-1, -1, -1] = -0.4
    grid = SdfGrid(origin=np.array([0.3, -0.2, 1.0]), cell=0.2, values=values)
    lo, hi = grid.origin, grid.upper
    pts = [np.array([lo, hi])]
    for axis in range(3):
        for side, bound in ((-1.0, lo), (1.0, hi)):
            past = rng.uniform(lo, hi, size=(60, 3))
            past[:, axis] = bound[axis] + side * rng.uniform(0.0, 0.3, size=60)
            pts.append(past)
    pts.append(hi + rng.uniform(0.0, 0.2, size=(30, 3)))
    pts.append(lo - rng.uniform(0.0, 0.2, size=(30, 3)))
    verts = _as_frames(np.concatenate(pts), V=11)
    value, g = _assert_col_term_matches_unculled(verts, grid)
    assert value > 0.0 and np.any(g != 0.0)


def test_culled_col_term_on_an_all_positive_grid_is_zero(monkeypatch):
    rng = np.random.default_rng(17)
    grid = SdfGrid(origin=np.zeros(3), cell=0.3, values=rng.uniform(0.0, 1.0, (5, 5, 5)))
    verts = rng.uniform(-0.5, 1.7, size=(40, 9, 3))
    g0 = rng.standard_normal(verts.shape)
    g = g0.copy()
    sampled = interpolated_rows(monkeypatch)
    assert _col_term(verts, grid, g, scale=0.7) == 0.0
    assert np.array_equal(g, g0)
    # only points on or past a far face are sampled
    assert sum(sampled) == _candidate_count(grid, verts.reshape(-1, 3)) > 0
    assert _unculled_col_term(verts, grid) == 0.0


def _looped_smooth_term(vertices, g_vertices=None, scale=1.0):
    """The smoothness term as a loop over frame pairs."""
    total = 0.0
    for i in range(len(vertices) - 1):
        diff = vertices[i] - vertices[i + 1]
        n = np.linalg.norm(diff)
        total += n
        if g_vertices is not None and n > 0.0:
            g = scale * diff / n
            g_vertices[i] += g
            g_vertices[i + 1] -= g
    return total


def _looped_foot_term(template, vertices, segmentation, g_vertices=None, scale=1.0):
    """The foot term as a loop over the frames of each segment."""
    total = 0.0
    for seg in segmentation:
        if seg.side == "none":
            continue
        ids = template.sole_vertex_ids(seg.side)
        for i in range(seg.start, min(seg.end, len(vertices))):
            diff = vertices[i][ids].mean(axis=0) - seg.mean
            n = np.linalg.norm(diff)
            total += n
            if g_vertices is not None and n > 0.0:
                g_vertices[i][ids] += scale * diff / (n * len(ids))
    return total


def _assert_matches_loop(term, oracle, vertices):
    """Norms come from the same BLAS dot product as ``np.linalg.norm`` and are
    added in frame order, so value and gradient match the loop bit for bit."""
    rng = np.random.default_rng(18)
    g0 = rng.standard_normal(vertices.shape)
    g_want, g_got = g0.copy(), g0.copy()
    want = oracle(vertices, g_want, 0.7)
    got = term(vertices, g_got, 0.7)
    assert got == want
    assert np.array_equal(g_got, g_want)
    assert term(vertices) == got
    return got


def test_block_smooth_term_matches_loop_over_frame_pairs(template):
    verts = _sinking_vertices(template)
    verts[5] = verts[4]                                     # a still pair adds nothing
    assert _assert_matches_loop(_smooth_term, _looped_smooth_term, verts) > 0.0
    assert _smooth_term(verts[:1]) == 0.0


def test_vectorized_foot_term_matches_loop_over_frames(template, monkeypatch):
    verts = _sinking_vertices(template)
    T = len(verts)
    # the shuffle moves both soles faster than the fixed 0.02 m/frame threshold
    monkeypatch.setattr(energy, "STANCE_MOVE_THRESHOLD", 0.1)
    segmentation = segment_from_centroids(*sole_centroids(template, verts))
    assert {seg.side for seg in segmentation} >= {"left", "right"}
    left = sole_centroids(template, verts)[0]
    # a zero-distance frame, a no-stance run and a segment running past the last frame
    hand = [FootSegment(0, 3, "left", left[1]),
            FootSegment(3, 9, "none", None),
            FootSegment(9, T + 4, "right", np.array([0.1, -0.2, 0.05]))]
    for seg in (segmentation, hand):
        total = _assert_matches_loop(
            lambda v, g=None, scale=1.0: _foot_term(template, v, seg, g, scale),
            lambda v, g=None, scale=1.0: _looped_foot_term(template, v, seg, g, scale),
            verts)
        assert total > 0.0
    assert _foot_term(template, verts, [FootSegment(0, T, "none", None)]) == 0.0
