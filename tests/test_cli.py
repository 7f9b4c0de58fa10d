import json
import os

import numpy as np
import pytest

from scenemotion import body
from scenemotion.cli import main
from scenemotion.config import RunConfig
from scenemotion.rotation import heading_to_rot6d
from scenemotion.sequence import MotionSequence, load_sequence, save_sequence


def standing_sequence(n=4):
    frames = np.zeros((n, 75))
    for i in range(n):
        frames[i] = body.BodyParams(t=np.array([0.1 * i, 0.0, 0.93]),
                                    r=np.array([1.0, 0, 0, 0, 1, 0]),
                                    beta=np.zeros(10), p=np.zeros(32),
                                    h=np.zeros(24)).flat()
    return MotionSequence(frames=frames)


def write_floor_scene(path):
    path.write_text("v -3 -3 0\nv 3 -3 0\nv 3 3 0\nv -3 3 0\nf 1 2 3\nf 1 3 4\n")
    return str(path)


def write_goals(path):
    path.write_text(json.dumps({
        "beta": [0.0] * 10,
        "goals": [{"t": [0, 0, 0.93], "r": list(heading_to_rot6d(0.0))},
                  {"t": [1, 0, 0.93], "r": list(heading_to_rot6d(0.0))}],
    }))
    return str(path)


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_exits_1(capsys):
    assert main(["gen-data", "--out", "x", "--bogus"]) == 1


def test_version_exits_0():
    assert main(["--version"]) == 0


def test_evaluate_identical_sequences_zero_metrics(tmp_path, capsys):
    seq = standing_sequence()
    save_sequence(tmp_path / "a", seq)
    save_sequence(tmp_path / "b", seq)
    out = tmp_path / "report.json"
    code = main(["evaluate", "--pred", str(tmp_path / "a"), "--gt", str(tmp_path / "b"),
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["transl_l1_x100"] == 0.0
    assert report["mpjpe_mm"] == 0.0
    assert report["mpvpe_mm"] == 0.0


def test_evaluate_length_mismatch_is_user_error(tmp_path):
    save_sequence(tmp_path / "a", standing_sequence(3))
    save_sequence(tmp_path / "b", standing_sequence(4))
    assert main(["evaluate", "--pred", str(tmp_path / "a"), "--gt", str(tmp_path / "b")]) == 1


def test_synthesize_missing_weights_exits_1(tmp_path, capsys):
    scene = write_floor_scene(tmp_path / "scene.obj")
    code = main(["synthesize", "--scene", scene, "--goals", write_goals(tmp_path / "goals.json"),
                 "--cvae", str(tmp_path / "missing.cvae"),
                 "--route", str(tmp_path / "missing.route"),
                 "--pose", str(tmp_path / "missing.pose"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "missing" in capsys.readouterr().err


def test_synthesize_honours_sdf_node_budget(tmp_path, capsys):
    from scenemotion.cvae import GoalCVAE
    from scenemotion.motion_nets import PoseNet, RouteNet
    from scenemotion.persist import save_model
    rng = np.random.default_rng(0)
    paths = {}
    for kind, model in (("cvae", GoalCVAE(rng, hidden=8, cond_dim=8, point_hidden=(4, 4))),
                        ("route", RouteNet(rng, hidden=4, fc_width=8, point_hidden=(4, 4))),
                        ("pose", PoseNet(rng, hidden=4, fc_width=8, point_hidden=(4, 4)))):
        paths[kind] = str(tmp_path / f"model.{kind}")
        save_model(paths[kind], model, kind)
    code = main(["synthesize", "--scene", write_floor_scene(tmp_path / "scene.obj"),
                 "--goals", write_goals(tmp_path / "goals.json"), "--cvae", paths["cvae"],
                 "--route", paths["route"], "--pose", paths["pose"], "--out", str(tmp_path / "out"),
                 "--set", "sdf_node_budget=100"])
    assert code == 1
    err = capsys.readouterr().err
    assert "exceeds budget 100" in err
    assert "Traceback" not in err


def test_export_mesh(tmp_path):
    seq_dir = tmp_path / "seq"
    save_sequence(seq_dir, standing_sequence(5))
    out = tmp_path / "meshes"
    code = main(["export-mesh", "--seq", str(seq_dir), "--out", str(out), "--every", "2"])
    assert code == 0
    files = sorted(os.listdir(out))
    assert "frames_index.json" in files
    assert sum(f.endswith(".obj") for f in files) == 3
    assert (out / "run_log.json").exists()


def test_export_mesh_bad_every(tmp_path):
    seq_dir = tmp_path / "seq"
    save_sequence(seq_dir, standing_sequence(3))
    assert main(["export-mesh", "--seq", str(seq_dir), "--out", str(tmp_path / "m"),
                 "--every", "0"]) == 1


def test_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps({"k": 15, "n_scenes": 1, "clips_per_scene": 3,
                                    "cloud_points": 64}))
    out = tmp_path / "ds"
    code = main(["gen-data", "--out", str(out), "--config", str(cfg_file),
                 "--set", "clips_per_scene=2"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["k"] == 15
    assert len(manifest["clips"]) == 2
    log = json.loads((out / "run_log.json").read_text())
    assert log["config"]["clips_per_scene"] == 2
    assert log["command"] == "gen-data"


def test_bad_override_is_user_error(tmp_path):
    assert main(["gen-data", "--out", str(tmp_path / "x"), "--set", "nonsense=1"]) == 1


@pytest.mark.parametrize("key", ["lambda_t", "lambda_r", "lambda_p", "lambda_h",
                                 "refine_weights_stage1", "refine_weights_stage2"])
def test_unread_config_knobs_are_rejected(key):
    with pytest.raises(ValueError, match=key):
        RunConfig.from_dict({key: 1.0})


@pytest.mark.parametrize("record, message", [({"lambda_t": 1.0}, "unknown config key 'lambda_t'"),
                                             ({"point_hidden": 5}, "takes a list")])
def test_bad_config_file_is_user_error(tmp_path, capsys, record, message):
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(record))
    assert main(["gen-data", "--out", str(tmp_path / "x"), "--config", str(cfg_file)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("pair", ["k=[1]", "k=abc", "k=true", "k=1.5", "refine_lr=fast",
                                  "point_hidden=[32,\"a\"]"])
def test_mistyped_override_is_user_error(tmp_path, capsys, pair):
    assert main(["gen-data", "--out", str(tmp_path / "x"), "--set", pair]) == 1
    err = capsys.readouterr().err
    assert f"config key '{pair.split('=')[0]}' takes" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("record", [{"k": "abc"}, {"k": True}, {"cloud_points": 2.5},
                                    {"refine_lr": False}, {"point_hidden": [64, None]}])
def test_config_values_are_type_checked(record):
    with pytest.raises(ValueError, match="takes"):
        RunConfig.from_dict(record)


def test_config_int_value_for_float_knob_becomes_float():
    cfg = RunConfig.from_dict({"refine_lr": 1, "point_hidden": [16, 32]})
    assert cfg.refine_lr == 1.0 and isinstance(cfg.refine_lr, float)
    assert cfg.point_hidden == (16, 32)
    assert RunConfig().apply_overrides(["refine_lr=2", "k=9"]).to_dict() == \
        RunConfig.from_dict({"refine_lr": 2.0, "k": 9}).to_dict()


def test_scalar_override_of_tuple_knob_is_user_error(tmp_path):
    assert main(["gen-data", "--out", str(tmp_path / "x"), "--set", "point_hidden=5"]) == 1


def test_sequence_round_trip(tmp_path):
    seq = standing_sequence(6)
    seq.chunk_boundaries = [0, 5]
    save_sequence(tmp_path / "seq", seq, extra={"note": "test"})
    loaded = load_sequence(tmp_path / "seq")
    assert np.array_equal(loaded.frames, seq.frames)
    assert loaded.chunk_boundaries == [0, 5]
    assert loaded.fps == 30


@pytest.mark.parametrize("boundaries", [[0, 6], [-1, 5]])
def test_sequence_rejects_out_of_range_boundaries(tmp_path, boundaries):
    seq = standing_sequence(6)
    seq.chunk_boundaries = boundaries
    save_sequence(tmp_path / "seq", seq)
    with pytest.raises(ValueError, match="chunk boundaries"):
        load_sequence(tmp_path / "seq")


@pytest.mark.parametrize("key, value", [("chunk_boundaries", [0, 9]), ("version", 99)])
def test_refine_bad_sequence_file_is_user_error(tmp_path, capsys, key, value):
    save_sequence(tmp_path / "seq", standing_sequence(4))
    index_path = tmp_path / "seq" / "sequence.json"
    index = json.loads(index_path.read_text())
    index[key] = value
    index_path.write_text(json.dumps(index))
    code = main(["refine", "--scene", write_floor_scene(tmp_path / "scene.obj"),
                 "--seq", str(tmp_path / "seq"), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
