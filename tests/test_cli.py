import json
import os
import re

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


def test_baseline_interp_encodes_the_cloud_twice(tmp_path, monkeypatch):
    # one pass samples both endpoint bodies, one fits their latents
    from scenemotion.cvae import GoalCVAE
    from scenemotion.nn.pointnet import PointEncoder
    from scenemotion.persist import save_model
    cvae_path = str(tmp_path / "model.cvae")
    save_model(cvae_path, GoalCVAE(np.random.default_rng(0), hidden=8, cond_dim=8,
                                   point_hidden=(4, 4)), "cvae")
    forward = PointEncoder.forward
    calls = []

    def counted(self, points):
        calls.append(len(points))
        return forward(self, points)

    monkeypatch.setattr(PointEncoder, "forward", counted)
    code = main(["baseline-interp", "--scene", write_floor_scene(tmp_path / "scene.obj"),
                 "--goals", write_goals(tmp_path / "goals.json"), "--cvae", cvae_path,
                 "--steps", "3", "--out", str(tmp_path / "base"),
                 "--set", "sdf_cell=0.3", "--set", "cloud_points=64"])
    assert code == 0
    assert calls == [64, 64]
    assert len(load_sequence(tmp_path / "base").frames) == 3


def test_train_cvae_on_truncated_sdf_cache_is_user_error(tmp_path, capsys):
    from scenemotion.datagen import build_dataset
    data = tmp_path / "data"
    build_dataset(str(data), body.default_template(), n_scenes=1, clips_per_scene=2, k=15,
                  master_seed=1)
    assert main(["build-sdf", "--dataset", str(data), "--set", "sdf_cell=0.3"]) == 0
    cache = data / "sdf" / "scene_000.sdf"
    cache.write_bytes(cache.read_bytes()[:-8])
    code = main(["train-cvae", "--dataset", str(data), "--out", str(tmp_path / "w.cvae"),
                 "--set", "sdf_cell=0.3"])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{cache}: truncated tensor 'values'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("stage, message", [
    ({"weights": [0.0, 1.0, 1.0, 0.25], "lr": 0}, "learning rate"),
    ({"iters": 5}, "weights"),
    ({"weights": [0.0, -1.0, 1.0, 0.25]}, "non-negative"),
    ({"weights": [0.0, 1.0, 1.0, 0.25], "iters": 0}, "iteration count"),
    ({"weights": [0.0, 1.0, 1.0, 0.25], "iters": 2.5}, "'iters' takes an int"),
    ({"weights": [0.0, 1.0, 1.0, 0.25], "iters": True}, "'iters' takes an int"),
    ({"weights": [0.0, 1.0, 1.0, 0.25], "iters": "3"}, "'iters' takes an int"),
    ({"weights": [0.0, 1.0, 1.0, 0.25], "lr": True}, "'lr' takes a number"),
    ({"weights": {"foot": 0.0, "col": True}}, "weight 'col' takes a number"),
    ({"weights": [0.0, 1.0, True, 0.25]}, "weight 2 takes a number"),
])
def test_refine_bad_schedule_is_user_error(tmp_path, capsys, monkeypatch, stage, message):
    from scenemotion import cli
    built = []
    monkeypatch.setattr(cli, "_scene_field", lambda *a: built.append(a))
    save_sequence(tmp_path / "seq", standing_sequence(4))
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps([{"weights": [0.0, 1.0, 1.0, 0.25], "iters": 1}, stage]))
    code = main(["refine", "--scene", write_floor_scene(tmp_path / "scene.obj"),
                 "--seq", str(tmp_path / "seq"), "--out", str(tmp_path / "out"),
                 "--schedule", str(schedule)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "stage 1" in err and message in err
    assert "Traceback" not in err
    assert built == []


@pytest.mark.parametrize("command", ["refine", "synthesize"])
@pytest.mark.parametrize("pair", ["refine_lr=0", "refine_iters=0"])
def test_bad_refine_config_is_user_error(tmp_path, capsys, monkeypatch, command, pair):
    from scenemotion import cli
    built = []
    monkeypatch.setattr(cli, "_scene_field", lambda *a: built.append(a))
    scene = write_floor_scene(tmp_path / "scene.obj")
    if command == "refine":
        save_sequence(tmp_path / "seq", standing_sequence(4))
        argv = ["refine", "--scene", scene, "--seq", str(tmp_path / "seq")]
    else:
        argv = ["synthesize", "--scene", scene, "--goals", write_goals(tmp_path / "goals.json"),
                "--cvae", "a.cvae", "--route", "a.route", "--pose", "a.pose"]
    code = main(argv + ["--out", str(tmp_path / "out"), "--set", pair])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key '{pair.split('=')[0]}' must be ")
    assert "Traceback" not in err
    assert built == []


@pytest.mark.parametrize("command", ["synthesize", "baseline-interp"])
@pytest.mark.parametrize("spec", [
    {"goals": [{"t": [0, 0, 0.93], "r": list(heading_to_rot6d(0.0))}]},
    {"beta": [0.0] * 10},
    {"goals": [{"t": [0, 0, 0.93], "r": [1.0, 0.0, 0.0]},
               {"t": [1, 0, 0.93], "r": list(heading_to_rot6d(0.0))}]},
    {"goals": [{"t": [0, 0, 0.93], "r": list(heading_to_rot6d(0.0)), "seed": float("inf")},
               {"t": [1, 0, 0.93], "r": list(heading_to_rot6d(0.0))}]},
], ids=["one-goal", "no-goals", "short-r", "infinite-seed"])
def test_bad_goal_spec_is_user_error(tmp_path, capsys, monkeypatch, command, spec):
    from scenemotion import cli
    built = []
    monkeypatch.setattr(cli, "_scene_field", lambda *a: built.append(a))
    goals = tmp_path / "goals.json"
    goals.write_text(json.dumps(spec))
    argv = [command, "--scene", write_floor_scene(tmp_path / "scene.obj"), "--goals", str(goals),
            "--cvae", "a.cvae", "--out", str(tmp_path / "out")]
    if command == "synthesize":
        argv += ["--route", "a.route", "--pose", "a.pose"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {goals}: ")
    assert "Traceback" not in err and "weights" not in err
    assert built == []


@pytest.mark.parametrize("pair, message", [
    ("cvae_batch=0", "'cvae_batch' must be >= 1"), ("route_epochs=-3", "'route_epochs' must be >= 1"),
    ("k=0", "'k' must be >= 2"), ("k=1", "'k' must be >= 2"),
    ("point_hidden=[16,0]", "'point_hidden' must be >= 1"),
    ("refine_lr=-1e-3", "'refine_lr' must be > 0"), ("sdf_cell=0", "'sdf_cell' must be > 0"),
    ("w_col=-0.5", "'w_col' must be >= 0"),
    ("sdf_padding=-1", "'sdf_padding' must be >= 0"), ("kl_warmup_frac=1.5", "must lie in [0, 1]"),
    ("w_kl=NaN", "'w_kl' must be finite"), ("min_displacement=Infinity", "must be finite"),
])
def test_out_of_range_override_is_rejected(pair, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig().apply_overrides([pair])
    key, value = pair.split("=")
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig.from_dict({key: json.loads(value)})


def test_edge_of_range_overrides_are_accepted():
    cfg = RunConfig().apply_overrides(["k=2", "cvae_batch=1", "w_col=0", "kl_warmup_frac=0",
                                       "kl_warmup_frac=1", "sdf_padding=0", "seed=-4",
                                       "template_seed=0"])
    assert (cfg.k, cfg.cvae_batch, cfg.w_col, cfg.kl_warmup_frac) == (2, 1, 0.0, 1.0)
    assert (cfg.seed, cfg.template_seed) == (-4, 0)


def test_train_route_with_zero_epochs_is_user_error(tmp_path, capsys):
    code = main(["train-route", "--dataset", str(tmp_path / "data"),
                 "--out", str(tmp_path / "w.route"), "--set", "route_epochs=0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key 'route_epochs' must be >= 1")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["synthesize", "baseline-interp"])
def test_directory_as_goal_spec_is_user_error(tmp_path, capsys, command):
    argv = [command, "--scene", write_floor_scene(tmp_path / "scene.obj"),
            "--goals", str(tmp_path), "--cvae", "a.cvae", "--out", str(tmp_path / "out")]
    if command == "synthesize":
        argv += ["--route", "a.route", "--pose", "a.pose"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: goal spec is not a file: {tmp_path}")
    assert "Traceback" not in err


def test_directory_without_sequence_is_user_error(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    code = main(["export-mesh", "--seq", str(tmp_path / "empty"), "--out", str(tmp_path / "m")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: missing input sequence: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["synthesize", "baseline-interp"])
def test_damaged_cvae_weights_are_user_error(tmp_path, capsys, command):
    from scenemotion.cvae import GoalCVAE
    from scenemotion.persist import save_model
    valid = tmp_path / "valid.cvae"
    save_model(str(valid), GoalCVAE(np.random.default_rng(0), hidden=8, cond_dim=8,
                                    point_hidden=(4, 4)), "cvae")
    data = valid.read_bytes()
    for name, blob in (("empty", b""), ("random", np.random.default_rng(1).bytes(300)),
                       ("truncated", data[:len(data) // 2])):
        path = tmp_path / f"{name}.cvae"
        path.write_bytes(blob)
        argv = [command, "--scene", write_floor_scene(tmp_path / "scene.obj"),
                "--goals", write_goals(tmp_path / "goals.json"), "--cvae", str(path),
                "--out", str(tmp_path / "out")]
        if command == "synthesize":
            argv += ["--route", str(valid), "--pose", str(valid), "--no-refine"]
        assert main(argv) == 1, name
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: "), name
        assert "Traceback" not in err, name


def _assert_user_error(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and "Traceback" not in err, (argv, code, err)
    return err


def _tiny_models(root):
    """Smoke-sized CVAE, RouteNet and PoseNet weight files under ``root``."""
    from scenemotion.cvae import GoalCVAE
    from scenemotion.motion_nets import PoseNet, RouteNet
    from scenemotion.persist import save_model
    rng = np.random.default_rng(0)
    paths = {}
    for kind, model in (("cvae", GoalCVAE(rng, hidden=8, cond_dim=8, point_hidden=(4, 4))),
                        ("route", RouteNet(rng, hidden=4, fc_width=8, point_hidden=(4, 4))),
                        ("pose", PoseNet(rng, hidden=4, fc_width=8, point_hidden=(4, 4)))):
        paths[kind] = str(root / f"model.{kind}")
        save_model(paths[kind], model, kind)
    return paths


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """One valid file or directory for every file argument of the CLI."""
    from scenemotion.datagen import build_dataset
    root = tmp_path_factory.mktemp("valid")
    paths = _tiny_models(root)
    save_sequence(root / "seq", standing_sequence(4))
    build_dataset(str(root / "data"), body.default_template(), n_scenes=1, clips_per_scene=2,
                  k=15, master_seed=1)
    (root / "schedule.json").write_text(json.dumps([{"weights": [0.0, 1.0, 1.0, 0.25],
                                                     "iters": 1}]))
    (root / "config.json").write_text(json.dumps({"k": 15, "sdf_cell": 0.3}))
    paths.update(scene=write_floor_scene(root / "scene.obj"),
                 goals=write_goals(root / "goals.json"), seq=str(root / "seq"),
                 data=str(root / "data"), schedule=str(root / "schedule.json"),
                 config=str(root / "config.json"))
    return paths


# flag -> (command line with {bad} where the broken input goes, key of its valid input);
# every command fails on its first input, so the others only need to be valid
_FILE_ARGUMENTS = {
    "--config": ("export-mesh --seq {seq} --config {bad}", "config"),
    "--goals": ("baseline-interp --scene {scene} --cvae {cvae} --goals {bad}", "goals"),
    "--scene": ("refine --seq {seq} --scene {bad}", "scene"),
    "--schedule": ("refine --seq {seq} --scene {scene} --schedule {bad}", "schedule"),
    "--cvae": ("baseline-interp --scene {scene} --goals {goals} --cvae {bad}", "cvae"),
    "--route": ("synthesize --scene {scene} --goals {goals} --cvae {cvae} --pose {pose} "
                "--no-refine --route {bad}", "route"),
    "--pose": ("synthesize --scene {scene} --goals {goals} --cvae {cvae} --route {route} "
               "--no-refine --pose {bad}", "pose"),
    "--seq": ("export-mesh --seq {bad}", "seq"),
    "--pred": ("evaluate --gt {seq} --pred {bad}", "seq"),
    "--gt": ("evaluate --pred {seq} --gt {bad}", "seq"),
    "--dataset": ("build-sdf --dataset {bad}", "data"),
}
# directory inputs: (index file, data file) inside them
_DIRECTORIES = {"seq": ("sequence.json", "frames.bin"),
                "data": ("manifest.json", "clips/clip_00000.bin")}


def _broken_input(valid, key, case, dst, blob=b""):
    """``valid[key]`` broken as ``case`` under ``dst``; returns the path to pass.
    A file input is replaced whole; a directory is copied with its index file
    replaced, or with its data file truncated."""
    import shutil
    src = valid[key]
    if case == "missing":
        return str(dst / "missing")
    if case == "wrong type":  # a directory for a file, a file for a directory
        return str(dst) if key not in _DIRECTORIES else valid["goals"]
    if key in _DIRECTORIES:
        index, data = _DIRECTORIES[key]
        path = dst / key
        shutil.rmtree(path, ignore_errors=True)
        shutil.copytree(src, path)
        name = data if case == "truncated" else index
        src, target = os.path.join(src, name), path / name
    else:
        path = target = dst / ("broken" + os.path.splitext(src)[1])
    if case == "truncated":
        with open(src, "rb") as f:
            blob = f.read()
        blob = blob[:len(blob) // 2]
    target.write_bytes(blob)
    return str(path)


def _argv(flag, valid, bad, out):
    line, _ = _FILE_ARGUMENTS[flag]
    argv = [tok.format(bad=bad, **valid) for tok in line.split()]
    if argv[0] != "build-sdf":
        argv += ["--out", str(out)]
    return argv + ["--set", "sdf_cell=0.3", "--set", "cloud_points=64", "--set", "refine_iters=1"]


@pytest.mark.parametrize("case", ["valid", "missing", "wrong type", "empty", "random bytes",
                                  "truncated"])
@pytest.mark.parametrize("flag", list(_FILE_ARGUMENTS))
def test_every_file_argument_rejects_a_broken_input(valid_inputs, tmp_path, capsys, flag, case):
    from hypothesis import given, settings
    from hypothesis import strategies as st
    key = _FILE_ARGUMENTS[flag][1]
    if case == "valid":  # the control: each command runs on the valid inputs
        assert main(_argv(flag, valid_inputs, valid_inputs[key], tmp_path / "out")) == 0
    elif case == "random bytes":
        @settings(max_examples=8, deadline=None, derandomize=True)
        @given(st.binary(max_size=256))
        def check(blob):
            bad = _broken_input(valid_inputs, key, case, tmp_path, blob)
            _assert_user_error(_argv(flag, valid_inputs, bad, tmp_path / "out"), capsys)
        check()
    else:
        bad = _broken_input(valid_inputs, key, case, tmp_path)
        _assert_user_error(_argv(flag, valid_inputs, bad, tmp_path / "out"), capsys)


@pytest.mark.parametrize("damage", ["not json", "no num_frames", "no frames file"])
def test_damaged_sequence_is_user_error(tmp_path, capsys, damage):
    seq = tmp_path / "seq"
    save_sequence(seq, standing_sequence(4))
    if damage == "not json":
        (seq / "sequence.json").write_text("{\"version\": 1,")
    elif damage == "no num_frames":
        index = json.loads((seq / "sequence.json").read_text())
        del index["num_frames"]
        (seq / "sequence.json").write_text(json.dumps(index))
    else:
        (seq / "frames.bin").unlink()
    err = _assert_user_error(["export-mesh", "--seq", str(seq), "--out", str(tmp_path / "m")],
                             capsys)
    assert str(seq) in err


@pytest.mark.parametrize("damage, message", [
    ("no point_hidden", "do not fit the model: KeyError('point_hidden')"),
    ("misfit tensors", "do not fit the model"),
    ("wrong kind", "holds 'route' data, expected 'cvae'"),
])
def test_ill_fitting_cvae_weights_are_user_error(tmp_path, capsys, damage, message):
    from scenemotion import artefact
    paths = _tiny_models(tmp_path)
    arrays, meta = artefact.load(paths["cvae"], "cvae")
    if damage == "no point_hidden":
        del meta["point_hidden"]
    elif damage == "misfit tensors":
        arrays = {"a": np.zeros(3)}
    else:
        arrays, meta = artefact.load(paths["route"], "route")
    artefact.save(paths["cvae"], arrays, meta)
    err = _assert_user_error(["baseline-interp", "--scene", write_floor_scene(tmp_path / "s.obj"),
                              "--goals", write_goals(tmp_path / "goals.json"),
                              "--cvae", paths["cvae"], "--out", str(tmp_path / "out")], capsys)
    assert err.startswith(f"error: {paths['cvae']}: ") and message in err


@pytest.mark.parametrize("command", ["build-sdf", "train-route"])
@pytest.mark.parametrize("manifest, message", [
    (b"{}", "manifest lacks 'k'"),
    (np.random.default_rng(5).bytes(64), "error: "),
    (json.dumps({"k": 15, "fps": 30, "scenes": [],
                 "clips": [{"id": 0, "scene": 0, "file": "c.bin"}]}).encode(), "unknown scene 0"),
    (json.dumps({"k": 15, "fps": 30, "scenes": [], "clips": []}).encode(), "lists no clips"),
], ids=["empty object", "random bytes", "unknown scene", "no clips"])
def test_damaged_dataset_manifest_is_user_error(tmp_path, capsys, command, manifest, message):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "manifest.json").write_bytes(manifest)
    argv = [command, "--dataset", str(tmp_path / "data")]
    if command == "train-route":
        argv += ["--out", str(tmp_path / "w.route")]
    assert message in _assert_user_error(argv, capsys)


def test_non_utf8_obj_scene_is_user_error(tmp_path, capsys):
    save_sequence(tmp_path / "seq", standing_sequence(4))
    scene = tmp_path / "scene.obj"
    scene.write_bytes(b"v 0 0 0\nv \xff\xfe 1 0\n")
    err = _assert_user_error(["refine", "--scene", str(scene), "--seq", str(tmp_path / "seq"),
                              "--out", str(tmp_path / "out")], capsys)
    assert err.startswith(f"error: {scene}:2: bad vertex coordinate")


_PLY_TRIANGLE_HEADER = ("ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
                        "property float z\nelement face 1\nproperty list uchar int vertex_indices\n"
                        "end_header\n0 0 0\n1 0 0\n0 1 0\n")


@pytest.mark.parametrize("name, text", [
    ("scene.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n"),
    ("scene.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 -99999999999999999999\n"),
    ("scene.ply", _PLY_TRIANGLE_HEADER + "3 0 1 99999999999999999999\n"),
], ids=["obj", "obj-negative", "ascii-ply"])
def test_face_index_past_int64_is_user_error(tmp_path, capsys, name, text):
    save_sequence(tmp_path / "seq", standing_sequence(4))
    scene = tmp_path / name
    scene.write_text(text)
    err = _assert_user_error(["refine", "--scene", str(scene), "--seq", str(tmp_path / "seq"),
                              "--out", str(tmp_path / "out")], capsys)
    assert err.startswith(f"error: {scene}: face references an out-of-range vertex")
