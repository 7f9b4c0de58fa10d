"""Command-line entry point.

Subcommands cover the whole workflow: gen-data, build-sdf, train-cvae,
train-route, train-pose, synthesize, refine, baseline-interp, evaluate,
export-mesh. Every command reads a RunConfig (defaults < --config file <
--set overrides) and writes a JSON run log next to its outputs.

Exit codes: 0 success, 1 user error (bad flags, missing files), 2 internal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import replace

import numpy as np

from . import __version__, body
from .config import RunConfig
from .errors import SceneMotionError
from .sequence import SEQUENCE_FILE, export_meshes, load_sequence, save_sequence


class UserError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UserError(message)


def build_parser():
    parser = _Parser(prog="scenemotion",
                     description="Long-term human motion synthesis in 3D scenes")
    parser.add_argument("--version", action="version", version=f"scenemotion {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config field")

    p = sub.add_parser("gen-data", help="generate the synthetic scene/motion dataset")
    common(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("build-sdf", help="precompute SDF grids for a dataset")
    common(p)
    p.add_argument("--dataset", required=True)

    p = sub.add_parser("train-cvae", help="train the goal-body CVAE")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-route", help="train RouteNet (phase 1)")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-pose", help="train PoseNet on frozen RouteNet routes (phase 2)")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--route", required=True, help="trained RouteNet weights")
    p.add_argument("--out", required=True)

    p = sub.add_parser("synthesize", help="plan a long-term motion through goals")
    common(p)
    p.add_argument("--scene", required=True, help="OBJ/PLY scene mesh")
    p.add_argument("--goals", required=True, help="goal spec JSON")
    p.add_argument("--cvae", required=True)
    p.add_argument("--route", required=True)
    p.add_argument("--pose", required=True)
    p.add_argument("--out", required=True, help="output sequence directory")
    p.add_argument("--no-refine", action="store_true")

    p = sub.add_parser("refine", help="energy-refine an existing sequence")
    common(p)
    p.add_argument("--scene", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--schedule", help="JSON list of {weights, iters, lr} stages")

    p = sub.add_parser("baseline-interp", help="CVAE latent-interpolation baseline")
    common(p)
    p.add_argument("--scene", required=True)
    p.add_argument("--goals", required=True, help="goal spec JSON (first/last goals used)")
    p.add_argument("--cvae", required=True)
    p.add_argument("--steps", type=int, default=None, help="frames (default k+1)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="metrics between two sequences")
    common(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--scene", help="scene mesh for environment scores")
    p.add_argument("--out", help="report JSON path (default: print)")

    p = sub.add_parser("export-mesh", help="write per-frame OBJ meshes")
    common(p)
    p.add_argument("--seq", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--every", type=int, default=1)
    return parser


def _load_config(args):
    cfg = RunConfig()
    if getattr(args, "config", None):
        try:
            cfg = RunConfig.load_file(_require(args.config, "config file"))
        except ValueError as e:
            raise UserError(f"{args.config}: {e}") from None
    try:
        cfg.apply_overrides(getattr(args, "overrides", []))
    except ValueError as e:
        raise UserError(str(e)) from None
    return cfg


def _write_log(out_dir, command, cfg, payload):
    os.makedirs(out_dir, exist_ok=True)
    log = {"command": command, "version": __version__,
           "config": cfg.to_dict(), "config_hash": cfg.hash()}
    log.update(payload)
    path = os.path.join(out_dir, "run_log.json")
    with open(path, "w") as f:
        json.dump(log, f, indent=2, sort_keys=True)
    return path


def _require(path, what):
    """``path`` if it names a file; otherwise a UserError."""
    if not os.path.exists(path):
        raise UserError(f"missing {what}: {path}")
    if not os.path.isfile(path):
        raise UserError(f"{what} is not a file: {path}")
    return path


def _load_seq(path, what):
    """The sequence saved in directory ``path``, which must hold a SEQUENCE_FILE."""
    return load_sequence(os.path.dirname(_require(os.path.join(path, SEQUENCE_FILE), what)))


def _make_out_dir(out_dir):
    """``out_dir``, created before any other work; one that cannot be created,
    such as a path naming a file, is a user error."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise UserError(f"cannot create output directory {out_dir}: {e.strerror}") from None
    return out_dir


def _out_dir(path):
    """The directory of the ``--out`` file ``path``, made by ``_make_out_dir``."""
    return _make_out_dir(os.path.dirname(os.path.abspath(path)))


def _template(cfg):
    return body.default_template(cfg.template_seed)


def _schedule(args, cfg):
    """The refinement schedule of ``--schedule`` or of the config; a bad one
    is a user error, raised before any scene work."""
    from .refine import RefinementSchedule
    path = getattr(args, "schedule", None)
    if not path:  # RunConfig has range-checked refine_iters and refine_lr
        return RefinementSchedule.two_stage(iters=cfg.refine_iters, lr=cfg.refine_lr)
    try:
        return RefinementSchedule.from_json(_require(path, "schedule"))
    except ValueError as e:
        raise UserError(f"{path}: {e}") from None


def _goal_spec(path):
    """The goal spec of ``--goals``; a malformed one is a user error, raised
    before any weights or scene work."""
    from .pipeline import GoalSpec
    try:
        return GoalSpec.from_json(_require(path, "goal spec"))
    except KeyError as e:
        raise UserError(f"{path}: missing {e} entry") from None
    except (OverflowError, TypeError, ValueError) as e:
        raise UserError(f"{path}: {e}") from None


def _scene_mesh(path):
    from .scene import load_scene
    return load_scene(_require(path, "scene mesh"))


def _scene_field(path, cfg):
    """Every structure of the scene mesh at ``path``: cloud, SDF grid and
    nearest-point index; a command that reads one of them builds only it."""
    from .field import SceneField
    return SceneField.build(_scene_mesh(path), cloud_points=cfg.cloud_points,
                            cloud_seed=cfg.seed, cell=cfg.sdf_cell, padding=cfg.sdf_padding,
                            node_budget=cfg.sdf_node_budget)


def _scene_cloud(path, cfg):
    """The points of the cloud ``_scene_field`` would sample."""
    from .scene import sample_point_cloud
    return sample_point_cloud(_scene_mesh(path), cfg.cloud_points, seed=cfg.seed).points


def _scene_grid(path, cfg):
    """The SDF grid ``_scene_field`` would build."""
    from .sdf import build_sdf
    return build_sdf(_scene_mesh(path), cell=cfg.sdf_cell, padding=cfg.sdf_padding,
                     node_budget=cfg.sdf_node_budget)


def _save_trained(args, cfg, log, model, kind, curve, seed, **payload):
    """Write ``model`` to ``--out`` and the run log of ``train-<kind>`` beside it."""
    from .persist import save_model
    save_model(args.out, model, kind, {"loss_curve": curve, "config_hash": cfg.hash(), "seed": seed})
    _write_log(_out_dir(args.out), f"train-{kind}", cfg,
               {"outputs": [args.out], "loss_curve": curve, **payload})
    log(f"{kind} weights -> {args.out} (final loss {curve[-1]:.4f})")


# -- command implementations -----------------------------------------------------


def cmd_gen_data(args, cfg, log):
    from .datagen import build_dataset
    _make_out_dir(args.out)
    meta = build_dataset(args.out, _template(cfg), n_scenes=cfg.n_scenes,
                         clips_per_scene=cfg.clips_per_scene, k=cfg.k, fps=cfg.fps,
                         master_seed=cfg.seed, min_displacement=cfg.min_displacement, log=log)
    _write_log(args.out, "gen-data", cfg,
               {"outputs": [args.out], "clips": len(meta["clips"]),
                "scenes": len(meta["scenes"])})
    log(f"dataset written to {args.out}: {len(meta['clips'])} clips")


def cmd_build_sdf(args, cfg, log):
    from .datagen import load_dataset
    from .sdf import build_sdf, save_sdf
    dataset = load_dataset(args.dataset)
    sdf_dir = _make_out_dir(os.path.join(args.dataset, "sdf"))
    outputs = []
    for sid, rec in sorted(dataset["scenes"].items()):
        grid = build_sdf(rec["mesh"], cell=cfg.sdf_cell, padding=cfg.sdf_padding,
                         node_budget=cfg.sdf_node_budget)
        path = os.path.join(sdf_dir, f"scene_{sid:03d}.sdf")
        save_sdf(path, grid, rec["mesh"], cfg.sdf_padding)
        outputs.append(path)
        log(f"scene {sid}: SDF {grid.dims} nodes -> {path}")
    _write_log(sdf_dir, "build-sdf", cfg, {"outputs": outputs})


def cmd_train_cvae(args, cfg, log):
    from .cvae import CVAETrainer, GoalCVAE
    from .datagen import dataset_bodies, dataset_scene_fields, load_dataset
    _out_dir(args.out)
    dataset = load_dataset(args.dataset)
    fields = dataset_scene_fields(dataset, cloud_points=cfg.cloud_points,
                                  cell=cfg.sdf_cell, padding=cfg.sdf_padding,
                                  node_budget=cfg.sdf_node_budget,
                                  sdf_dir=os.path.join(args.dataset, "sdf"), log=log)
    vecs, scene_ids = dataset_bodies(dataset, stride=cfg.body_stride)
    model = GoalCVAE(np.random.default_rng(cfg.seed), hidden=cfg.hidden,
                     cond_dim=cfg.cond_dim, point_hidden=cfg.point_hidden)
    steps_per_epoch = int(np.ceil(len(vecs) / cfg.cvae_batch))
    trainer = CVAETrainer(model, _template(cfg), fields, w_kl=cfg.w_kl,
                          w_col=cfg.w_col, w_cont=cfg.w_cont,
                          warmup_frac=cfg.kl_warmup_frac,
                          total_steps=cfg.cvae_epochs * steps_per_epoch, seed=cfg.seed)
    curve = trainer.run_epochs(vecs, scene_ids, epochs=cfg.cvae_epochs,
                               batch_size=cfg.cvae_batch, lr=cfg.cvae_lr, log=log)
    _save_trained(args, cfg, log, model, "cvae", curve, cfg.seed, bodies=len(vecs))


def cmd_train_route(args, cfg, log):
    from .datagen import dataset_clouds, load_dataset
    from .motion_nets import RouteNet, train_route_net
    _out_dir(args.out)
    dataset = load_dataset(args.dataset)
    clouds = dataset_clouds(dataset, cloud_points=cfg.cloud_points)
    model = RouteNet(np.random.default_rng(cfg.seed), hidden=cfg.hidden,
                     fc_width=cfg.fc_width, point_hidden=cfg.point_hidden)
    curve = train_route_net(model, dataset["clips"], clouds, epochs=cfg.route_epochs,
                            batch_size=cfg.route_batch, lr=cfg.route_lr,
                            seed=cfg.seed, log=log)
    _save_trained(args, cfg, log, model, "route", curve, cfg.seed)


def cmd_train_pose(args, cfg, log):
    from .datagen import dataset_clouds, load_dataset
    from .motion_nets import PoseNet, train_pose_net
    from .persist import load_model
    _out_dir(args.out)
    dataset = load_dataset(args.dataset)
    clouds = dataset_clouds(dataset, cloud_points=cfg.cloud_points)
    route_model, _ = load_model(_require(args.route, "RouteNet weights"), "route")
    model = PoseNet(np.random.default_rng(cfg.seed + 1), hidden=cfg.hidden,
                    fc_width=cfg.fc_width, point_hidden=cfg.point_hidden)
    curve = train_pose_net(model, route_model, dataset["clips"], clouds,
                           epochs=cfg.pose_epochs, batch_size=cfg.pose_batch,
                           lr=cfg.pose_lr, seed=cfg.seed, log=log)
    _save_trained(args, cfg, log, model, "pose", curve, cfg.seed + 1)


def cmd_synthesize(args, cfg, log):
    from .persist import load_model
    from .pipeline import plan_long_term, validate_spec
    _make_out_dir(args.out)
    schedule = None if args.no_refine else _schedule(args, cfg)
    spec = _goal_spec(args.goals)
    cvae_model, _ = load_model(_require(args.cvae, "CVAE weights"), "cvae")
    route_model, _ = load_model(_require(args.route, "RouteNet weights"), "route")
    pose_model, _ = load_model(_require(args.pose, "PoseNet weights"), "pose")
    field = _scene_field(args.scene, cfg)
    for diag in validate_spec(spec, field.mesh):
        log(f"warning: {diag}")
    result = plan_long_term(cvae_model, route_model, pose_model, _template(cfg), spec,
                            field, k=cfg.k, schedule=schedule)
    if result.diagnostic:
        log(f"warning: {result.diagnostic}")
    save_sequence(args.out, replace(result.sequence, fps=cfg.fps))
    payload = {"outputs": [args.out], "frames": len(result.sequence),
               "pre_energy": result.pre_report.to_dict(),
               "post_energy": result.post_report.to_dict() if result.post_report else None,
               "energy_history": result.energy_history, "diagnostic": result.diagnostic}
    _write_log(args.out, "synthesize", cfg, payload)
    log(f"sequence of {len(result.sequence)} frames -> {args.out}")


def cmd_refine(args, cfg, log):
    from .refine import refine
    _make_out_dir(args.out)
    seq = _load_seq(args.seq, "input sequence")
    if len(seq) < 2:
        raise UserError(f"refine needs a sequence of at least 2 frames, got {len(seq)}")
    schedule = _schedule(args, cfg)
    field = _scene_field(args.scene, cfg)
    result = refine(_template(cfg), seq, field, schedule)
    if result.diagnostic:
        log(f"warning: {result.diagnostic}")
    save_sequence(args.out, result.sequence)
    _write_log(args.out, "refine", cfg,
               {"outputs": [args.out], "energy_history": result.history,
                "diagnostic": result.diagnostic})
    log(f"refined sequence -> {args.out}")


def cmd_baseline_interp(args, cfg, log):
    from .persist import load_model
    from .pipeline import cvae_interpolation_baseline
    _make_out_dir(args.out)
    steps = cfg.k + 1 if args.steps is None else args.steps
    if steps < 2:
        raise UserError(f"--steps must be >= 2, got {steps}")
    spec = _goal_spec(args.goals)
    cvae_model, _ = load_model(_require(args.cvae, "CVAE weights"), "cvae")
    feat = cvae_model.point_enc.forward(_scene_cloud(args.scene, cfg))[0]
    ends = [0, -1]
    start, end = cvae_model.sample_goal_bodies(spec.beta, spec.translations[ends],
                                               spec.rotations[ends], feat,
                                               [spec.seeds[i] for i in ends])
    seq = cvae_interpolation_baseline(cvae_model, start, end, feat, steps)
    save_sequence(args.out, replace(seq, fps=cfg.fps))
    _write_log(args.out, "baseline-interp", cfg, {"outputs": [args.out], "frames": steps})
    log(f"baseline sequence of {steps} frames -> {args.out}")


def cmd_evaluate(args, cfg, log):
    from .metrics import evaluate
    out_dir = _out_dir(args.out) if args.out else None
    pred = _load_seq(args.pred, "prediction sequence")
    gt = _load_seq(args.gt, "reference sequence")
    grid = _scene_grid(args.scene, cfg) if args.scene else None
    try:
        report = evaluate(pred, gt, _template(cfg), grid=grid)
    except ValueError as e:
        raise UserError(str(e)) from None
    blob = report.to_json(args.out)
    if args.out:
        _write_log(out_dir, "evaluate", cfg,
                   {"outputs": [args.out], "metrics": report.to_dict()})
        log(f"metric report -> {args.out}")
    else:
        print(blob)


def cmd_export_mesh(args, cfg, log):
    _make_out_dir(args.out)
    seq = _load_seq(args.seq, "input sequence")
    if args.every < 1:
        raise UserError(f"--every must be >= 1, got {args.every}")
    written = export_meshes(args.out, seq, _template(cfg), every=args.every)
    _write_log(args.out, "export-mesh", cfg, {"outputs": written})
    log(f"{len(written)} OBJ frames -> {args.out}")


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "build-sdf": cmd_build_sdf,
    "train-cvae": cmd_train_cvae,
    "train-route": cmd_train_route,
    "train-pose": cmd_train_pose,
    "synthesize": cmd_synthesize,
    "refine": cmd_refine,
    "baseline-interp": cmd_baseline_interp,
    "evaluate": cmd_evaluate,
    "export-mesh": cmd_export_mesh,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()

    def log(msg):
        print(msg, flush=True)

    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args)
        _COMMANDS[args.command](args, cfg, log)
        return 0
    except (UserError, SceneMotionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse --help / --version
        code = e.code if isinstance(e.code, int) else 0
        return code
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
