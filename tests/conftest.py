import threading

import numpy as np
import pytest

from scenemotion import body
from scenemotion.cvae import CVAETrainer, GoalCVAE
from scenemotion.datagen import (build_dataset, dataset_bodies, dataset_clouds,
                                 dataset_scene_fields, load_dataset)
from scenemotion.field import SceneField
from scenemotion.datagen import box_mesh_arrays
from scenemotion.motion_nets import PoseNet, RouteNet, train_pose_net, train_route_net
from scenemotion.scene import make_mesh

# shared desk-scale training sizes (k = 15 everywhere in tests)
K = 15
DATASET_SEED = 3
N_SCENES = 4
CLIPS_PER_SCENE = 60


# how long a thread a test started may take to finish after the test returns
THREAD_JOIN_S = 2.0


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Errors at teardown when a test leaves a thread it started alive: the
    BiLSTM's worker and every other thread a test starts must end with it."""
    before = set(threading.enumerate())
    yield
    started = [t for t in threading.enumerate() if t not in before]
    for t in started:
        t.join(THREAD_JOIN_S / len(started))
    alive = [t.name for t in started if t.is_alive()]
    assert not alive, f"threads started by the test are still alive: {alive}"


@pytest.fixture(scope="session")
def template():
    return body.default_template()


@pytest.fixture(scope="session")
def slab_field():
    """Closed 6x6x0.3 m floor slab (top at z=0): penetrations go negative."""
    verts, faces = box_mesh_arrays([0.0, 0.0, -0.15], [6.0, 6.0, 0.3])
    mesh = make_mesh(verts, faces)
    return SceneField.build(mesh, cloud_points=512, cloud_seed=1, cell=0.1, padding=0.5)


@pytest.fixture(scope="session")
def dataset(tmp_path_factory, template):
    out = tmp_path_factory.mktemp("dataset")
    build_dataset(str(out), template, n_scenes=N_SCENES, clips_per_scene=CLIPS_PER_SCENE,
                  k=K, fps=30, master_seed=DATASET_SEED)
    return load_dataset(str(out))


@pytest.fixture(scope="session")
def trained_stack(dataset, template):
    """One fixed-seed training run shared by the regression and probe tests.

    Uses the reference recipe (CVAE: lr 1e-3, batch 16, 40 epochs; RouteNet:
    lr 1e-3, batch 32, 20 epochs; PoseNet: lr 1e-3, batch 16, 20 epochs) on
    the desk-scale synthetic dataset.
    """
    import time
    timings = {}
    clouds = dataset_clouds(dataset, cloud_points=256)
    fields = dataset_scene_fields(dataset, cloud_points=256, cell=0.15, padding=0.4)
    vecs, scene_ids = dataset_bodies(dataset, stride=10)

    t0 = time.time()
    cvae = GoalCVAE(np.random.default_rng(0), hidden=128, cond_dim=128, point_hidden=(32, 64))
    steps = int(np.ceil(len(vecs) / 16)) * 40
    trainer = CVAETrainer(cvae, template, fields, w_kl=0.1, w_col=0.01, w_cont=0.01,
                          warmup_frac=0.1, total_steps=steps, seed=0)
    cvae_curve = trainer.run_epochs(vecs, scene_ids, epochs=40, batch_size=16, lr=1e-3)
    timings["cvae"] = time.time() - t0

    t0 = time.time()
    route = RouteNet(np.random.default_rng(1), hidden=64, fc_width=128, point_hidden=(16, 32))
    route_curve = train_route_net(route, dataset["clips"], clouds, epochs=20,
                                  batch_size=32, lr=1e-3, seed=0)
    timings["route"] = time.time() - t0

    route_checksum_before = route.checksum()
    t0 = time.time()
    pose = PoseNet(np.random.default_rng(2), hidden=64, fc_width=128, point_hidden=(16, 32))
    pose_curve = train_pose_net(pose, route, dataset["clips"], clouds, epochs=20,
                                batch_size=16, lr=1e-3, seed=0)
    timings["pose"] = time.time() - t0
    route_checksum_after = route.checksum()

    return {
        "dataset": dataset,
        "clouds": clouds,
        "fields": fields,
        "bodies": (vecs, scene_ids),
        "cvae": cvae,
        "route": route,
        "pose": pose,
        "curves": {"cvae": cvae_curve, "route": route_curve, "pose": pose_curve},
        "route_checksums": (route_checksum_before, route_checksum_after),
        "timings": timings,
        "init_seeds": {"cvae": 0, "route": 1, "pose": 2},
        "arch": {"cvae": dict(hidden=128, cond_dim=128, point_hidden=(32, 64)),
                 "nets": dict(hidden=64, fc_width=128, point_hidden=(16, 32))},
    }
