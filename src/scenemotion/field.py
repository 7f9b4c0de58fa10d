"""SceneField: one scene's mesh, sampled point cloud, SDF grid and NN index."""

from __future__ import annotations

from dataclasses import dataclass

from . import scene as scene_mod
from . import sdf as sdf_mod


@dataclass
class SceneField:
    mesh: scene_mod.SceneMesh
    cloud: scene_mod.PointCloud
    grid: sdf_mod.SdfGrid
    index: scene_mod.VertexIndex

    @staticmethod
    def build(mesh, cloud_points, cloud_seed, cell, padding=sdf_mod.DEFAULT_PADDING, grid=None,
              node_budget=sdf_mod.DEFAULT_NODE_BUDGET):
        cloud = scene_mod.sample_point_cloud(mesh, cloud_points, seed=cloud_seed)
        if grid is None:
            grid = sdf_mod.build_sdf(mesh, cell=cell, padding=padding, node_budget=node_budget)
        return SceneField(mesh=mesh, cloud=cloud, grid=grid,
                          index=scene_mod.VertexIndex(cloud.points))
