"""Model save/load on top of the artefact container."""

from __future__ import annotations

import numpy as np

from . import artefact
from .cvae import GoalCVAE
from .errors import ArtefactError
from .motion_nets import PoseNet, RouteNet

# kind -> (model class, constructor keys stored in the meta besides point_hidden)
_MODELS = {
    "cvae": (GoalCVAE, ("hidden", "cond_dim")),
    "route": (RouteNet, ("hidden", "fc_width")),
    "pose": (PoseNet, ("hidden", "fc_width")),
}


def save_model(path, model, kind, extra_meta=None):
    meta = {"kind": kind, "point_hidden": list(model.point_enc.point_hidden),
            **{key: getattr(model, key) for key in _MODELS[kind][1]}, **(extra_meta or {})}
    artefact.save(path, model.named_arrays(), meta)


def load_model(path, kind):
    """(model, meta) of the ``kind`` weights at ``path``; weights whose meta or
    tensors do not fit the model raise ArtefactError."""
    arrays, meta = artefact.load(path, kind)
    cls, keys = _MODELS[kind]
    try:
        # shapes are overwritten by the stored arrays
        model = cls(np.random.default_rng(0), point_hidden=tuple(meta["point_hidden"]),
                    **{key: meta[key] for key in keys})
        model.load_arrays(arrays)
    except (KeyError, TypeError, ValueError) as e:
        raise ArtefactError(f"{path}: {kind} weights do not fit the model: {e!r}") from None
    return model, meta
