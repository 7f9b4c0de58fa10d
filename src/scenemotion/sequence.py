"""Motion sequences: ordered frames of flat body parameters on a 30 fps timeline."""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from . import artefact, body
from .errors import ArtefactError

SEQUENCE_FILE = "sequence.smwt"  # the container inside a sequence directory


@dataclass
class MotionSequence:
    frames: np.ndarray                       # (T, 75) flat BodyParams records
    fps: int = 30
    chunk_boundaries: list = field(default_factory=list)

    def __post_init__(self):
        fps = self.fps
        if (isinstance(fps, bool) or not isinstance(fps, numbers.Real)
                or not math.isfinite(fps) or fps <= 0):
            raise ValueError(f"fps must be a finite positive number, got {fps!r}")
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[1] != body.PARAM_DIM:
            raise ValueError(f"frames are {self.frames.shape}, expected (T, {body.PARAM_DIM})")
        if not len(self.frames):
            raise ValueError("sequence has no frames")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("sequence contains non-finite parameters")
        if not all(isinstance(b, numbers.Integral) and not isinstance(b, bool)
                   for b in self.chunk_boundaries):
            raise ValueError(f"chunk boundaries {self.chunk_boundaries} must be frame "
                             f"indices (integers)")
        if not all(0 <= b < len(self.frames) for b in self.chunk_boundaries):
            raise ValueError(f"chunk boundaries {self.chunk_boundaries} fall outside "
                             f"{len(self.frames)} frames")

    def __len__(self):
        return len(self.frames)

    @property
    def translations(self):
        return self.frames[:, body.T]

    @property
    def rotations(self):
        return self.frames[:, body.R]

    @property
    def betas(self):
        return self.frames[:, body.BETA]

    @property
    def poses(self):
        return self.frames[:, body.P]

    def copy(self):
        return MotionSequence(frames=self.frames.copy(), fps=self.fps,
                              chunk_boundaries=list(self.chunk_boundaries))

    def meshes(self, template):
        """Posed vertices for every frame, (T, V, 3)."""
        return body.forward_batch(template, self.frames).vertices


def save_sequence(dirpath, seq):
    """Write ``seq`` as one ``sequence`` container, ``SEQUENCE_FILE``, in ``dirpath``."""
    seq = seq.copy()  # checks fields assigned after construction, before any write
    os.makedirs(dirpath, exist_ok=True)
    artefact.save(os.path.join(dirpath, SEQUENCE_FILE), {"frames": seq.frames},
                  {"kind": "sequence", "fps": seq.fps,
                   "chunk_boundaries": [int(i) for i in seq.chunk_boundaries]})


def load_sequence(dirpath):
    """The sequence saved in ``dirpath``; a missing or malformed container, or
    one that is not a valid sequence, raises ArtefactError."""
    path = os.path.join(dirpath, SEQUENCE_FILE)
    arrays, meta = artefact.load(path, "sequence")
    try:
        return MotionSequence(frames=arrays["frames"], fps=meta["fps"],
                              chunk_boundaries=list(meta["chunk_boundaries"]))
    except KeyError as e:
        raise ArtefactError(f"{path}: sequence lacks {e}") from None
    except (TypeError, ValueError) as e:
        raise ArtefactError(f"{path}: {e}") from None


def export_meshes(dirpath, seq, template, every=1):
    """Per-frame OBJ export plus a frame index file; returns written paths."""
    from .scene import save_obj
    os.makedirs(dirpath, exist_ok=True)
    written = []
    mesh = body.forward_batch(template, seq.frames[::every])
    for i, vertices in zip(range(0, len(seq), every), mesh.vertices):
        path = os.path.join(dirpath, f"frame_{i:05d}.obj")
        save_obj(path, vertices, mesh.faces)
        written.append(path)
    with open(os.path.join(dirpath, "frames_index.json"), "w") as f:
        json.dump({"fps": seq.fps, "files": [os.path.basename(p) for p in written]}, f, indent=2)
    return written
