"""Motion sequences: ordered frames of flat body parameters on a 30 fps timeline."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import body
from .errors import SequenceFormatError

SEQUENCE_VERSION = 1
FRAME_DTYPE = "<f8"


@dataclass
class MotionSequence:
    frames: np.ndarray                       # (T, 75) flat BodyParams records
    fps: int = 30
    chunk_boundaries: list = field(default_factory=list)

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64).reshape(-1, body.PARAM_DIM)
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("sequence contains non-finite parameters")
        if not all(0 <= b < len(self.frames) for b in self.chunk_boundaries):
            raise ValueError(f"chunk boundaries {self.chunk_boundaries} fall outside "
                             f"{len(self.frames)} frames")

    def __len__(self):
        return len(self.frames)

    @property
    def translations(self):
        return self.frames[:, 0:3]

    @property
    def rotations(self):
        return self.frames[:, 3:9]

    @property
    def betas(self):
        return self.frames[:, 9:19]

    @property
    def poses(self):
        return self.frames[:, 19:51]

    @property
    def hands(self):
        return self.frames[:, 51:75]

    def copy(self):
        return MotionSequence(frames=self.frames.copy(), fps=self.fps,
                              chunk_boundaries=list(self.chunk_boundaries))

    def meshes(self, template):
        """Posed vertices for every frame, (T, V, 3)."""
        return body.forward_batch(template, self.frames).vertices


def save_sequence(dirpath, seq, extra=None):
    """JSON index plus a raw little-endian float64 frame block."""
    os.makedirs(dirpath, exist_ok=True)
    frames_path = os.path.join(dirpath, "frames.bin")
    with open(frames_path, "wb") as f:
        f.write(np.ascontiguousarray(seq.frames, dtype=FRAME_DTYPE).tobytes())
    index = {
        "version": SEQUENCE_VERSION,
        "fps": seq.fps,
        "num_frames": int(len(seq)),
        "param_dim": body.PARAM_DIM,
        "dtype": FRAME_DTYPE,
        "frames_file": "frames.bin",
        "chunk_boundaries": [int(i) for i in seq.chunk_boundaries],
    }
    if extra:
        index["extra"] = extra
    with open(os.path.join(dirpath, "sequence.json"), "w") as f:
        json.dump(index, f, indent=2, sort_keys=True)


def load_sequence(dirpath):
    with open(os.path.join(dirpath, "sequence.json")) as f:
        index = json.load(f)
    if index.get("version") != SEQUENCE_VERSION:
        raise SequenceFormatError(f"{dirpath}: unsupported sequence version {index.get('version')}")
    raw = np.fromfile(os.path.join(dirpath, index["frames_file"]), dtype=index["dtype"])
    try:
        frames = raw.reshape(index["num_frames"], index["param_dim"]).astype(np.float64)
        return MotionSequence(frames=frames, fps=index["fps"],
                              chunk_boundaries=list(index.get("chunk_boundaries", [])))
    except ValueError as e:
        raise SequenceFormatError(f"{dirpath}: {e}") from None


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
