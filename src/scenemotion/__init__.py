"""scenemotion: long-term human motion synthesis in 3D scenes.

A two-level generative hierarchy (goal-body CVAE, then route/pose sequence
networks) produces candidate motion between user-supplied goals; a staged
geometric energy optimization against a signed-distance-field scene
representation refines the whole sequence.

Importing the package sets its runtime policy first (``_runtime``): BLAS on
one thread unless the user chose otherwise, and on glibc an allocator that
keeps freed memory for the next step.
"""

from . import _runtime  # noqa: F401  (first: it must run before numpy loads)

__version__ = "0.1.0"

from .body import BodyMesh, BodyParams, BodyTemplate, build_template, default_template
from .config import RunConfig
from .energy import EnergyReport, EnergyWeights
from .field import SceneField
from .pipeline import GoalSpec
from .sequence import MotionSequence

__all__ = [
    "__version__", "BodyMesh", "BodyParams", "BodyTemplate", "build_template",
    "default_template", "RunConfig", "EnergyReport", "EnergyWeights", "SceneField",
    "GoalSpec", "MotionSequence",
]
