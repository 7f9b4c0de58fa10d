"""Exception types shared across the package."""


class SceneMotionError(Exception):
    """Base class for all package-specific errors."""


class InvalidRotationError(SceneMotionError, ValueError):
    """6D rotation input is degenerate or a matrix is not orthonormal."""


class MeshFormatError(SceneMotionError, ValueError):
    """A scene file could not be parsed; message carries line/offset info."""


class ArtefactError(SceneMotionError, ValueError):
    """A file the program wrote (weights, SDF cache, sequence, dataset) cannot
    be read, is not whole, has an unsupported version or does not fit what
    reads it."""


class EmptySceneError(SceneMotionError, ValueError):
    """Loaded or constructed scene contains no usable geometry."""


class EmptyDatasetError(SceneMotionError, ValueError):
    """Dataset generation kept no clip, so nothing could train on it."""


class ResourceLimitError(SceneMotionError, RuntimeError):
    """A configurable resource budget (e.g. SDF node count) was exceeded."""


class NumericError(SceneMotionError, ArithmeticError):
    """A non-finite value appeared where finite math was required."""


class StateError(SceneMotionError, RuntimeError):
    """Operation requires state (weights, index) that is not present."""
