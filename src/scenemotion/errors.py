"""Exception types shared across the package."""


class SceneMotionError(Exception):
    """Base class for all package-specific errors."""


class InvalidRotationError(SceneMotionError, ValueError):
    """6D rotation input is degenerate or a matrix is not orthonormal."""


class MeshFormatError(SceneMotionError, ValueError):
    """A scene file could not be parsed; message carries line/offset info."""


class SequenceFormatError(SceneMotionError, ValueError):
    """A sequence file has an unsupported version or inconsistent contents."""


class SdfCacheError(SceneMotionError, ValueError):
    """An SDF cache file is not one, has an unsupported version or is truncated."""


class WeightFormatError(SceneMotionError, ValueError):
    """A weight file is not one, has an unsupported version, a bad manifest or is truncated."""


class EmptySceneError(SceneMotionError, ValueError):
    """Loaded or constructed scene contains no usable geometry."""


class ResourceLimitError(SceneMotionError, RuntimeError):
    """A configurable resource budget (e.g. SDF node count) was exceeded."""


class NumericError(SceneMotionError, ArithmeticError):
    """A non-finite value appeared where finite math was required."""


class StateError(SceneMotionError, RuntimeError):
    """Operation requires state (weights, index) that is not present."""
