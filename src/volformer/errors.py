"""Exception taxonomy shared across the package.

Each CLI failure class maps onto one of these; see ``volformer.cli`` for the
exit-code mapping.
"""


class ShapeError(ValueError):
    """Operands or arguments have incompatible extents."""


class StateError(RuntimeError):
    """An object was used in a mode its current state does not support."""


class ConfigError(ValueError):
    """A configuration document is malformed or inconsistent."""


class DataError(ValueError):
    """Input data is missing, malformed, or violates a documented contract."""


class PlanError(ValueError):
    """A fold plan cannot be constructed from the given records."""


class _OffsetError(ValueError):
    """Carries the byte offset of a fault in a binary file, if there is one."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ParseError(_OffsetError):
    """A volume file failed to parse."""


class CheckpointError(_OffsetError):
    """A checkpoint file is missing, corrupt, or inconsistent with its model."""
