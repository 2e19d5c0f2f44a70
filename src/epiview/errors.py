"""Exception hierarchy; the CLI maps these onto exit codes."""


class EpiViewError(Exception):
    """Base class for package errors."""


class UsageError(EpiViewError):
    """Bad flags or arguments (exit code 2)."""


class DataError(EpiViewError):
    """Missing or malformed inputs, config violations (exit code 3)."""


class CacheMissError(DataError):
    """A branch asked for a context feature that was never cached."""

    def __init__(self, step: int, layer: str, view):
        super().__init__(f"no cached features for step {step}, layer {layer!r} of view {view!r}")
        self.step = step
        self.layer = layer
        self.view = view


class DivergenceError(DataError):
    """A DDIM walk whose features overflowed at one of its steps."""
