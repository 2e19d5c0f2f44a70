"""Exception hierarchy; the CLI maps these onto exit codes."""

from contextlib import contextmanager


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


@contextmanager
def named(where, error=DataError):
    """Re-raise what reading bad input raises inside (a missing key, a value of
    the wrong type, a bad or overflowing number, JSON nested past the decoder's
    limit) as ``error``, on one line that names ``where``:
    ``<where>: missing key 'k'`` or ``<where>: <Exception>: <message>``."""
    try:
        yield
    except KeyError as e:
        raise error(f"{where}: missing key {e.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError, RecursionError) as e:
        raise error(f"{where}: {type(e).__name__}: {e}") from None
