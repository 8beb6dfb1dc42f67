"""Exception types shared across the package, the text, strict JSON integer
and float readers of the file loaders, and the array rule of the frozen value
types."""

import dataclasses

import numpy as np


class MotionSketchError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MotionSketchError, ValueError):
    """An argument is outside its mathematical domain (e.g. t not in [0, 1])."""


class CapacityError(MotionSketchError, ValueError):
    """A degree or size exceeds the configured maximum."""


class DegenerateInputError(MotionSketchError, ValueError):
    """Structurally degenerate input (duplicate nodes, all-zero map, ...)."""


class ConditioningError(MotionSketchError, ValueError):
    """A linear system is singular or too ill-conditioned to solve reliably."""

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


class ValidationError(MotionSketchError, ValueError):
    """Input data violates a documented structural invariant."""


class ParseError(MotionSketchError, ValueError):
    """A file could not be parsed; the message carries location context."""


class UnsupportedVersionError(ParseError):
    """A model file declares a format version newer than this library."""


class DivergenceError(MotionSketchError, RuntimeError):
    """Optimization produced a non-finite loss or gradient."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


def _read_text(path: str) -> str:
    """The text of the file `path`, decoded as UTF-8 (a leading byte-order
    mark is dropped). A byte that does not decode is a ParseError naming the
    file and the line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        bad = exc.object[exc.start]
        raise ParseError(f"{path}: line {line}: byte {bad:#04x} is not UTF-8") from None


def _json_int(value, field: str, where: str) -> int:
    """`value`, read from the JSON field `field` of the file `where`, as an
    int. It must be a JSON integer within int64: a bool, a float (even a
    whole one like 50.0) or a string is a ParseError naming the field, as is
    an integer outside int64."""
    if type(value) is not int or not -(2**63) <= value < 2**63:
        raise ParseError(f"{where}: {field} must be a 64-bit JSON integer, got {value!r}")
    return value


def _json_leaves(value):
    """The leaves of the nested JSON lists `value`, in order."""
    if isinstance(value, list):
        for item in value:
            yield from _json_leaves(item)
    else:
        yield value


def _json_floats(value, field: str, where: str) -> np.ndarray:
    """`value`, read from the JSON field `field` of the file `where`, as a
    float64 array. Every leaf must be a JSON number: a bool, a string or a
    null is a ParseError naming the field.

    ``np.asarray`` without a dtype finds strings (kind U), nulls (kind O) and
    lists of booleans alone (kind b), but makes booleans mixed with numbers
    the numbers 0 and 1. So each leaf is checked only when the kind is not
    numeric or the array holds an exact 0 or 1 (an integer outside int64 is
    kind O and is read as a float). A ragged list raises numpy's ValueError."""
    array = np.asarray(value)
    if array.dtype.kind not in "fiu" or np.any((array == 0) | (array == 1)):
        bad = [v for v in _json_leaves(value) if type(v) not in (int, float)]
        if bad:
            raise ParseError(f"{where}: {field} must hold JSON numbers only, got {bad[0]!r}")
        array = np.asarray(value, dtype=np.float64)
    return array.astype(np.float64, copy=False)


def _frozen_field(value, name: str, what: str, dtype=np.float64) -> np.ndarray:
    """Replace the array field `name` of the frozen dataclass `value` by a
    read-only, C-ordered copy in `dtype`, and return it. The copy means the
    value never shares memory with the caller; a non-finite entry is a
    ValidationError naming `what`. Conversion errors propagate unchanged."""
    arr = np.array(getattr(value, name), dtype=dtype, order="C")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} must be finite")
    arr.setflags(write=False)
    object.__setattr__(value, name, arr)
    return arr


def _rebuild(kind, fields: dict):
    return kind(**fields)


class _FrozenValue:
    """Base of the frozen value types: ``copy`` and ``pickle`` rebuild a value
    through its constructor from the fields its equality compares, so the
    arrays of the result are read-only copies in the value's own layout and a
    cache such as ``TrackSet._trees`` starts empty."""

    def __reduce__(self):
        fields = {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.compare}
        return _rebuild, (type(self), fields)


def _check_time_grid(times: np.ndarray, what: str) -> None:
    """Normalized times: 1-D, at least two values, strictly increasing, from
    0 to 1 within 1e-12."""
    if times.ndim != 1 or times.size < 2:
        raise ValidationError(f"{what} must be a vector of at least two values, got {times.shape}")
    if np.any(np.diff(times) <= 0):
        raise ValidationError(f"{what} must be strictly increasing")
    if abs(times[0]) > 1e-12 or abs(times[-1] - 1.0) > 1e-12:
        raise ValidationError(f"{what} must start at 0 and end at 1")
