"""Exception hierarchy shared by all annopipe modules."""


class AnnopipeError(Exception):
    """Base class for all errors raised by annopipe."""


class OutOfBoundsError(AnnopipeError):
    """A span or offset falls outside the text it refers to."""


class DuplicateIdError(AnnopipeError):
    """An identifier is already in use where uniqueness is required."""


class InvalidRangeError(AnnopipeError):
    """Ranges are unsorted, overlapping, or out of bounds."""


class ArityMismatchError(AnnopipeError):
    """Parallel argument lists have different lengths."""


class SelfDerivationError(AnnopipeError):
    """A provenance record lists an output among its own sources."""


class CycleDetectedError(AnnopipeError):
    """The provenance graph contains a cycle (recording bug)."""


class MalformedLineError(AnnopipeError):
    """A standoff annotation line cannot be parsed."""

    def __init__(self, line_no, reason):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class SurfaceMismatchError(AnnopipeError):
    """Entity surface text does not match the document slice."""

    def __init__(self, line_no, expected, found):
        super().__init__(
            f"line {line_no}: surface {found!r} does not match document slice {expected!r}"
        )
        self.line_no = line_no
        self.expected = expected
        self.found = found


class MalformedJsonError(AnnopipeError):
    """A JSON payload is unparsable or misses required keys."""


JSON_SCALAR = (str, int, float, bool, type(None))
_JSON_KINDS = {
    dict: "an object", list: "a list", str: "a string", int: "an integer",
    bool: "a boolean", JSON_SCALAR: "a string, number, boolean or null",
}


def expect_json(value, kind, what: str):
    """``value`` if it is of the JSON type ``kind``, else MalformedJsonError
    ``{what} must be {an object | a list | a string | an integer | a boolean |
    a string, number, boolean or null}, not {type name}``; a boolean is no integer."""
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise MalformedJsonError(f"{what} must be {_JSON_KINDS[kind]}, not {type(value).__name__}")


class EmptyProjectionError(AnnopipeError):
    """An annotation projects to no original span (pure insertion)."""


class DecodeError(AnnopipeError):
    """A file could not be decoded as UTF-8."""

    def __init__(self, filename, byte_offset):
        super().__init__(f"{filename}: invalid UTF-8 at byte {byte_offset}")
        self.filename = filename
        self.byte_offset = byte_offset


class ScopeError(AnnopipeError):
    """An entity lies outside the sentence it is evaluated against."""


class DuplicateNameError(AnnopipeError):
    """An operation name is already registered."""


class MissingInputError(AnnopipeError):
    """A pipeline run is missing one of its declared inputs."""


class StepFailureError(AnnopipeError):
    """A pipeline step failed; wraps the underlying error."""

    def __init__(self, step_index, op_name, cause):
        super().__init__(f"step {step_index} ({op_name}) failed: {cause}")
        self.step_index = step_index
        self.op_name = op_name
        self.cause = cause


class ConfigError(AnnopipeError):
    """Invalid configuration or usage."""


class MissingCounterpartError(AnnopipeError):
    """A file stem exists in only one of two paired directories."""

    def __init__(self, stem, where):
        super().__init__(f"stem {stem!r} present only in {where}")
        self.stem = stem
        self.where = where
