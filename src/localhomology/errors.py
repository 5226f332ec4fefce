"""Exception hierarchy shared across the package, and its one check of a count argument.

Two branches matter to callers: malformed input (bad files, bad simplex
descriptions) versus precondition violations on otherwise well-formed data
(a set that is not open, a disconnected graph, an unknown simplex). The CLI
maps the former to exit code 1 and the latter to exit code 2.
"""


class LocalHomologyError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInputError(LocalHomologyError):
    """Input data could not be parsed or violates basic format rules."""


class MalformedSimplexError(MalformedInputError):
    """A simplex description is invalid (empty or has repeated vertices)."""


class PreconditionError(LocalHomologyError):
    """An operation was invoked on data that fails its precondition."""


class NotOpenError(PreconditionError):
    """A simplex set required to be open is not."""


class NotClosedError(PreconditionError):
    """A simplex set required to be closed (a subcomplex) is not."""


class UnknownSimplexError(PreconditionError):
    """A simplex is not a face of the complex at hand."""


class UnknownVertexError(PreconditionError):
    """A vertex id is not present in the graph at hand."""


class DisconnectedGraphError(PreconditionError):
    """A connected graph is required but the input is disconnected."""


def _require_count(value, what: str, least: int = 0) -> None:
    """Refuse a count argument that is not an `int`, bools included, or is below `least`."""
    if type(value) is not int or value < least:  # type(True) is bool
        rule = "non-negative" if least == 0 else f"at least {least}"
        raise ValueError(f"{what} must be {rule} and an int, not {value!r}")
