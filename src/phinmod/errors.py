"""Exception types shared across the package.

``ValidationError`` marks bad *input data* (malformed graphs, matrices that
fail the Weil conditions, indefinite Gram matrices, schema problems).  The
CLI maps it to exit code 2, keeping it distinct from a failed mathematical
check on well-formed input (exit code 1).

A message shows an input value, id or key through :func:`clipped`,
:func:`clipped_key` or :func:`clipped_items`, so its length stays bounded
whatever the input holds.
"""

import reprlib


class ValidationError(ValueError):
    """Input data fails a documented validity check."""


class GraphError(ValidationError):
    """Malformed or disconnected dual graph."""


class WeilValidationError(ValidationError):
    """An integer matrix fails one of the Weil-q conditions."""


class SchemaError(ValidationError):
    """An instance or report file does not match the documented schema."""


def clipped(value) -> str:
    """repr of an input value for a message, kept short: a string's first
    20 characters and the length of a longer one; the repr of any other
    value, bounded in size and depth by ``reprlib``, cut at 40 characters."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 20 else f"{value[:20]!r}... ({len(value)} characters)"
    text = reprlib.repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({type(value).__name__})"


def clipped_key(key: str) -> str:
    """A key inside a dotted field path, by the rule of :func:`clipped`
    but unquoted: itself up to 20 characters, else its first 20 and its
    length."""
    return key if len(key) <= 20 else f"{key[:20]}... ({len(key)} characters)"


def clipped_items(values, shown: int = 3) -> str:
    """The first ``shown`` of ``values``, each :func:`clipped`, and how
    many more there are."""
    values = list(values)
    text = ", ".join(map(clipped, values[:shown]))
    return text if len(values) <= shown else f"{text} and {len(values) - shown} more"
