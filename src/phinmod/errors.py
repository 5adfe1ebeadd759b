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


def digit_count_text(n: int) -> str:
    """n as its sign and its count of decimal digits, "<k-digit integer>",
    for an int too long to write: Python writes none of over 4300 digits.
    The count goes up from a bound, log10(2) > 0.301029."""
    k = (abs(n).bit_length() - 1) * 301029 // 1000000 + 1
    while abs(n) >= 10 ** k:
        k += 1
    return f"{'-' if n < 0 else ''}<{k}-digit integer>"


class _Repr(reprlib.Repr):
    """``reprlib``'s bounded repr, with an int that Python refuses to write
    shown by :func:`digit_count_text`, wherever it is nested."""

    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:  # beyond Python's int/str digit limit
            return digit_count_text(x)


_repr = _Repr().repr


def clipped(value) -> str:
    """repr of an input value for a message, kept short: a string's first
    20 characters and the length of a longer one; the repr of any other
    value, bounded in size and depth by ``reprlib``, cut at 40 characters.
    An int too long to write is shown by its digit count."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 20 else f"{value[:20]!r}... ({len(value)} characters)"
    text = _repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({type(value).__name__})"


def clipped_key(key) -> str:
    """A key inside a dotted field path, by the rule of :func:`clipped`
    but unquoted: a string itself up to 20 characters, else its first 20
    and its length; a key of another type, such as an int key of a mapping
    passed in process, as :func:`clipped` shows it."""
    if not isinstance(key, str):
        return clipped(key)
    return key if len(key) <= 20 else f"{key[:20]}... ({len(key)} characters)"


def clipped_items(values, shown: int = 3) -> str:
    """The first ``shown`` of ``values``, each :func:`clipped`, and how
    many more there are."""
    values = list(values)
    text = ", ".join(map(clipped, values[:shown]))
    return text if len(values) <= shown else f"{text} and {len(values) - shown} more"
