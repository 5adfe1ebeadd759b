"""The immutable base of the package's value types.

A record is a plain class whose ``__init__`` checks its arguments and sets
each field once through ``object.__setattr__``; after that, assigning or
deleting an attribute raises AttributeError.  ``_fields`` names the fields
in order, and ``repr`` shows them as ``Name(field=value, ...)``.  ``==`` and
``hash`` read the fields in ``_compared``, all of them unless a subclass
says otherwise, and a record equals only records of its own class.

Fields and ``functools.cached_property`` values live in the instance
``__dict__``, so ``copy``, ``deepcopy`` and ``pickle`` restore a record
without running ``__init__`` or ``__setattr__``.  A mapping field is held
as a :class:`FrozenMap`, which can be hashed, copied and pickled like the
record that holds it.
"""

from collections.abc import Mapping
from operator import attrgetter


class Record:
    _fields = ()
    _compared = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*(cls._fields if cls._compared is None else cls._compared))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FrozenMap(Mapping):
    """A read-only mapping over its own copy of a dict.  Unlike
    ``types.MappingProxyType`` it hashes (when its values do), and ``copy``,
    ``deepcopy`` and ``pickle`` restore it; ``==`` compares it with any
    mapping."""

    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def items(self):  # the dict's own view: no Python call per item
        return self._items.items()

    def __hash__(self):
        return hash(frozenset(self._items.items()))

    def __repr__(self) -> str:
        return f"FrozenMap({self._items!r})"
