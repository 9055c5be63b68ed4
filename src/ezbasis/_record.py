"""Frozen value records, without the `dataclasses` machinery.

`record` gives a class whose body annotates its fields what
`@dataclass(frozen=True)` gave it: an `__init__` taking the fields in
order, none defaulted, that runs `__post_init__` when the class defines
one; value `__eq__` and `__hash__` over the field values,
against instances of the same class only; the dataclass `repr` text;
`__match_args__`; and `AttributeError` on assignment or deletion.  A
`__post_init__` that normalises a field writes it with
`object.__setattr__`, since plain assignment raises.

Only `__init__` is compiled per class, from generated source, so
construction runs one plain function with the exact signature rather
than a generic `*args, **kwargs` loop.  `__eq__`, `__hash__` and
`__repr__` are shared by every record: they read the field values
through an `operator.attrgetter` stored on the class, and the names
through `__match_args__`.  Importing `dataclasses` pulls in `inspect`
and costs several milliseconds on every command-line start, and so did
compiling four methods per class; this module imports only `operator`.

A class that defines its own `__init__` keeps it, and one that sets
`_record_values` compares and hashes those values in place of its
fields; `coeffs.CoeffMatrix` takes `entries` but stores integer grids.
"""

from __future__ import annotations

from operator import attrgetter


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _record_eq(self, other):
    if other.__class__ is self.__class__:
        values = self._record_values
        return values(self) == values(other)
    return NotImplemented


def _record_hash(self):
    return hash(self._record_values(self))


def _record_repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({fields})"


def record(cls):
    """Make `cls` an immutable value record over its annotated fields."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    if "__init__" not in cls.__dict__:
        namespace = {"_setattr": object.__setattr__}
        sets = "".join(f"    _setattr(self, {name!r}, {name})\n" for name in names)
        post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
        exec(f"def __init__(self, {', '.join(names)}):\n{sets}{post}", namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__module__ = cls.__module__
        cls.__init__ = init
    cls.__eq__ = _record_eq
    cls.__hash__ = _record_hash
    cls.__repr__ = _record_repr
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    cls.__match_args__ = names
    if "_record_values" not in cls.__dict__:
        # the value itself for a one-field record, the tuple of values otherwise
        cls._record_values = attrgetter(*names)
    return cls
