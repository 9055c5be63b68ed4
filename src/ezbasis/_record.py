"""Frozen value records, without the `dataclasses` machinery.

`record` gives a class whose body annotates its fields what
`@dataclass(frozen=True)` gave it: an `__init__` taking the fields in
order, with the class-level defaults, that runs `__post_init__` when the
class defines one; value `__eq__` and `__hash__` over the field tuple,
against instances of the same class only; the dataclass `repr` text;
`__match_args__`; and `AttributeError` on assignment or deletion.  A
`__post_init__` that normalises a field writes it with
`object.__setattr__`, since plain assignment raises.

The methods are compiled once per class from generated source, so
construction runs one plain function with the exact signature rather
than a generic `*args, **kwargs` loop.  Importing `dataclasses` pulls
in `inspect` and costs several milliseconds on every command-line
start; this module imports nothing.
"""

from __future__ import annotations


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """Make `cls` an immutable value record over its annotated fields."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    namespace = {"_setattr": object.__setattr__}
    params = []
    for name in names:
        if name in cls.__dict__:
            namespace[f"_d_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_d_{name}")
        else:
            params.append(name)
    sets = "".join(f"    _setattr(self, {name!r}, {name})\n" for name in names)
    post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
    fields_repr = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    mine = "".join(f"self.{name}," for name in names)
    theirs = "".join(f"other.{name}," for name in names)
    source = (
        f"def __init__(self, {', '.join(params)}):\n{sets}{post}"
        "def __repr__(self):\n"
        f"    return f'{{self.__class__.__qualname__}}({fields_repr})'\n"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({mine}) == ({theirs})\n"
        "    return NotImplemented\n"
        "def __hash__(self):\n"
        f"    return hash(({mine}))\n"
    )
    exec(source, namespace)
    for method in ("__init__", "__repr__", "__eq__", "__hash__"):
        fn = namespace[method]
        fn.__qualname__ = f"{cls.__qualname__}.{method}"
        fn.__module__ = cls.__module__
        setattr(cls, method, fn)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    cls.__match_args__ = names
    return cls
