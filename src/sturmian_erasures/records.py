"""Immutable record classes, built without the dataclasses module.

A subclass lists its fields as class annotations, in order, with optional
defaults as class attributes, exactly as for a frozen dataclass.  It gets
the same constructor, equality, hash and repr, and instances refuse
attribute assignment.  Each class's __init__ is compiled once, when the
class is created, so that construction costs what a dataclass's does; a
__post_init__ method, if present, runs at its end.
"""

__all__ = ["Record"]


class Record:
    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        body = "".join(f"    _set(self, {name!r}, {name})\n" for name in fields)
        if hasattr(cls, "__post_init__"):
            body += "    self.__post_init__()\n"
        values = "".join(f"self.{name}, " for name in fields)
        namespace = {}
        exec(f"def __init__(self, {', '.join(fields)}):\n{body}"
             f"def _values(self):\n    return ({values})\n",
             {"_set": object.__setattr__}, namespace)
        init = namespace["__init__"]
        init.__defaults__ = tuple(cls.__dict__[name] for name in fields if name in cls.__dict__)
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__, cls._values, cls._fields = init, namespace["_values"], fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
