"""Record, the base of lotoskit's value classes, syntax nodes included.

A record class lists its fields in ``__slots__``: the slots a class
declares itself are its fields, in order, except those whose names start
with an underscore (a table filled on first use).  As with a frozen
dataclass, records of one class compare and hash by their fields and
print as ``Class(field=value, ...)``, and assigning an attribute raises;
but no code is generated when a class is created.  Slots a class inherits
are kept but neither compared, hashed nor shown.  A record with a list
or dict field is unhashable, as such a frozen dataclass is.

``Record.__init__`` takes the fields in order, positionally or by name.
A class that is built often sets its slots in its own ``__init__``
through the slots' member descriptors, which takes about half the time.
"""
from __future__ import annotations

from operator import attrgetter

_setattr = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(
            name for name in cls.__dict__.get("__slots__", ()) if not name.startswith("_"))
        # the field values as a tuple; attrgetter gives a lone field bare
        if len(fields) > 1:
            cls._values = staticmethod(attrgetter(*fields))
        elif fields:
            get = attrgetter(fields[0])
            cls._values = staticmethod(lambda r: (get(r),))
        else:
            cls._values = staticmethod(lambda r: ())

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:
            args += tuple(kwargs.pop(name) for name in fields[len(args):] if name in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes the arguments {', '.join(fields)}")
        for name, value in zip(fields, args):
            _setattr(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setstate__(self, state: tuple[None, dict[str, object]]) -> None:
        # copy and pickle fill the slots of a new record through here
        for name, value in state[1].items():
            _setattr(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field '{name}'")
