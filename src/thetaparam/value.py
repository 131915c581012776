"""Base classes of the package's value objects.

A subclass lists its fields in ``_fields``, in constructor order, and its
``__init__`` stores them with ``set_field``.  Equality, hashing and repr
read that tuple, so no method is generated at import.
"""

from operator import attrgetter

set_field = object.__setattr__


class Record:
    """Equal to an object of the same class with an equal field tuple, and
    shown as Name(field=value, ...).  Mutable and unhashable."""

    __slots__ = ()
    _fields = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if not cls._fields:  # an abstract base such as Value
            return
        get = attrgetter(*cls._fields)
        key = get if len(cls._fields) > 1 else lambda x: (get(x),)
        cls._key = staticmethod(key)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return self is other or key(self) == key(other)
            return NotImplemented

        if "__eq__" not in vars(cls):
            cls.__eq__ = __eq__

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"


class Value(Record):
    """An immutable Record that hashes as its field tuple."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._key(self)
