"""One freeze rule for records and values, and the record base.

``Frozen`` refuses every attribute assignment and deletion, with one
``__setattr__`` that is also ``__delattr__``.  ``Record`` and ``rings._Value``
(the base of the package's slot values) derive from it, so a value shared by
reference, such as a cached ``standard_omega(n)``, cannot change.

A record class declares its fields once, as the parameters of its own
``__init__``: ``Record.__init_subclass__`` reads their names off the code
object into ``_fields``, in order.  The ``__init__`` normalises what it must,
calls ``self._store(locals())`` once, which writes each field into
``self.__dict__`` in ``_fields`` order (other locals are left out), and then
runs the class's checks.  ``Record`` supplies what the fields determine:
equality against the same class only, a hash of the field tuple and the
repr ``Name(a=1, b=2)``.  Attributes outside ``_fields`` (the values of a
``functools.cached_property``, which writes to ``__dict__`` directly) take
no part in equality, hashing or the repr.  Instances keep their
``__dict__``, so ``pickle`` and ``copy`` restore them without calling
``__setattr__``.

Plain classes cost nothing to build at import, where a code-generating
decorator compiles several methods for each class; reading the code object
needs no ``inspect`` either.
"""

from __future__ import annotations


class Frozen:
    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    __delattr__ = __setattr__


class Record(Frozen):
    _fields: tuple = ()

    def __init_subclass__(cls):
        init = cls.__dict__.get("__init__")
        if init is not None:
            code = init.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]

    def _store(self, values: dict) -> None:
        """Write each field from ``values``, the ``locals()`` of ``__init__``."""
        d = self.__dict__
        for f in self._fields:
            d[f] = values[f]

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        d = self.__dict__
        body = ", ".join([f"{f}={d[f]!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({body})"
