"""The base of every value class in the package.

A value class names its fields in ``_fields``, in constructor order; its
``__init__`` checks the arguments and hands the canonical values to
``_store``, while ``_trusted`` wraps values the package built itself.  The
base gives equality and hashing over the fields (between objects of the same
class), the ``Name(field=value, ...)`` repr, and an AttributeError on
assignment or deletion: what ``dataclass(frozen=True)`` generates, without
importing ``dataclasses``, which costs a command-line process more time than
most commands spend working.
"""


class Value:
    _fields = ()

    @classmethod
    def _trusted(cls, *values):
        """An object holding ``values`` as its fields; nothing is checked."""
        obj = object.__new__(cls)
        obj._store(*values)
        return obj

    def _store(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values, strict=True))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
