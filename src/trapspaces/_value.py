"""The one base of the package's value classes: slotted records that
compare, hash and print by their fields and refuse assignment.

Each subclass declares ``__slots__`` for all of its state and ``_fields``,
the slots that equality, hashing and ``repr`` read, in order. Its
``__init__`` sets each slot once with ``object.__setattr__``. A record
that holds mutable values sets ``__hash__ = None``. The methods are
written once here rather than generated per class, so importing the
package builds no code at run time and loads no introspection modules.
"""


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # pickle and copy restore the slots through these, past __setattr__
    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
