"""The one base of the package's value classes: slotted records that
compare, hash and print by their fields and refuse assignment.

Each subclass declares ``__slots__`` for all of its state and ``_fields``,
the slots that the shared ``__init__`` binds, by position or by name, and
that equality, hashing and ``repr`` read, in order. A class whose
constructor checks its arguments or has defaults writes its own. A record
that holds mutable values sets ``__hash__ = None``. Nothing is generated
per class, so importing the package loads no introspection modules.
"""


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    # an index, not zip: zip's pairs add about a quarter to each Var built per parsed literal
    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            rest = fields[len(args):]
            if len(args) > len(fields) or kwargs.keys() != set(rest):
                raise TypeError(f"{type(self).__name__}() takes the fields {fields}; got "
                                f"{len(args)} by position and {list(kwargs)} by name")
            args += tuple([kwargs[name] for name in rest])
        i = 0
        for name in fields:
            object.__setattr__(self, name, args[i])
            i += 1

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
