"""Frozen value records: the part of ``@dataclass(frozen=True)`` somrough uses.

A ``Record`` subclass declares its fields as annotations, defaults as class
attributes; inherited fields come first. Defining the class runs one
``exec`` that builds two methods: ``__init__`` sets the fields, then calls
``__post_init__`` (looked up per call) if the class has one; ``_values``
returns the field values as a tuple. Equality, hashing, ``repr`` and
frozenness are the base class's and match a dataclass's.
"""


class Field:
    __slots__ = ("name",)  # all that ``fields`` callers read

    def __init__(self, name: str):
        self.name = name


class Record:
    _fields: tuple[Field, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = [f.name for f in cls._fields]
        names += [n for n in cls.__annotations__ if n not in names]
        defaults = {n: getattr(cls, n) for n in names if hasattr(cls, n)}
        params = ", ".join(f"{n}=_d[{n!r}]" if n in defaults else n for n in names)
        body = "".join(f"    _set(self, {n!r}, {n})\n" for n in names)
        if hasattr(cls, "__post_init__"):
            body += "    self.__post_init__()\n"
        values = "".join(f"self.{n}, " for n in names)
        scope = {"_d": defaults, "_set": object.__setattr__}
        exec(
            f"def __init__(self, {params}):\n{body or '    pass'}\n"
            f"def _values(self):\n    return ({values})\n",
            scope,
        )
        for name in ("__init__", "_values"):
            scope[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, scope[name])
        cls._fields = tuple(map(Field, names))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def fields(record_or_class) -> tuple[Field, ...]:
    return record_or_class._fields


def replace(record: Record, **changes) -> Record:
    """A copy with ``changes``, built (and so checked) by ``__init__``."""
    values = {f.name: getattr(record, f.name) for f in record._fields}
    return record.__class__(**{**values, **changes})
