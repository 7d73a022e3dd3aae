"""Frozen value records: the part of ``@dataclass(frozen=True)`` somrough uses.

A ``Record`` subclass declares its fields as annotations, defaults as class
attributes; inherited fields come first. Defining the class runs one
``exec`` that builds two methods: ``__init__`` checks and sets the fields,
then calls ``__post_init__`` (looked up per call) if the class has one;
``_values`` returns the field values as a tuple. Equality, hashing, ``repr``
and frozenness are the base class's and match a dataclass's.

A field's annotation (its source text) is its one type declaration.
``__init__`` checks each field of form ``X``, ``X | None``, ``tuple[X, ...]``
or ``dict[str, X]``, with ``X`` one of ``int``, ``float``, ``str`` and ``bool``
or a record class (only a record class in a dict). Scalar types must match
exactly, except that an int passes as a float (so a bool or a numpy scalar is
never a number); a record passes if it is an instance of ``X``. A mismatch
raises ``UsageError`` naming the class and the field. Other fields are not
checked; ``from_json`` reads records back by the same annotations.
"""

import sys

from .errors import UsageError

# The built-in type of each scalar annotation; and per checked form, the value
# types it accepts and whether it is a tuple of such values.
SCALARS = {"int": int, "float": float, "str": str, "bool": bool}
_ACCEPTS = {k: {t, int} if t is float else {t} for k, t in SCALARS.items()}
_FORMS = {
    **{k: (ts, None) for k, ts in _ACCEPTS.items()},
    **{f"{k} | None": (ts | {type(None)}, None) for k, ts in _ACCEPTS.items()},
    **{f"tuple[{k}, ...]": (ts, tuple) for k, ts in _ACCEPTS.items()},
}


class Field:
    __slots__ = ("name", "type", "read")  # annotation text; JSON reader (None: as read)

    def __init__(self, name, type, read):
        self.name, self.type, self.read = name, type, read


def _check(record, checks, values):
    """Raise for the first value its field's annotation does not accept.
    ``accepts`` is a set of scalar types, matched exactly, or a record class
    (with ``NoneType`` for ``X | None``), matched by ``isinstance``; ``many``
    is ``tuple`` or ``dict`` for a field holding such values, else None."""
    for (name, text, accepts, many), v in zip(checks, values):
        if type(accepts) is set:
            ok = type(v) is tuple and set(map(type, v)) <= accepts if many else type(v) in accepts
        elif many is tuple:
            ok = type(v) is tuple and all(isinstance(x, accepts) for x in v)
        elif many is dict:
            ok = type(v) is dict and all(
                type(k) is str and isinstance(x, accepts) for k, x in v.items()
            )
        else:
            ok = isinstance(v, accepts)
        if not ok:
            raise UsageError(f"{type(record).__qualname__}.{name} must be {text}, got {v!r:.60}")


class Record:
    _fields: tuple[Field, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        known = {f.name for f in cls._fields}
        own = [(n, t) for n, t in cls.__annotations__.items() if n not in known]
        defined = vars(sys.modules[cls.__module__])  # the names annotations use, so far
        cls._fields += tuple(Field(n, t, _reader(t, defined)) for n, t in own)
        names = [f.name for f in cls._fields]
        defaults = {n: getattr(cls, n) for n in names if hasattr(cls, n)}
        params = ", ".join(f"{n}=_d[{n!r}]" if n in defaults else n for n in names)
        forms = ((f, _FORMS.get(f.type) or _record_form(f.type, defined)) for f in cls._fields)
        checks = tuple((f.name, f.type, *form) for f, form in forms if form)
        scope = {"_d": defaults, "_set": object.__setattr__, "_check": _check, "_checks": checks}
        checked = "".join(f"{c[0]}, " for c in checks)
        body = f"    _check(self, _checks, ({checked}))\n" if checks else ""
        body += "".join(f"    _set(self, {n!r}, {n})\n" for n in names)
        if hasattr(cls, "__post_init__"):
            body += "    self.__post_init__()\n"
        values = "".join(f"self.{n}, " for n in names)
        exec(
            f"def __init__(self, {params}):\n{body or '    pass'}\n"
            f"def _values(self):\n    return ({values})\n",
            scope,
        )
        for name in ("__init__", "_values"):
            scope[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, scope[name])

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


def from_json(cls, d: dict) -> Record:
    """Inverse of ``table.json_record``: a ``cls`` built from one JSON
    object by the field annotations: lists become tuples or frozensets, and
    objects records, or for a ``dict[str, X]`` field a dict of ``X``. Keys
    that are not fields are ignored; a missing field takes its default."""
    d = _object(d, f"a {cls.__qualname__} record")
    kw = {f.name: f.read(d[f.name]) if f.read else d[f.name] for f in cls._fields if f.name in d}
    return cls(**kw)


def _object(v, what: str) -> dict:
    """``v`` if it is a JSON object, else TypeError naming ``what``."""
    if type(v) is not dict:
        raise TypeError(f"{what} must be a JSON object, got {v!r:.60}")
    return v


def _record_class(text: str, names: dict):
    """The record class named ``text`` in ``names``, or None."""
    record = names.get(text)
    return record if isinstance(record, type) and issubclass(record, Record) else None


def _record_form(text: str, names: dict):
    """``(accepts, many)`` of a field annotated ``X``, ``X | None``,
    ``tuple[X, ...]`` or ``dict[str, X]`` for a record class ``X``, else None."""
    if text.startswith("tuple[") and text.endswith(", ...]"):
        record = _record_class(text[6:-6], names)
        return record and (record, tuple)
    if text.startswith("dict[str, ") and text.endswith("]"):
        record = _record_class(text[10:-1], names)
        return record and (record, dict)
    optional = text.endswith(" | None")
    record = _record_class(text.removesuffix(" | None"), names)
    return record and ((record, type(None)) if optional else record, None)


def _reader(text: str, names: dict):
    """The function taking a JSON value to one of a field annotated ``text``,
    or None to take the value as read. A record's name resolves in
    ``names`` when its field is declared."""
    base = text.removesuffix(" | None")
    if base.startswith("tuple"):
        item = _reader(base[6:-6], names) if base.endswith(", ...]") else None
        if item is not None:  # records, say: every item is read, so none goes unchecked
            return lambda v: tuple(map(item, v))
        return lambda v: tuple(v) if type(v) is list else v
    if base == "frozenset":
        return lambda v: frozenset(v) if type(v) is list else v
    if base.startswith("dict[str, ") and base.endswith("]"):
        item = _reader(base[10:-1], names) or (lambda x: x)
        return lambda v: {k: item(x) for k, x in _object(v, f"a {base}").items()}
    record = _record_class(base, names)
    if record is not None:
        return lambda v: from_json(record, v)
    return None
