"""Frozen value records: the part of ``@dataclass(frozen=True)`` somrough uses.

A ``Record`` subclass declares its fields as annotations, defaults as class
attributes; inherited fields come first. Defining the class runs one
``exec`` that builds two methods: ``__init__`` checks and sets the fields,
then calls ``__post_init__`` (looked up per call) if the class has one;
``_values`` returns the field values as a tuple. Equality, hashing, ``repr``
and frozenness are the base class's and match a dataclass's.

A field's annotation (its source text) is its one type declaration, and
one parser, ``_parse``, reads it once, when the class is defined, into both
the field's check and its JSON reader. With ``X`` one of ``int``,
``float``, ``str`` and ``bool`` or a record class, and ``T`` either ``X``
or ``X | None``, ``__init__`` checks a field of form ``T``,
``tuple[T, ...]`` or, for a record class ``X``, ``dict[str, T]``. Scalar
types must match exactly, except that an int passes as a float (so a bool
or a numpy scalar is never a number); a record passes if it is an instance
of ``X``. A mismatch raises ``UsageError`` naming the class and the field.
Other forms (``frozenset``, a plain ``dict``, fixed-length and nested
tuples) are read but not checked. This module owns a record's JSON form
both ways: ``json_record`` is the writers' hook and ``from_json`` its
inverse.
"""

import sys

from .errors import UsageError

# The built-in type of each scalar annotation, and the value types it accepts.
SCALARS = {"int": int, "float": float, "str": str, "bool": bool}
_ACCEPTS = {k: {t, int} if t is float else {t} for k, t in SCALARS.items()}


class Field:
    __slots__ = ("name", "type", "accepts", "many", "read")  # annotation text, then _parse's

    def __init__(self, name, type, accepts, many, read):
        self.name, self.type, self.accepts, self.many, self.read = name, type, accepts, many, read


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
        cls._fields += tuple(Field(n, t, *_parse(t, defined)) for n, t in own)
        names = [f.name for f in cls._fields]
        defaults = {n: getattr(cls, n) for n in names if hasattr(cls, n)}
        params = ", ".join(f"{n}=_d[{n!r}]" if n in defaults else n for n in names)
        checks = tuple((f.name, f.type, f.accepts, f.many) for f in cls._fields if f.accepts)
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


def json_record(o):
    """A record as a dict of its fields in field order, a label set as a
    sorted list: the hook through which ``table.json_text`` (or
    ``json.dumps`` with this as its ``default``) reaches records. It copies
    nothing."""
    if isinstance(o, frozenset):
        return sorted(o)
    return {f.name: getattr(o, f.name) for f in o._fields}


def from_json(cls, d: dict) -> Record:
    """Inverse of ``json_record``: a ``cls`` built from one JSON object by
    the field readers: lists become tuples or frozensets, and objects
    records, or for a ``dict[str, X]`` field a dict of ``X``. A tuple field
    reads only an array and a record or dict field only an object, else
    TypeError. Keys that are not fields are ignored; a missing field takes
    its default."""
    d = _object(d, f"a {cls.__qualname__} record")
    kw = {f.name: f.read(d[f.name]) if f.read else d[f.name] for f in cls._fields if f.name in d}
    return cls(**kw)


def _object(v, what: str) -> dict:
    """``v`` if it is a JSON object, else TypeError naming ``what``."""
    if type(v) is not dict:
        raise TypeError(f"{what} must be a JSON object, got {v!r:.60}")
    return v


def _array(v, what: str):
    """``v`` if it is a JSON array (a list, or the tuple that ``marshal``
    gives for one), else TypeError naming ``what``."""
    if type(v) is not list and type(v) is not tuple:
        raise TypeError(f"{what} must be a JSON array, got {v!r:.60}")
    return v


def _parse(text: str, names: dict):
    """``(accepts, many, read)`` of a field annotated ``text``: ``accepts``
    and ``many`` as ``_check`` takes them (``accepts`` None: unchecked) and
    ``read`` the function taking a JSON value to the field's (None: as
    read). A record's name resolves in ``names`` when its field is declared."""
    base = text.removesuffix(" | None")
    if base != text:
        accepts, many, read = _parse(base, names)
        if many or not accepts:
            return None, None, read
        none = type(None)
        return accepts | {none} if type(accepts) is set else (accepts, none), None, read
    record = names.get(text)
    if isinstance(record, type) and issubclass(record, Record):
        return record, None, lambda v: from_json(record, v)
    if text.startswith("dict[str, ") and text.endswith("]"):
        accepts, many, item = _parse(text[10:-1], names)
        item = item or (lambda x: x)
        read = lambda v: {k: item(x) for k, x in _object(v, f"a {text}").items()}
        return None if many or type(accepts) is set else accepts, dict, read
    if text.startswith("tuple"):
        accepts, many, item = _parse(text[6:-6], names) if text.endswith(", ...]") else (None,) * 3
        what = f"a {text}"
        if item:  # records, say: every item is read, so none goes unchecked
            return None if many else accepts, tuple, lambda v: tuple(map(item, _array(v, what)))
        return None if many else accepts, tuple, lambda v: tuple(_array(v, what))
    if text == "frozenset":
        return None, None, lambda v: frozenset(v) if type(v) is list else v
    return _ACCEPTS.get(text), None, None
