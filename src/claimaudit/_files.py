"""File helpers shared across the package: atomic writes, JSON-lines reads, JSON value checks and the record codec."""

from __future__ import annotations

import collections.abc
import dataclasses
import enum
import json
import operator
import os
import stat
import sys
import types
import typing
from pathlib import Path
from typing import Any, Callable, Container, Iterable, TypeVar

T = TypeVar("T")

# What each check accepts, by the Python type json.loads gives it.
_JSON_TYPES = {
    int: "an integer", float: "a number", bool: "true or false", str: "a string", list: "a list", dict: "an object"
}


def write_atomic(path: str | Path, parts: Iterable[str]) -> None:
    """Write the text parts, in order, via a same-directory temp file and rename.

    Parts are written as they are produced, so a generator streams the
    file. Readers never observe a half-written file, also when producing
    a part raises; reruns overwrite in place. A new file gets the mode
    `open(path, "w")` gives it, and a replaced one keeps its mode.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp_name = target.parent / f".{target.name}.{os.urandom(8).hex()}.tmp"
    # Created as `open` creates a file, so the umask applies (mkstemp's is 0600).
    fd = os.open(tmp_name, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            if target.exists():
                os.chmod(tmp_name, stat.S_IMODE(target.stat().st_mode))
            handle.writelines(parts)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def read_json_lines(path: str | Path, what: str, parse: Callable[[Any], T]) -> list[T]:
    """Parse each non-blank line of a JSON-lines file with `parse`, in file order.

    A line that is not JSON or nests deeper than the recursion limit, or
    that `parse` rejects with ValueError, KeyError or TypeError, raises
    ValueError("<path>:<line>: bad <what>: ...").
    """
    items = []
    with Path(path).open(encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                if line.strip():
                    items.append(parse(json.loads(line)))
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                raise ValueError(f"{path}:{line_no}: bad {what}: {exc}") from exc
    return items


def json_value(
    name: str, value: Any, kind: type, error: type[ValueError] = ValueError, among: Container[Any] | None = None
) -> Any:
    """`value` if it has the JSON type `kind`, a number as a float; else `error` naming `name`.

    A bool is neither an integer nor a number, and a float is not an integer.
    With `among` (a label set, or the ids read so far), the value must also
    be in it: the type is checked first, so a list never reaches the lookup.
    """
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise error(f"{name}: expected {_JSON_TYPES[kind]}, got {value!r}")
    if among is not None and value not in among:
        raise error(f"{name}: unknown {value!r}")
    try:
        return float(value) if kind is float else value
    except OverflowError:
        raise error(f"{name}: expected a number, got an integer too large for one") from None


def json_object(name: str, value: Any, keys: set[str], error: type[ValueError] = ValueError) -> Any:
    """`value` if it is an object with exactly the keys `keys`; else `error` naming `name`."""
    json_value(name, value, dict, error)
    missing = keys - value.keys()
    if missing:
        raise error(f"{name} missing fields: {sorted(missing)}")
    unknown = value.keys() - keys
    if unknown:
        raise error(f"{name} has unknown fields: {sorted(unknown)}")
    return value


def json_optional(
    name: str, value: Any, kind: type, error: type[ValueError] = ValueError, *, default: Any = None
) -> Any:
    """`default` if `value` is null (or absent, read as null), else `value` checked as `json_value` checks it."""
    return default if value is None else json_value(name, value, kind, error)


def json_array(
    name: str, value: Any, kind: type, error: type[ValueError] = ValueError, among: Container[Any] | None = None
) -> tuple[Any, ...]:
    """`value` as a tuple if it is a list of items that `json_value` accepts as `kind` and `among`; else `error`."""
    items = json_value(name, value, list, error)
    return tuple(json_value(f"{name}[{i}]", item, kind, error, among) for i, item in enumerate(items))


class JsonRecord:
    """Base of the frozen dataclasses stored as JSON, whose fields give both directions.

    A field is stored under its name, or under `_json_keys[name]`; a key
    of None leaves it out, and reading leaves it at its default. Its
    annotation sets its JSON form:

    - `str`, `int`, `float`, `bool`: as is, read through `json_value`
    - `X | None`: null or the form of X
    - `tuple[T, ...]`: a list of T
    - a `str` enum: its value
    - a `JsonRecord`: an object of its fields, named without a prefix
    - `Mapping[E, R]` over an enum E and a record R: an object keyed by member name, in member order

    A field in `_json_as_is` is read unchecked, for `__post_init__` to
    check. A bad value raises `_json_error` naming the field. Each class's
    plan is built on first use and kept on the class.
    """

    _json_keys: typing.Mapping[str, str | None] = {}
    _json_as_is: frozenset[str] = frozenset()
    _json_error: type[ValueError] = ValueError

    def to_json(self) -> dict[str, Any]:
        return _plan(type(self)).encode(self)

    @classmethod
    def from_json(cls: type[T], payload: Any) -> T:
        return cls._decode(payload, "")

    @classmethod
    def _decode(cls: type[T], payload: Any, prefix: str) -> T:
        """`from_json`, naming each field `prefix` + its key."""
        return _plan(cls).decode(cls.__name__, payload, cls._json_error, prefix)


class _Plan:
    """A record class's encoder, and its stored fields as (attribute, key, decoder or None)."""

    def __init__(self, cls: type[JsonRecord]) -> None:
        # Each stored field's annotation, a string in every record module
        # (`from __future__ import annotations`), is evaluated once in that module.
        module = vars(sys.modules[cls.__module__])
        coders = {
            field.name: (key, *((None, None) if field.name in cls._json_as_is else _coders(eval(field.type, module))))
            for field in dataclasses.fields(cls)
            if (key := cls._json_keys.get(field.name, field.name)) is not None
        }
        self.cls = cls
        self.fields = [(attr, key, decode) for attr, (key, _, decode) in coders.items()]
        # Generated as the dataclass methods are: a dict display of
        # attribute reads costs what a hand-written `to_json` does.
        namespace = {f"encode_{attr}": encode for attr, (_, encode, _) in coders.items()}
        items = ", ".join(
            f"{key!r}: record.{attr}" if encode is None else f"{key!r}: encode_{attr}(record.{attr})"
            for attr, (key, encode, _) in coders.items()
        )
        exec(f"def encode(record):\n    return {{{items}}}\n", namespace)
        self.encode = namespace["encode"]

    def decode(self, name: str, payload: Any, error: type[ValueError], prefix: str) -> Any:
        json_value(name, payload, dict, error)
        values = {}
        for attr, key, decode in self.fields:
            try:
                value = payload[key]
            except KeyError:
                raise error(f"{prefix}{key}: missing") from None
            values[attr] = value if decode is None else decode(prefix + key, value, error, prefix)
        return self.cls(**values)


def _plan(cls: type[JsonRecord]) -> _Plan:
    if "_json_plan" not in cls.__dict__:
        cls._json_plan = _Plan(cls)  # type: ignore[attr-defined]
    return cls._json_plan  # type: ignore[attr-defined]


def _coders(hint: Any) -> tuple[Callable[[Any], Any] | None, Callable[..., Any]]:
    """The encoder and decoder of a field annotated `hint`.

    The encoder maps a value to JSON, None meaning as it is. The decoder
    takes (field name, JSON value, error class, prefix of nested names).
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in _JSON_TYPES:
        return None, lambda name, value, error, prefix: json_value(name, value, hint, error)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and args[1] is type(None):
        encode, decode = _coders(args[0])
        return (
            None if encode is None else lambda value: None if value is None else encode(value),
            lambda name, value, error, prefix: None if value is None else decode(name, value, error, prefix),
        )
    if origin is tuple:
        encode, decode = _coders(args[0])
        return (
            list if encode is None else lambda value: list(map(encode, value)),
            lambda name, value, error, prefix: tuple(
                decode(f"{name}[{i}]", item, error, f"{name}[{i}]: ")
                for i, item in enumerate(json_value(name, value, list, error))
            ),
        )
    if origin is collections.abc.Mapping and issubclass(args[0], enum.Enum):
        names = [(member, member.name) for member in args[0]]
        encode, decode = _coders(args[1])

        def decode_mapping(name: str, value: Any, error: type[ValueError], prefix: str) -> dict[Any, Any]:
            json_value(name, value, dict, error)
            return {
                member: decode(prefix + key, value[key], error, f"{prefix}{key}: ")
                for member, key in names
                if key in value
            }

        return (lambda value: {key: encode(value[member]) for member, key in names if member in value}), decode_mapping
    if issubclass(hint, enum.Enum):
        members = {member.value: member for member in hint}

        def decode_member(name: str, value: Any, error: type[ValueError], prefix: str) -> enum.Enum:
            if json_value(name, value, str, error) not in members:
                raise error(f"{name}: expected one of {list(members)}, got {value!r}")
            return members[value]

        return operator.attrgetter("value"), decode_member
    plan = _plan(hint)
    return plan.encode, plan.decode
