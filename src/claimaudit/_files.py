"""File helpers shared across the package: atomic writes, file reads, JSON value checks and the record codec."""

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
from typing import AbstractSet, Any, Callable, Container, Iterable, TypeVar

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


def read_text(path: str | Path, what: str, error: type[ValueError] = ValueError, parse: Callable[[str], T] = str) -> T:
    """`parse` of the file's UTF-8 text.

    A file that cannot be read (missing, a directory, no permission), a
    bad byte or a `parse` error raises `error("<path>: bad <what>: ...")`.
    """
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise error(f"{path}: bad {what}: {exc}") from exc


def read_json(
    path: str | Path, what: str, error: type[ValueError] = ValueError, parse: Callable[[Any], T] = lambda value: value
) -> T:
    """`parse` of the file's JSON value; text that is not JSON or nests too deep is named as `read_text` names it."""
    return read_text(path, what, error, lambda text: parse(json.loads(text)))


def read_json_lines(path: str | Path, what: str, parse: Callable[[Any], T]) -> list[T]:
    """Parse each non-blank line of a JSON-lines file with `parse`, in file order.

    A line `read_json` would reject raises ValueError("<path>:<line>: bad <what>: ..."),
    and a file that cannot be opened ValueError("<path>: bad <what>: ...").
    """
    items = []
    try:
        handle = Path(path).open("rb")
    except OSError as exc:
        raise ValueError(f"{path}: bad {what}: {exc}") from exc
    with handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                if (text := line.decode("utf-8")).strip():
                    items.append(parse(json.loads(text)))
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


def json_object(name: str, value: Any, keys: AbstractSet[str], error: type[ValueError] = ValueError) -> Any:
    """`value` if it is an object with exactly the keys `keys`; else `error` naming `name`."""
    json_value(name, value, dict, error)
    missing = keys - value.keys()
    if missing:
        raise error(f"{name} missing fields: {sorted(missing)}")
    _reject_unknown(name, value, keys, error)
    return value


def _reject_unknown(name: str, value: dict[str, Any], keys: AbstractSet[str], error: type[ValueError]) -> None:
    """`error` naming `name` and the keys of the object `value` outside `keys`, if it has any."""
    unknown = value.keys() - keys
    if unknown:
        raise error(f"{name} has unknown fields: {sorted(unknown)}")


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


def json_id_path(what: str, payload: Any, error: type[ValueError]) -> str:
    """`<what> '<id>'`, the path naming the object `payload` by its string `id`; else `error`."""
    json_value(f"{what} payload", payload, dict, error)
    return f"{what} {json_value(f'{what} id', payload.get('id'), str, error)!r}"


class JsonRecord:
    """Base of the frozen dataclasses stored as JSON, whose fields give both directions.

    A field is stored under its name, or under `_json_keys[name]`, unless
    `__init__` does not take it (`field(init=False)`). Its annotation sets
    its JSON form and how it is read:

    - `str`, `int`, `float`, `bool`: as is, read through `json_value`
    - `X | None`: null or the form of X
    - `tuple[T, ...]`: a list of T
    - a `str` enum: its value
    - a `JsonRecord`: an object of its fields
    - `Mapping[E, R]` over an enum E and a record R: an object keyed by member name, in member order

    Each value is named by its path: a field of the record at path P is
    `P: <key>`, a mapping entry `P: <member>` and a tuple item `P[i]`; a
    top-level record's path is "" (its fields are named by their keys)
    or the one `_decode` is given. A bad value, a missing key and an
    error of the record's own `__post_init__` raise `_json_error` named
    so; a key that no field (or, in a mapping, no enum member) has names
    the object and the key. Each class's plan is built on first use and
    kept on the class.
    """

    _json_keys: typing.Mapping[str, str] = {}
    _json_error: type[ValueError] = ValueError

    def to_json(self) -> dict[str, Any]:
        return _plan(type(self)).encode(self)

    @classmethod
    def from_json(cls: type[T], payload: Any) -> T:
        return cls._decode(payload, "")

    @classmethod
    def _decode(cls: type[T], payload: Any, path: str) -> T:
        """`from_json` at `path`, the object itself named `<path>: <class name>`."""
        return _plan(cls).decode(path, payload, cls._json_error, f"{path}: {cls.__name__}" if path else cls.__name__)


class _Plan:
    """A record class's encoder, its stored fields as (attribute, key, decoder), and their keys."""

    def __init__(self, cls: type[JsonRecord]) -> None:
        # Each stored field's annotation, a string in every record module
        # (`from __future__ import annotations`), is evaluated once in that module.
        module = vars(sys.modules[cls.__module__])
        coders = {
            field.name: (cls._json_keys.get(field.name, field.name), *_coders(eval(field.type, module)))
            for field in dataclasses.fields(cls)
            if field.init
        }
        self.cls = cls
        self.fields = [(attr, key, decode) for attr, (key, _, decode) in coders.items()]
        self.keys = frozenset(key for _, key, _ in self.fields)
        # Generated as the dataclass methods are: a dict display of
        # attribute reads costs what a hand-written `to_json` does.
        namespace = {f"encode_{attr}": encode for attr, (_, encode, _) in coders.items()}
        items = ", ".join(
            f"{key!r}: record.{attr}" if encode is None else f"{key!r}: encode_{attr}(record.{attr})"
            for attr, (key, encode, _) in coders.items()
        )
        exec(f"def encode(record):\n    return {{{items}}}\n", namespace)
        self.encode = namespace["encode"]

    def decode(self, path: str, payload: Any, error: type[ValueError], name: str | None = None) -> Any:
        """The record at `path`; the object itself is named `name`, by default its path."""
        name = name or path
        json_value(name, payload, dict, error)
        prefix = f"{path}: " if path else ""
        values = {}
        for attr, key, decode in self.fields:
            try:
                value = payload[key]
            except KeyError:
                raise error(f"{prefix}{key}: missing") from None
            values[attr] = decode(prefix + key, value, error)
        # Every field's key is present, so any further key is unknown.
        if len(payload) > len(values):
            _reject_unknown(name, payload, self.keys, error)
        try:
            return self.cls(**values)
        except ValueError as exc:
            raise error(f"{prefix}{exc}") from None


def _plan(cls: type[JsonRecord]) -> _Plan:
    if "_json_plan" not in cls.__dict__:
        cls._json_plan = _Plan(cls)  # type: ignore[attr-defined]
    return cls._json_plan  # type: ignore[attr-defined]


def _coders(hint: Any) -> tuple[Callable[[Any], Any] | None, Callable[..., Any]]:
    """The encoder and decoder of a field annotated `hint`.

    The encoder maps a value to JSON, None meaning as it is. The decoder
    takes (the value's path, JSON value, error class).
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in _JSON_TYPES:
        # A value of exactly the type is one `json_value` returns unchanged.
        return None, lambda path, value, error: value if type(value) is hint else json_value(path, value, hint, error)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and args[1] is type(None):
        encode, decode = _coders(args[0])
        return (
            None if encode is None else lambda value: None if value is None else encode(value),
            lambda path, value, error: None if value is None else decode(path, value, error),
        )
    if origin is tuple:
        encode, decode = _coders(args[0])
        return (
            list if encode is None else lambda value: list(map(encode, value)),
            lambda path, value, error: tuple(
                decode(f"{path}[{i}]", item, error) for i, item in enumerate(json_value(path, value, list, error))
            ),
        )
    if origin is collections.abc.Mapping and issubclass(args[0], enum.Enum):
        names = [(member, member.name) for member in args[0]]
        keys = frozenset(key for _, key in names)
        encode, decode = _coders(args[1])

        def decode_mapping(path: str, value: Any, error: type[ValueError]) -> dict[Any, Any]:
            json_value(path, value, dict, error)
            prefix = f"{path}: "
            decoded = {member: decode(prefix + key, value[key], error) for member, key in names if key in value}
            if len(value) > len(decoded):
                _reject_unknown(path, value, keys, error)
            return decoded

        return (lambda value: {key: encode(value[member]) for member, key in names if member in value}), decode_mapping
    if issubclass(hint, enum.Enum):
        members = {member.value: member for member in hint}

        def decode_member(path: str, value: Any, error: type[ValueError]) -> enum.Enum:
            if json_value(path, value, str, error) not in members:
                raise error(f"{path}: expected one of {list(members)}, got {value!r}")
            return members[value]

        return operator.attrgetter("value"), decode_member
    plan = _plan(hint)
    return plan.encode, plan.decode
