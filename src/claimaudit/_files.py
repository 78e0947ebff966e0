"""File helpers shared across the package: atomic writes, JSON-lines reads and JSON value checks."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

T = TypeVar("T")

# What each check accepts, by the Python type json.loads gives it.
_JSON_TYPES = {int: "an integer", float: "a number", bool: "true or false", str: "a string", list: "a list"}


def write_atomic(path: str | Path, parts: Iterable[str]) -> None:
    """Write the text parts, in order, via a same-directory temp file and rename.

    Parts are written as they are produced, so a generator streams the
    file. Readers never observe a half-written file, also when producing
    a part raises; reruns overwrite in place.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
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

    A line that is not JSON, or that `parse` rejects with ValueError,
    KeyError or TypeError, raises ValueError("<path>:<line>: bad <what>: ...").
    """
    items = []
    with Path(path).open(encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                if line.strip():
                    items.append(parse(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{line_no}: bad {what}: {exc}") from exc
    return items


def json_value(name: str, value: Any, kind: type, error: type[ValueError] = ValueError) -> Any:
    """`value` if it has the JSON type `kind`, a number as a float; else `error` naming `name`.

    A bool is neither an integer nor a number, and a float is not an integer.
    """
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise error(f"{name}: expected {_JSON_TYPES[kind]}, got {value!r}")
    return float(value) if kind is float else value


def json_optional(name: str, value: Any, kind: type, error: type[ValueError] = ValueError) -> Any:
    """None if `value` is null, else `value` checked as `json_value` checks it."""
    return None if value is None else json_value(name, value, kind, error)


def json_array(name: str, value: Any, kind: type, error: type[ValueError] = ValueError) -> tuple[Any, ...]:
    """`value` as a tuple if it is a list whose every item has the JSON type `kind`; else `error`."""
    items = json_value(name, value, list, error)
    return tuple(json_value(f"{name}[{i}]", item, kind, error) for i, item in enumerate(items))
