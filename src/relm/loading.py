"""Input and output files: one reader, one writer and one check of JSON
values against field types.

A file that cannot be read or written, is not UTF-8 or is not JSON, and
a value whose type does not fit the field it fills, raise the caller's
own error type with the path or key in the message.  Every such type, and
every other error a user's input or settings cause, is an ``InputError``:
where an error type is defined decides whose fault it is.
"""

from __future__ import annotations

import hashlib
import json
import os
import reprlib
from contextlib import contextmanager
from dataclasses import fields
from enum import Enum
from functools import cache
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, get_args, get_origin, get_type_hints


class InputError(Exception):
    """Marks an error type as the fault of the input, not of the program;
    each such type also keeps its own base, such as ``ValueError``."""


@contextmanager
def _os_errors(action: str, path: str | Path, error: type[Exception]) -> Iterator[None]:
    try:
        yield
    except OSError as exc:
        raise error(f"cannot {action} {path}: {exc.strerror or exc}") from exc


def read_file(path: str | Path, error: type[Exception]) -> str:
    """The text of a UTF-8 file."""
    with _os_errors("read", path, error):
        try:
            return Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text: {exc}") from exc


def write_file(path: str | Path, text: str | Iterable[str], error: type[Exception]) -> None:
    """Write UTF-8 text, given whole or as an iterable of chunks, to a file
    atomically: a temporary file beside it, synced to disk, then
    ``os.replace``, so a reader never sees half a file.  Chunks are written
    as they come, so the whole text need never be held at once.

    The rename replaces the path itself: a symlink there becomes a regular
    file with default permissions."""
    path = Path(path)
    temp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    with _os_errors("write", path, error):
        try:
            with open(temp, "w", encoding="utf-8", newline="") as handle:
                handle.writelines((text,) if isinstance(text, str) else text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, path)
        finally:
            temp.unlink(missing_ok=True)


def make_dir(path: str | Path, error: type[Exception]) -> None:
    """Create a directory and its parents unless it exists."""
    with _os_errors("create directory", path, error):
        Path(path).mkdir(parents=True, exist_ok=True)


def decode_json(text: str, where: str, error: type[Exception]) -> Any:
    """One JSON document; where names it in the error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where}: not valid JSON: {exc}") from exc


def read_json(path: str | Path, error: type[Exception]) -> Any:
    """The JSON document in a UTF-8 file."""
    return decode_json(read_file(path, error), str(path), error)


def read_json_and_digest(path: str | Path, error: type[Exception]) -> tuple[Any, str]:
    """The JSON document in a UTF-8 file and the SHA-256 hex digest of its
    bytes, from one read."""
    with _os_errors("read", path, error):
        data = Path(path).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc
    del data  # only the text is parsed: hold one copy of the file, as read_json does
    return decode_json(text, str(path), error), digest


def text_builder(kind: Any) -> Callable[[str], Any] | None:
    """How a field of type kind is built from a JSON string, or None.

    Path and the enums take the string; a class with a parse method parses it."""
    if isinstance(kind, type) and issubclass(kind, (Path, Enum)):
        return kind
    return getattr(kind, "parse", None)


def convert(value: Any, kind: Any, key: str, error: type[Exception]) -> Any:
    """A JSON value as a field of annotated type kind; key spells it in errors.

    X | None takes null, tuple[X, ...] a list, dict[str, X] an object and
    a type text_builder knows a string.  Any other type must match
    exactly (type(), not isinstance(): a JSON true is not an integer),
    but a float field keeps a JSON integer as given.
    """
    try:
        return _converter(kind)(value)
    except _Mismatch as exc:
        raise error(f"{key}{exc}") from None


def convert_fields(data: dict, cls: type, prefix: str, error: type[Exception]) -> dict:
    """A JSON object's values as fields of dataclass cls; prefix + name spells each key."""
    checks = _field_checks(cls)
    unknown = data.keys() - checks.keys()
    if unknown:
        raise error(f"{prefix}unknown keys {sorted(unknown)}")
    values = {}
    try:
        for name, value in data.items():
            values[name] = checks[name](value)
    except _Mismatch as exc:
        raise error(f"{prefix}{name}{exc}") from None
    return values


@cache
def _field_checks(cls: type) -> dict[str, Callable[[Any], Any]]:
    """A converter per field a file may fill; ``metadata={"file": False}``
    marks a field only the program sets."""
    hints = get_type_hints(cls)
    return {f.name: _converter(hints[f.name]) for f in fields(cls) if f.metadata.get("file", True)}


class _Mismatch(Exception):
    """A value that does not fit; its text follows the key in the message."""


def _mismatch(value: Any, kind: type) -> _Mismatch:
    wanted = {list: "a JSON list", dict: "a JSON object"}.get(kind, f"of type {kind.__name__}")
    return _Mismatch(f" must be {wanted}, got {reprlib.repr(value)}")


def _each(check: Callable[[Any], Any], items: Iterable[tuple[Any, Any]]) -> Iterator[Any]:
    for label, value in items:
        try:
            yield check(value)
        except _Mismatch as exc:
            raise _Mismatch(f"[{label!r}]{exc}") from None


# built once per type, and a key is spelled only for a value that fails:
# loaders check every field of every record
@cache
def _converter(kind: Any) -> Callable[[Any], Any]:
    args, origin = get_args(kind), get_origin(kind)
    if type(None) in args:  # X | None
        (inner,) = set(args) - {type(None)}
        check = _converter(inner)
        return lambda value: None if value is None else check(value)
    if origin is tuple:  # tuple[X, ...]
        item = _converter(args[0])

        def to_tuple(value: Any) -> tuple:
            if type(value) is not list:
                raise _mismatch(value, list)
            try:
                return tuple(map(item, value))
            except _Mismatch:  # again, naming the item that fails
                return tuple(_each(item, enumerate(value)))

        return to_tuple
    if origin is dict:  # dict[str, X]; JSON object keys are always strings
        entry = _converter(args[1])

        def to_dict(value: Any) -> dict:
            if type(value) is not dict:
                raise _mismatch(value, dict)
            return dict(zip(value, _each(entry, value.items())))

        return to_dict
    build = text_builder(kind)
    if build is None:
        def exact(value: Any) -> Any:
            if type(value) is kind or (kind is float and type(value) is int):
                return value
            raise _mismatch(value, kind)

        return exact

    def from_text(value: Any) -> Any:
        if type(value) is not str:
            raise _mismatch(value, str)
        try:
            return build(value)
        except ValueError as exc:
            enum = issubclass(kind, Enum)
            valid = f"; valid: {sorted(m.value for m in kind)}" if enum else ""
            raise _Mismatch(f": {exc}{valid}") from None

    return from_text
