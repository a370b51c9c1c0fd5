"""Versioned on-disk containers for trained artifacts.

A container is a one-line JSON header, a newline, then the body:

    {"digest":"<sha256 hex>","format_version":4,"kind":"...","metadata":{...}}
    <canonical JSON body>

The body is serialized once, as canonical JSON (sorted keys, no spaces),
and the digest covers exactly those bytes; it is checked before the body
is parsed. One codec walks the artifact's dataclass fields and type
hints. A dict becomes a list of [key, value] pairs, which keeps its
order. An ndarray becomes an array record,
{"dtype": "<i4" or "<f8", "shape": [...], "zlib": base64(zlib(bytes))},
"<i4" exactly when every value casts to int32 and back to the same
float64 bytes (no -0.0, NaN or inf), as a dataset's do; every array loads
as float64 with its bits. Decoding checks every field's type and each
array's byte count, inflating at most a byte past it, then builds each
artifact, which checks itself; any mismatch is a CorruptContainerError.
save rebuilds each artifact before encoding it. Format 4 only added the
"<i4" record, so load reads formats 3 and 4; an older one (format 1 was
one JSON document) is rejected by its format_version.
Writes go to a fresh temp file in the target directory, are fsynced and
then renamed into place, and the directory is fsynced after the rename,
so a crash never leaves a half-written model.

The same field walk decodes training configs: decode_config checks a
JSON config object's keys and value types against a config dataclass.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import hashlib
import json
import math
import os
import types
import typing
import zlib

import numpy as np

from .datagen import Dataset
from .hierarchy import HierarchyModel
from .preprocess import ReductionPipeline


FORMAT_VERSION = 4
READ_FORMATS = (3, 4)
_ITEM_BYTES = {"<f8": 8, "<i4": 4}  # per array record dtype

# zlib level 1: on a 1500-row corpus, higher levels shrink the file by a
# few percent and make the save several times slower
_ZLIB_LEVEL = 1

# one kind per artifact a command writes: generate, reduce --out and train
_KINDS = {
    "dataset": Dataset,
    "pipeline": ReductionPipeline,
    "hierarchy": HierarchyModel,
}

class PersistenceError(Exception):
    pass


class CorruptContainerError(PersistenceError):
    """Unparseable container, a body that fails its digest, or a body
    whose content does not fit the artifact it claims to be."""


class FormatVersionError(PersistenceError):
    """Container written by an unknown format version."""


class KindMismatchError(PersistenceError):
    """Container holds a different payload kind than the caller expects."""


# ---------------------------------------------------------------------------
# Codec: one walk over dataclass fields and their type hints


@functools.cache
def _fields(cls) -> tuple[tuple[str, object], ...]:
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


def _encode(value):
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, np.ndarray):
        a = np.ascontiguousarray(value, dtype="<f8")
        if not a.size or a.flat[0].is_integer():  # a trained net's first weight settles it at once
            with np.errstate(invalid="ignore"):  # NaN, inf and out-of-range values cast to junk
                i = a.astype("<i4")
            if np.array_equal(i.astype("<f8").view("<i8"), a.view("<i8")):  # bit for bit
                a = i
        data = base64.b64encode(zlib.compress(a, _ZLIB_LEVEL)).decode("ascii")
        return {"dtype": a.dtype.str, "shape": list(a.shape), "zlib": data}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return [[_encode(k), _encode(v)] for k, v in value.items()]
    if isinstance(value, np.generic):
        return value.item()
    if hasattr(value, "__post_init__"):  # rebuilt, so that arrays changed in place are checked too
        try:
            dataclasses.replace(value)
        except ValueError as exc:
            raise PersistenceError(f"cannot save {type(value).__name__}: {exc}") from None
    return {name: _encode(getattr(value, name)) for name, _ in _fields(type(value))}


def _expect(value, tp, where: str):
    if not isinstance(value, tp) or (tp is int and isinstance(value, bool)):
        raise ValueError(f"{where}: expected {tp.__name__}, got {type(value).__name__}")
    return value


def _decode_array(rec, where: str) -> np.ndarray:
    rec = _expect(rec, dict, where)
    shape = _expect(rec.get("shape"), list, f"{where}.shape")
    if (dtype := rec.get("dtype")) not in _ITEM_BYTES:
        raise ValueError(f"{where}: dtype {dtype!r}, expected '<f8' or '<i4'")
    if not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"{where}: bad shape {shape!r}")
    size = _ITEM_BYTES[dtype] * math.prod(shape)
    # a byte past the shape refuses a payload, however far it would inflate
    inflate = zlib.decompressobj()
    raw = inflate.decompress(base64.b64decode(_expect(rec.get("zlib"), str, where), validate=True), size + 1)
    if len(raw) > size:
        raise ValueError(f"{where}: data inflates past shape {tuple(shape)} of {dtype}")
    if not inflate.eof:
        raise ValueError(f"{where}: truncated zlib stream")
    if len(raw) != size:
        raise ValueError(f"{where}: {len(raw)} bytes do not fill shape {tuple(shape)}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape).astype("<f8")


@functools.cache
def _decoder(tp):
    """A checking decoder (value, where) -> object for type hint tp, built
    once per hint so that long lists of records cost one call per field."""
    if tp is np.ndarray:
        return _decode_array
    if dataclasses.is_dataclass(tp):
        fields = [(name, _decoder(hint)) for name, hint in _fields(tp)]

        def decode_dataclass(v, where):
            _expect(v, dict, where)
            for name, _ in fields:
                if name not in v:
                    raise ValueError(f"{where}: missing key {name!r}")
            if len(v) != len(fields):
                raise ValueError(f"{where}: unknown keys {sorted(set(v) - {n for n, _ in fields})}")
            kwargs = {name: dec(v[name], f"{where}.{name}") for name, dec in fields}
            try:  # the artifact checks what spans its fields
                return tp(**kwargs)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None

        return decode_dataclass
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):  # only `X | None` occurs
        (inner,) = [a for a in args if a is not type(None)]
        dec = _decoder(inner)
        return lambda v, where: None if v is None else dec(v, where)
    if origin is dict:
        key, val = _decoder(args[0]), _decoder(args[1])

        def decode_dict(v, where):
            pairs = [_expect(p, list, where) for p in _expect(v, list, where)]
            if any(len(p) != 2 for p in pairs):
                raise ValueError(f"{where}: expected [key, value] pairs")
            return {key(k, where): val(x, where) for k, x in pairs}

        return decode_dict
    if origin is tuple and args[-1] is not Ellipsis:
        decs = [_decoder(a) for a in args]

        def decode_record(v, where):
            if len(_expect(v, list, where)) != len(decs):
                raise ValueError(f"{where}: expected {len(decs)} items, got {len(v)}")
            return tuple(dec(x, where) for dec, x in zip(decs, v))

        return decode_record
    if origin in (list, tuple):
        item = _decoder(args[0])
        return lambda v, where: origin([item(x, where) for x in _expect(v, list, where)])
    if tp is float:
        def decode_float(v, where):
            try:
                return float(v) if type(v) is int else _expect(v, float, where)
            except OverflowError:
                raise ValueError(f"{where}: integer of {len(str(v))} digits "
                                 "is too large for a float") from None

        return decode_float
    return lambda v, where: _expect(v, tp, where)


def decode_config(cls, obj, where: str) -> dict:
    """Check a JSON config object against the fields of dataclass cls;
    return the decoded values of the keys it sets.  A JSON object stands
    for a dict-typed field.  Any mismatch is a ValueError."""
    hints = dict(_fields(cls))
    if unknown := sorted(set(_expect(obj, dict, where)) - set(hints)):
        raise ValueError(f"{where}: unknown config keys {unknown}")
    out = {}
    for key, value in obj.items():
        tp, at = hints[key], f"{where}.{key}"
        if typing.get_origin(tp) is dict:
            value = [list(p) for p in _expect(value, dict, at).items()]
        out[key] = _decoder(tp)(value, at)
    return out


def _canonical(body) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Container I/O


def save(obj, path, metadata: dict | None = None) -> None:
    """Serialize a supported artifact; the write is atomic and durable."""
    if (kind := next((k for k, cls in _KINDS.items() if type(obj) is cls), None)) is None:
        raise PersistenceError(f"no container kind for {type(obj).__name__}")
    body = _canonical(_encode(obj))
    header = {"format_version": FORMAT_VERSION, "kind": kind, "metadata": dict(metadata or {})}
    data = _canonical({**header, "digest": _digest(body)}) + b"\n" + body
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    # 0o666 lets the umask decide the final mode, as for any new file
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    # the rename itself is durable only once the directory is synced
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def load_container(path, expected_kind: str | None = None) -> dict:
    """Read and check a container: header, version, digest, kind.

    Returns the header fields plus "body", the parsed but undecoded JSON.
    """
    with open(path, "rb") as fh:
        head, _, body = fh.read().partition(b"\n")
    try:
        container = json.loads(head)
    except (ValueError, RecursionError) as exc:
        raise CorruptContainerError(f"{path}: not a valid container: {exc}") from exc
    if not isinstance(container, dict):
        raise CorruptContainerError(f"{path}: not a valid container")
    for key in ("format_version", "kind", "metadata", "digest"):
        if key not in container:
            raise CorruptContainerError(f"{path}: missing field {key!r}")
    version = container["format_version"]
    if version not in READ_FORMATS:
        raise FormatVersionError(f"{path}: format version {version!r} "
                                 f"(supported: {', '.join(map(str, READ_FORMATS))})")
    if _digest(body) != container["digest"]:
        raise CorruptContainerError(f"{path}: body does not match its digest")
    kind = container["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise CorruptContainerError(f"{path}: unknown payload kind {kind!r}")
    if expected_kind is not None and kind != expected_kind:
        raise KindMismatchError(f"{path}: holds {kind!r}, expected {expected_kind!r}")
    try:
        container["body"] = json.loads(body)
    except (ValueError, RecursionError) as exc:
        raise CorruptContainerError(f"{path}: body is not valid JSON: {exc}") from exc
    return container


def load(path, expected_kind: str | None = None):
    """Load an artifact saved by save(); see load_container for checks."""
    container = load_container(path, expected_kind)
    try:
        return _decoder(_KINDS[container["kind"]])(container["body"], "body")
    except (ValueError, TypeError, zlib.error) as exc:
        raise CorruptContainerError(f"{path}: malformed {container['kind']}: {exc}") from exc
