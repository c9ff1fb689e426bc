"""Small file helpers shared across modules, the hand-off table, and the one
codec for the pipeline's JSON and JSONL artifacts: keys sorted, UTF-8 written
unescaped, files replaced atomically, blank JSONL lines ignored on read, and
a record read back holding exactly its dataclass's fields."""

from __future__ import annotations

import hashlib
import io
import json
import os
from collections.abc import Callable, Collection, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import fields
from functools import cache
from pathlib import Path


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Inside `handoff()`: absolute path -> (sha256 of the file's bytes, the
# object built from them). None outside.
_HANDOFF: dict[str, tuple[bytes, object]] | None = None


@contextmanager
def handoff() -> Iterator[None]:
    """Within the block, `read_built` may return an object recorded for a
    file in place of a parse; see there. Run inside only code whose recorded
    objects equal a parse of their bytes. The previous table is restored on
    exit, errors included, so no slot outlives the block."""
    global _HANDOFF
    saved, _HANDOFF = _HANDOFF, {}
    try:
        yield
    finally:
        _HANDOFF = saved


def atomic_write_bytes(path: str | Path, data: bytes, built: object = None) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    half-written artifact. The file holds exactly `data`. Inside
    `handoff()`, `built` is recorded as the object built from `data`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)
    if built is not None and _HANDOFF is not None:
        _HANDOFF[os.path.abspath(path)] = (hashlib.sha256(data).digest(), built)


def read_built(path: str | Path, parse: Callable[[Iterable[str]], object], keep: bool,
               fits: Callable[[object], bool]):
    """`parse` of the lines of UTF-8 file `path`, split as a text-mode file
    splits them. Inside `handoff()`, the object recorded for the path is
    returned instead while the file's bytes hash to it and `fits` accepts
    it; otherwise the bytes just hashed are parsed, never the path again.
    With `keep`, the slot stays and a parse is recorded; without it, a slot
    is dropped once read and a path with no slot is streamed, not hashed."""
    table = _HANDOFF
    key = os.path.abspath(path)
    if table is None or not (keep or key in table):
        with open(path, encoding="utf-8") as fp:
            return parse(fp)
    slot = table.get(key) if keep else table.pop(key)
    data = Path(path).read_bytes()
    digest = hashlib.sha256(data).digest()
    if slot is not None and slot[0] == digest and fits(slot[1]):
        return slot[1]
    # Not str.splitlines, which would also split on U+2028 and U+0085.
    built = parse(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    if keep:
        table[key] = (digest, built)
    return built


def atomic_write_text(path: str | Path, text: str) -> None:
    """`text` encoded as UTF-8 and written by `atomic_write_bytes`, with no
    newline translation."""
    atomic_write_bytes(path, text.encode("utf-8"))


# Built once: json.dumps with options builds a new encoder on every call.
_JSONL_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)
_JSON_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, indent=2)


def jsonl_line(record: dict) -> str:
    """One JSONL record, newline included."""
    return _JSONL_ENCODER.encode(record) + "\n"


def json_text(payload) -> str:
    """A JSON document: indented by 2, newline-terminated."""
    return _JSON_ENCODER.encode(payload) + "\n"


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    atomic_write_text(path, "".join(map(jsonl_line, records)))


def write_json(path: str | Path, payload) -> None:
    atomic_write_text(path, json_text(payload))


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Records of a JSONL file, one at a time; see `numbered_jsonl`."""
    for _, record in numbered_jsonl(path):
        yield record


def numbered_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, record) for each line of a JSONL file that `str.strip`
    does not leave empty. Lines split at newline bytes only. A line that is
    not UTF-8 or not one JSON value raises ValueError naming the file and
    the line."""
    with open(path, "rb") as fp:
        for number, raw in enumerate(fp, 1):
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    yield number, json.loads(line.rstrip("\n"))
            except json.JSONDecodeError as err:
                raise ValueError(f"{path}: line {number}: {err.msg} "
                                 f"at column {err.colno}") from None
            except UnicodeDecodeError as err:
                raise ValueError(f"{path}: line {number}: {err}") from None


@cache
def _init_names(cls) -> frozenset[str]:
    return frozenset(f.name for f in fields(cls) if f.init)


def record_fields(cls, record, legacy: Collection[str] = (), optional: Collection[str] = (),
                  **given) -> dict:
    """The constructor arguments of dataclass `cls` that JSON value `record`
    holds, with `given` added: `record` must be an object whose keys, once
    those in `legacy` are dropped from it, are the names of the other init
    fields, any in `optional` aside. Anything else is a ValueError."""
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {type(record).__name__}")
    for key in legacy:
        record.pop(key, None)
    names = _init_names(cls) - given.keys()
    unknown = record.keys() - names
    if unknown:
        raise ValueError(f"unknown key(s) {sorted(unknown)}")
    missing = names - record.keys() - set(optional)
    if missing:
        raise ValueError(f"missing key(s) {sorted(missing)}")
    return {**record, **given}
