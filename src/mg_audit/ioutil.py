"""Small file helpers shared across modules, and the one codec for the
pipeline's JSON and JSONL artifacts: keys sorted, UTF-8 written unescaped,
files replaced atomically, blank JSONL lines ignored on read."""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable, Iterator
from pathlib import Path


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    half-written artifact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


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
    """Records of a JSONL file, one at a time; blank lines are skipped."""
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            if line.strip():
                yield json.loads(line)
