"""Run configuration: one JSON document, paths relative to the config file.

The dataclasses below are the schema, and each default is stated on its field."""

from __future__ import annotations

import json
import re
from collections.abc import Iterable
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .boosting import GBTParams
from .filters import DET_ATTACHMENTS
from .logistic import LogisticRegressionL1
from .transport import GenerationConfig, ProviderConfig


@dataclass
class SourceConfig:
    adapter: str
    path: Path
    options: dict = field(default_factory=dict)


@dataclass
class HScorerConfig:
    wordnet_snapshot: Path
    indicators: Path
    prototypes: Path
    embeddings: Path
    suffixes: Path
    golden_hn: Path
    golden_non_hn: Path
    human_anchors: list[str] = field(default_factory=list)
    nonhuman_anchors: list[str] = field(default_factory=list)
    expand_anchors: bool = False
    split_seed: int = 42
    # Constructor arguments of LogisticRegressionL1 and GBTParams, checked by RunConfig.
    lr_params: dict = field(default_factory=dict, metadata={"json": "lr"})
    gbt_params: dict = field(default_factory=dict, metadata={"json": "gbt"})


@dataclass
class ModelConfig:
    model_id: str
    response_annotations: Path
    provider: ProviderConfig | None = None


@dataclass(kw_only=True)
class RunConfig:
    config_path: Path = field(init=False)  # the file itself, set by load_config
    output_dir: Path
    seed: int = 0
    narrow_target: int = 10000
    lexicon_sources: list[SourceConfig] = field(default_factory=list)
    corpora: dict[str, Path] = field(default_factory=dict)
    stoplist: Path
    given_names: Path
    marker_lexicon: Path
    models: list[ModelConfig] = field(default_factory=list)
    hscorer: HScorerConfig | None = None
    class_gold: Path | None = None
    class_predicted: Path | None = None
    class_mapping: Path | None = None
    # Constructor arguments of GenerationConfig but its model_id, checked below.
    generation: dict = field(default_factory=dict)
    jargon_datasets: list[str] = field(default_factory=lambda: ["oracle"])
    det_attachment: str = "dep"
    count_unvalidated: bool = False
    ner_optional: bool = False
    validator_provider: ProviderConfig | None = None

    def __post_init__(self) -> None:
        # Values only a later stage reads fail here, not after the stages before it.
        if self.det_attachment not in DET_ATTACHMENTS:
            raise ValueError(f"det_attachment: expected one of {list(DET_ATTACHMENTS)}, "
                             f"got {self.det_attachment!r}")
        if "model_id" in self.generation:  # each model sets its own
            raise ValueError("generation: unknown key(s) ['model_id']")
        self.generation_config("")
        if self.hscorer is not None:
            _read(LogisticRegressionL1, self.hscorer.lr_params, "hscorer.lr")
            _read(GBTParams, self.hscorer.gbt_params, "hscorer.gbt")

    def generation_config(self, model_id: str) -> GenerationConfig:
        return _read(GenerationConfig, {**self.generation, "model_id": model_id}, "generation")

    def effective_dict(self) -> dict:
        """Canonical dict whose slices fingerprint each stage's configuration."""
        return _walk(self, "", [])

    def validate_paths(self, keys: Iterable[str] | None = None) -> None:
        """Fail fast when a referenced input path does not exist: any path, or
        with `keys`, one under those top-level config keys."""
        paths: list[tuple[str, Path]] = []
        _walk(self, "", paths)
        missing = [f"{key}: {path}" for key, path in paths
                   if (keys is None or re.match(r"\w+", key)[0] in keys) and not path.exists()]
        if missing:
            raise FileNotFoundError(
                "missing configured inputs:\n  " + "\n  ".join(missing)
            )


# Where the run lives and how providers are reached: they change no
# result, so no stage fingerprint reads them.
_DEPLOYMENT_FIELDS = frozenset({"config_path", "output_dir", "provider", "validator_provider"})


def _walk(value, key: str, paths: list[tuple[str, Path]]):
    """`value` as plain JSON data, deployment fields left out and paths
    written as strings; each path is also appended to `paths` with its
    config key (`hscorer.embeddings`, `lexicon_sources[0].path`)."""
    if is_dataclass(value):
        return {
            f.name: _walk(getattr(value, f.name), f"{key}.{f.name}" if key else f.name, paths)
            for f in fields(value)
            if f.name not in _DEPLOYMENT_FIELDS
        }
    if isinstance(value, dict):
        return {k: _walk(v, f"{key}.{k}", paths) for k, v in value.items()}
    if isinstance(value, list):
        return [_walk(v, f"{key}[{i}]", paths) for i, v in enumerate(value)]
    if isinstance(value, Path):
        paths.append((key, value))
        return str(value)
    return value


def _expect(raw, kind: type, key: str):
    if not isinstance(raw, kind):
        raise ValueError(f"{key or 'config'}: expected a {kind.__name__}, got {raw!r}")
    return raw


def _check_keys(raw, allowed, key: str) -> None:
    unknown = sorted(set(_expect(raw, dict, key)) - set(allowed))
    if unknown:
        raise ValueError(f"{key or 'config'}: unknown key(s) {unknown}")


# The JSON values each scalar type accepts. A JSON number fits a float, an
# integer fits an int; a bool fits neither, though Python counts it as an int.
_SCALAR_JSON = {bool: bool, int: int, float: (int, float), str: str, Path: str, dict: dict}


def _read(hint, raw, key: str, base: Path = Path()):
    """JSON value `raw` as type `hint`, the inverse of `_walk`: a relative path
    resolves against `base`, and `null` or `{}` for an `X | None` is None. A
    value that does not fit, an unknown key, a missing required key or a
    value a dataclass refuses is a ValueError naming its config key."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        return None if raw is None or raw == {} else _read(args[0], raw, key, base)
    if is_dataclass(hint):
        settable = {f.metadata.get("json") or f.name: f for f in fields(hint) if f.init}
        _check_keys(raw, settable, key)
        hints = get_type_hints(hint)
        values = {}
        for name, f in settable.items():
            sub = f"{key}.{name}" if key else name
            if name in raw:
                values[f.name] = _read(hints[f.name], raw[name], sub, base)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"{sub}: missing required key")
        try:
            return hint(**values)
        except ValueError as err:
            if not key:
                raise
            raise ValueError(f"{key}: {err}") from None
    if origin in (list, tuple, frozenset):
        return origin(_read(args[0], v, f"{key}[{i}]", base)
                      for i, v in enumerate(_expect(raw, list, key)))
    if origin is dict:
        return {k: _read(args[1], v, f"{key}.{k}", base)
                for k, v in _expect(raw, dict, key).items()}
    if not isinstance(raw, _SCALAR_JSON[hint]) or (hint is not bool and isinstance(raw, bool)):
        raise ValueError(f"{key}: expected {hint.__name__}, got {raw!r}")
    value = hint(raw)
    return (base / value).resolve() if hint is Path and not value.is_absolute() else value


def read_json(hint, path: str | Path):
    """The JSON document in UTF-8 file `path` as type `hint`, read by `_read`
    with the path as root key: every ValueError names the file."""
    try:
        with open(path, encoding="utf-8") as fp:
            raw = json.load(fp)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    return _read(hint, raw, str(path))


def load_config(path: str | Path, seed_override: int | None = None,
                target_override: int | None = None) -> RunConfig:
    path = Path(path).resolve()
    with open(path, encoding="utf-8") as fp:
        config = _read(RunConfig, json.load(fp), "", path.parent)
    config.config_path = path
    config.jargon_datasets.sort()
    if seed_override is not None:
        config.seed = seed_override
    if target_override is not None:
        config.narrow_target = target_override
    return config
