"""Run configuration: one JSON document, paths relative to the config file."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

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
    lr_params: dict = field(default_factory=dict)
    gbt_params: dict = field(default_factory=dict)


@dataclass
class ModelConfig:
    model_id: str
    response_annotations: Path
    provider: ProviderConfig | None = None


@dataclass
class RunConfig:
    config_path: Path
    output_dir: Path
    seed: int
    narrow_target: int
    lexicon_sources: list[SourceConfig]
    corpora: dict[str, Path]
    stoplist: Path
    given_names: Path
    marker_lexicon: Path
    models: list[ModelConfig]
    hscorer: HScorerConfig | None = None
    class_gold: Path | None = None
    class_predicted: Path | None = None
    class_mapping: Path | None = None
    generation: dict = field(default_factory=dict)
    jargon_datasets: list[str] = field(default_factory=lambda: ["oracle"])
    det_attachment: str = "dep"
    count_unvalidated: bool = False
    ner_optional: bool = False
    validator_provider: ProviderConfig | None = None

    def generation_config(self, model_id: str) -> GenerationConfig:
        return GenerationConfig(model_id=model_id, **_present(self.generation, {
            "temperature": float, "max_tokens": int, "system_prompt": lambda prompt: prompt,
        }))

    def effective_dict(self) -> dict:
        """Canonical dict used to checksum the effective configuration."""
        return _walk(self, "", [])

    def validate_paths(self) -> None:
        """Fail fast when a referenced input path does not exist."""
        paths: list[tuple[str, Path]] = []
        _walk(self, "", paths)
        missing = [f"{key}: {path}" for key, path in paths if not path.exists()]
        if missing:
            raise FileNotFoundError(
                "missing configured inputs:\n  " + "\n  ".join(missing)
            )


# Where the run lives and how providers are reached: they change no
# result, so neither the checksum nor any stage fingerprint reads them.
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


def _present(raw: dict, casts: dict) -> dict:
    """Each key of `casts` that `raw` holds, with its value passed through
    the cast. A key left out takes the default of the dataclass it is
    passed to, so each default is stated once, in `transport`."""
    return {key: cast(raw[key]) for key, cast in casts.items() if key in raw}


def _provider(raw: dict | None) -> ProviderConfig | None:
    if not raw:
        return None
    return ProviderConfig(
        endpoint_url=raw["endpoint_url"],
        credential_env=raw["credential_env"],
        model_id=raw["model_id"],
        **_present(raw, {"min_request_interval": float, "timeout": float}),
    )


def load_config(
    path: str | Path,
    seed_override: int | None = None,
    target_override: int | None = None,
) -> RunConfig:
    path = Path(path).resolve()
    with open(path, encoding="utf-8") as fp:
        raw = json.load(fp)
    base = path.parent

    def resolve(value: str | None) -> Path | None:
        if value is None:
            return None
        p = Path(value)
        return p if p.is_absolute() else (base / p).resolve()

    hscorer = None
    if raw.get("hscorer"):
        h = raw["hscorer"]
        hscorer = HScorerConfig(
            wordnet_snapshot=resolve(h["wordnet_snapshot"]),
            indicators=resolve(h["indicators"]),
            prototypes=resolve(h["prototypes"]),
            embeddings=resolve(h["embeddings"]),
            suffixes=resolve(h["suffixes"]),
            golden_hn=resolve(h["golden_hn"]),
            golden_non_hn=resolve(h["golden_non_hn"]),
            human_anchors=list(h.get("human_anchors", [])),
            nonhuman_anchors=list(h.get("nonhuman_anchors", [])),
            expand_anchors=bool(h.get("expand_anchors", False)),
            split_seed=int(h.get("split_seed", 42)),
            lr_params=dict(h.get("lr", {})),
            gbt_params=dict(h.get("gbt", {})),
        )

    return RunConfig(
        config_path=path,
        output_dir=resolve(raw["output_dir"]),
        seed=seed_override if seed_override is not None else int(raw.get("seed", 0)),
        narrow_target=(
            target_override
            if target_override is not None
            else int(raw.get("narrow_target", 10000))
        ),
        lexicon_sources=[
            SourceConfig(
                adapter=s["adapter"],
                path=resolve(s["path"]),
                options=dict(s.get("options", {})),
            )
            for s in raw.get("lexicon_sources", [])
        ],
        corpora={name: resolve(p) for name, p in raw.get("corpora", {}).items()},
        stoplist=resolve(raw["stoplist"]),
        given_names=resolve(raw["given_names"]),
        marker_lexicon=resolve(raw["marker_lexicon"]),
        models=[
            ModelConfig(
                model_id=m["model_id"],
                response_annotations=resolve(m["response_annotations"]),
                provider=_provider(m.get("provider")),
            )
            for m in raw.get("models", [])
        ],
        hscorer=hscorer,
        class_gold=resolve(raw.get("class_gold")),
        class_predicted=resolve(raw.get("class_predicted")),
        class_mapping=resolve(raw.get("class_mapping")),
        generation=dict(raw.get("generation", {})),
        jargon_datasets=sorted(raw.get("jargon_datasets", ["oracle"])),
        det_attachment=raw.get("det_attachment", "dep"),
        count_unvalidated=bool(raw.get("count_unvalidated", False)),
        ner_optional=bool(raw.get("ner_optional", False)),
        validator_provider=_provider(raw.get("validator_provider")),
    )
