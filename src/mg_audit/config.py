"""Run configuration: one JSON document, paths relative to the config file."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
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
        return GenerationConfig(
            model_id=model_id,
            temperature=float(self.generation.get("temperature", 1.0)),
            max_tokens=int(self.generation.get("max_tokens", 1500)),
            system_prompt=self.generation.get(
                "system_prompt", "You are a helpful French assistant."
            ),
        )

    def effective_dict(self) -> dict:
        """Canonical dict used to checksum the effective configuration."""
        return {
            "seed": self.seed,
            "narrow_target": self.narrow_target,
            "lexicon_sources": [
                {"adapter": s.adapter, "path": str(s.path), "options": s.options}
                for s in self.lexicon_sources
            ],
            "corpora": {k: str(v) for k, v in sorted(self.corpora.items())},
            "stoplist": str(self.stoplist),
            "given_names": str(self.given_names),
            "marker_lexicon": str(self.marker_lexicon),
            "models": [
                {"model_id": m.model_id, "response_annotations": str(m.response_annotations)}
                for m in self.models
            ],
            "hscorer": (
                {
                    name: str(value) if isinstance(value, Path) else value
                    for name, value in self._hscorer_items()
                }
                if self.hscorer
                else None
            ),
            "class_gold": str(self.class_gold) if self.class_gold else None,
            "class_predicted": str(self.class_predicted) if self.class_predicted else None,
            "class_mapping": str(self.class_mapping) if self.class_mapping else None,
            "generation": self.generation,
            "jargon_datasets": sorted(self.jargon_datasets),
            "det_attachment": self.det_attachment,
            "count_unvalidated": self.count_unvalidated,
            "ner_optional": self.ner_optional,
        }

    def _hscorer_items(self) -> list[tuple[str, object]]:
        return [(f.name, getattr(self.hscorer, f.name)) for f in fields(HScorerConfig)]

    def validate_paths(self) -> None:
        """Fail fast when a referenced input path does not exist."""
        missing = []
        candidates: list[tuple[str, Path | None]] = [
            ("stoplist", self.stoplist),
            ("given_names", self.given_names),
            ("marker_lexicon", self.marker_lexicon),
            ("class_gold", self.class_gold),
            ("class_predicted", self.class_predicted),
            ("class_mapping", self.class_mapping),
        ]
        candidates += [(f"source:{s.adapter}", s.path) for s in self.lexicon_sources]
        candidates += [(f"corpus:{name}", path) for name, path in self.corpora.items()]
        candidates += [
            (f"responses:{m.model_id}", m.response_annotations) for m in self.models
        ]
        if self.hscorer:
            candidates += [
                (name, value) for name, value in self._hscorer_items()
                if isinstance(value, Path)
            ]
        for label, path in candidates:
            if path is not None and not Path(path).exists():
                missing.append(f"{label}: {path}")
        if missing:
            raise FileNotFoundError(
                "missing configured inputs:\n  " + "\n  ".join(missing)
            )


def _provider(raw: dict | None) -> ProviderConfig | None:
    if not raw:
        return None
    return ProviderConfig(
        endpoint_url=raw["endpoint_url"],
        credential_env=raw["credential_env"],
        model_id=raw["model_id"],
        min_request_interval=float(raw.get("min_request_interval", 0.0)),
        timeout=float(raw.get("timeout", 60.0)),
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
        jargon_datasets=list(raw.get("jargon_datasets", ["oracle"])),
        det_attachment=raw.get("det_attachment", "dep"),
        count_unvalidated=bool(raw.get("count_unvalidated", False)),
        ner_optional=bool(raw.get("ner_optional", False)),
        validator_provider=_provider(raw.get("validator_provider")),
    )
