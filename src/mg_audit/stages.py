"""Pipeline stages: lexicon, training, filtering, narrowing, dispatch,
validation, analysis and reporting.

STAGE_DEPS records which stages' artifacts each stage reads; the run
manifest enforces it. Each stage writes its outputs atomically and records
their checksums, so re-running a completed stage is a no-op, interrupted
runs resume where they stopped, and a change re-runs only the stages that
read it.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Iterable, Iterator
from pathlib import Path

from . import __version__
from .analysis import analyze_text, find_candidates, load_analyses, save_analyses
from .config import ModelConfig, RunConfig
from .conllu import read_conllu, read_texts, write_conllu
from .dispatch import EMPTY_RESPONSE, STATUS_ERROR, ExchangeStore, RetryPolicy, dispatch
from .ensemble import train_member
from .features import FeatureResources, feature_matrix
from .filters import (
    FilterDecision,
    filter_document,
    load_wordlist,
    mg_instruction_hit,
    write_filter_report,
)
from .ingest import ingest_source
from .lexicon import (
    HumanNounDB,
    MGLexicon,
    annotate_classes,
    extract_mg_subset,
    merge_lexicons,
)
from .ioutil import read_jsonl, sha256_text, write_json, write_jsonl
from .manifest import RunManifest
from .markers import MarkerLexicon
from .narrowing import apportion, narrow_proportional
from .report import emit_report
from .resources import EmbeddingTable, IndicatorLexicon, PrototypeLexicon, SuffixSet
from .transport import GenerationConfig, HttpChatTransport, MockTransport
from .validation import (
    VALIDATION_MAX_TOKENS,
    VALIDATION_SYSTEM_PROMPT,
    VALIDATION_TEMPERATURE,
    ParsedValidation,
    build_validation_prompt,
    parse_validation_response,
)
from .wordnet import WordNetSnapshot

logger = logging.getLogger(__name__)

# Which stages' artifacts each stage reads; the one record of how stages
# relate. A stage runs only after its dependencies, and invalidating a
# stage invalidates everything that depends on it, directly or transitively.
STAGE_DEPS: dict[str, tuple[str, ...]] = {
    "build-lexicon": (),
    "train-hscorer": (),
    "filter": ("build-lexicon",),
    "narrow": ("filter",),
    "dispatch": ("narrow",),
    "validate": ("build-lexicon", "dispatch"),
    "analyze": ("build-lexicon", "validate"),
    "report": ("build-lexicon", "analyze"),
}

STAGES = tuple(STAGE_DEPS)

# Config keys each stage actually reads; a changed key invalidates the
# stage and its dependents.
STAGE_CONFIG_KEYS: dict[str, tuple[str, ...]] = {
    "build-lexicon": ("lexicon_sources", "class_gold", "class_predicted", "class_mapping"),
    "train-hscorer": ("hscorer",),
    "filter": ("corpora", "stoplist", "given_names", "det_attachment",
               "jargon_datasets", "ner_optional"),
    "narrow": ("corpora", "seed", "narrow_target"),
    "dispatch": ("models", "generation"),
    "validate": ("models", "stoplist", "given_names", "marker_lexicon",
                 "det_attachment", "jargon_datasets"),
    "analyze": ("models", "stoplist", "marker_lexicon", "count_unvalidated"),
    "report": ("models",),
}


class StageError(RuntimeError):
    pass


def _read_jsonl(path: Path) -> Iterator[dict]:
    if not path.exists():
        raise StageError(f"missing upstream artifact: {path}")
    return read_jsonl(path)


def _transport_for(
    config: RunConfig, model: ModelConfig | None, mock_dir: Path | None
):
    if mock_dir is not None:
        fixture = mock_dir / f"{model.model_id}.jsonl" if mock_dir.is_dir() else mock_dir
        if not fixture.exists():
            raise StageError(f"mock transport fixture not found: {fixture}")
        return MockTransport(fixture)
    provider = model.provider if model else config.validator_provider
    if provider is None:
        raise StageError(
            "no provider configured and no mock transport given"
            + (f" for model {model.model_id}" if model else " for the validator")
        )
    return HttpChatTransport(provider)


def _load_lexicon(out: Path) -> tuple[HumanNounDB, MGLexicon]:
    lexicon_path = out / "lexicon" / "lexicon.jsonl"
    mg_path = out / "lexicon" / "mg.jsonl"
    for path in (lexicon_path, mg_path):
        if not path.exists():
            raise StageError(f"missing upstream artifact: {path}")
    return HumanNounDB.load_jsonl(lexicon_path), MGLexicon.load_jsonl(mg_path)


def stage_build_lexicon(config: RunConfig, out: Path, mock_dir: Path | None) -> list[Path]:
    parts = []
    reports = []
    for source in config.lexicon_sources:
        entries, report = ingest_source(source.adapter, source.path, source.options)
        parts.append(entries)
        reports.append(report.to_dict())
    db, conflicts = merge_lexicons(parts)

    if config.class_mapping and (config.class_gold or config.class_predicted):
        gold = json.loads(config.class_gold.read_text(encoding="utf-8")) if config.class_gold else {}
        predicted = (
            json.loads(config.class_predicted.read_text(encoding="utf-8"))
            if config.class_predicted
            else {}
        )
        mapping = json.loads(config.class_mapping.read_text(encoding="utf-8"))
        db = annotate_classes(db, gold, predicted, mapping)

    mg = extract_mg_subset(db)
    lexicon_dir = out / "lexicon"
    lexicon_dir.mkdir(parents=True, exist_ok=True)
    db.save_jsonl(lexicon_dir / "lexicon.jsonl")
    mg.save_jsonl(lexicon_dir / "mg.jsonl")
    write_json(
        lexicon_dir / "ingest_report.json",
        {
            "sources": reports,
            "n_entries": len(db),
            "n_mg": len(mg),
            "class_conflicts": [
                {"lemma": c.lemma, "gender": c.gender, "kept": c.kept, "discarded": c.discarded}
                for c in conflicts
            ],
        },
    )
    return [
        lexicon_dir / "lexicon.jsonl",
        lexicon_dir / "mg.jsonl",
        lexicon_dir / "ingest_report.json",
    ]


def stage_train_hscorer(config: RunConfig, out: Path, mock_dir: Path | None) -> list[Path]:
    h = config.hscorer
    if h is None:
        raise StageError("train-hscorer requires an hscorer section in the config")
    resources = FeatureResources(
        wordnet=WordNetSnapshot.load_jsonl(
            h.wordnet_snapshot,
            human_anchors=set(h.human_anchors),
            nonhuman_anchors=set(h.nonhuman_anchors),
            expand_anchors=h.expand_anchors,
        ),
        indicators=IndicatorLexicon.load_json(h.indicators),
        prototypes=PrototypeLexicon.load_json(h.prototypes),
        embeddings=EmbeddingTable.load_text(h.embeddings),
        suffixes=SuffixSet.load_text(h.suffixes),
    )
    positives = sorted(load_wordlist(h.golden_hn))
    negatives = sorted(load_wordlist(h.golden_non_hn))
    words = positives + negatives
    labels = [1] * len(positives) + [0] * len(negatives)
    checksum = sha256_text(json.dumps([words, labels]))

    import numpy as np

    X = feature_matrix(words, resources)
    y = np.array(labels)

    members = {}
    for kind, params in (
        ("logistic_regression", h.lr_params),
        ("gradient_boosted_trees", h.gbt_params),
    ):
        members[kind] = train_member(
            kind, X, y, hyperparams=params, split_seed=h.split_seed, data_checksum=checksum
        )

    hscorer_dir = out / "hscorer"
    hscorer_dir.mkdir(parents=True, exist_ok=True)
    lr_path = hscorer_dir / "lr_member.json"
    gbt_path = hscorer_dir / "gbt_member.json"
    members["logistic_regression"].save(lr_path)
    members["gradient_boosted_trees"].save(gbt_path)
    report_path = hscorer_dir / "training_report.json"
    write_json(
        report_path,
        {
            "n_hn": len(positives),
            "n_non_hn": len(negatives),
            "data_checksum": checksum,
            "lr_validation_accuracy": members["logistic_regression"].validation_accuracy,
            "gbt_validation_accuracy": members["gradient_boosted_trees"].validation_accuracy,
        },
    )
    return [lr_path, gbt_path, report_path]


def stage_filter(config: RunConfig, out: Path, mock_dir: Path | None) -> list[Path]:
    db, mg = _load_lexicon(out)
    stoplist = load_wordlist(config.stoplist)
    given_names = load_wordlist(config.given_names)
    jargon_tags = frozenset(config.jargon_datasets)

    filter_dir = out / "filter"
    kept_dir = filter_dir / "kept"
    kept_dir.mkdir(parents=True, exist_ok=True)
    decisions = []
    outputs = []
    any_ner = False
    for dataset in sorted(config.corpora):
        docs = read_conllu(config.corpora[dataset], dataset_tag=dataset)
        any_ner = any_ner or any(
            token.ner is not None for doc in docs for token in doc.flat_tokens()
        )
        survivors = []
        for doc in docs:
            filtered_doc, decision = filter_document(
                doc,
                mg,
                db,
                given_names,
                det_attachment=config.det_attachment,
                jargon_dataset_tags=jargon_tags,
            )
            if decision.kept:
                hit = mg_instruction_hit(filtered_doc, mg, stoplist)
                if hit is None:
                    survivors.append(filtered_doc)
                else:
                    decision = FilterDecision(
                        doc_id=doc.doc_id, kept=False, fired_rules=decision.fired_rules + [hit]
                    )
            decisions.append(decision)
        path = kept_dir / f"{dataset}.conllu"
        write_conllu(survivors, path)
        outputs.append(path)

    if not any_ner and not config.ner_optional:
        raise StageError(
            "no NER labels found in any corpus: the person-name rules need "
            "annotations with NER=<label> in the MISC column (set "
            '"ner_optional": true to filter un-annotated corpora anyway)'
        )
    report_path = filter_dir / "filter_report.jsonl"
    write_filter_report(decisions, report_path)
    outputs.append(report_path)
    return outputs


def stage_narrow(config: RunConfig, out: Path, mock_dir: Path | None) -> list[Path]:
    kept_dir = out / "filter" / "kept"
    groups = {}
    for dataset in sorted(config.corpora):
        path = kept_dir / f"{dataset}.conllu"
        if not path.exists():
            raise StageError(f"missing upstream artifact: {path}")
        groups[dataset] = read_texts(path)

    quotas = apportion({name: len(docs) for name, docs in groups.items()}, config.narrow_target)
    sampled = narrow_proportional(groups, config.narrow_target, seed=config.seed)

    narrow_dir = out / "narrow"
    narrow_dir.mkdir(parents=True, exist_ok=True)
    instructions_path = narrow_dir / "instructions.jsonl"
    write_jsonl(
        instructions_path,
        (
            {"dataset": dataset, "doc_id": doc_id, "text": text}
            for dataset, docs in sorted(sampled.items())
            for doc_id, text in docs
        ),
    )
    quota_path = narrow_dir / "quotas.json"
    write_json(quota_path, quotas)
    return [instructions_path, quota_path]


def _retry_policy(mock_dir: Path | None) -> RetryPolicy:
    # Fixture replay has no rate limit to back off from.
    return RetryPolicy() if mock_dir is None else RetryPolicy(sleep=lambda _: None)


def stage_dispatch(config: RunConfig, out: Path, mock_dir: Path | None) -> list[Path]:
    instructions = [
        (record["doc_id"], record["text"])
        for record in _read_jsonl(out / "narrow" / "instructions.jsonl")
    ]
    exchange_dir = out / "dispatch" / "exchanges"
    exchange_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    retry = _retry_policy(mock_dir)
    for model in config.models:
        transport = _transport_for(config, model, mock_dir)
        store = ExchangeStore(exchange_dir / f"{model.model_id}.jsonl")
        dispatch(instructions, config.generation_config(model.model_id), transport, store, retry)
        outputs.append(store.path)
    return outputs


def stage_validate(config: RunConfig, out: Path, mock_dir: Path | None) -> list[Path]:
    db, mg = _load_lexicon(out)
    stoplist = load_wordlist(config.stoplist)
    given_names = load_wordlist(config.given_names)
    markers = MarkerLexicon.load_json(config.marker_lexicon)

    validate_dir = out / "validate"
    retry = _retry_policy(mock_dir)
    outputs = []
    for model in config.models:
        store = ExchangeStore(out / "dispatch" / "exchanges" / f"{model.model_id}.jsonl")
        if not store.path.exists():
            raise StageError(f"missing upstream artifact: {store.path}")
        exchanges = store.load()
        annotations = {
            doc.doc_id: doc
            for doc in read_conllu(model.response_annotations, dataset_tag=model.model_id)
        }

        # Mock fixtures live per model file; live validation goes through
        # the dedicated validator provider.
        if mock_dir is not None:
            transport = _transport_for(config, model, mock_dir)
            validator_id = "validator"
        else:
            transport = _transport_for(config, None, None)
            validator_id = config.validator_provider.model_id
        gen = GenerationConfig(
            model_id=validator_id,
            temperature=VALIDATION_TEMPERATURE,
            max_tokens=VALIDATION_MAX_TOKENS,
            system_prompt=VALIDATION_SYSTEM_PROMPT,
        )

        decisions = []
        kept_docs = []
        verdict_records = []
        requests = []  # (validate::<model>::<doc>, user prompt)
        expected: dict[str, tuple[str, list[str]]] = {}  # request id -> doc id, occurrence ids
        for instruction_id in sorted(exchanges):
            exchange = exchanges[instruction_id]
            if exchange.status == STATUS_ERROR:
                continue
            doc = annotations.get(instruction_id)
            if doc is None:
                raise StageError(
                    f"no response annotation for {instruction_id!r} in "
                    f"{model.response_annotations}"
                )
            filtered_doc, decision = filter_document(
                doc, mg, db, given_names,
                det_attachment=config.det_attachment,
                jargon_dataset_tags=frozenset(config.jargon_datasets),
            )
            decisions.append(decision)
            if not decision.kept:
                continue
            kept_docs.append(filtered_doc)
            candidates = find_candidates(
                filtered_doc, db, stoplist, mg, neutral_lemmas=markers.neutral_lemmas
            )
            if not candidates:
                verdict_records.append(
                    {"doc_id": instruction_id, "verdicts": {}, "missing": [],
                     "extraneous": [], "parse_error": None}
                )
                continue
            _, user = build_validation_prompt(filtered_doc.text, [c.form for c in candidates])
            request_id = f"validate::{model.model_id}::{instruction_id}"
            requests.append((request_id, user))
            expected[request_id] = (instruction_id, [c.occurrence_id for c in candidates])

        model_dir = validate_dir / model.model_id
        if requests:
            validations = ExchangeStore(model_dir / "exchanges.jsonl")
            for exchange in dispatch(requests, gen, transport, validations, retry):
                doc_id, ids = expected[exchange.instruction_id]
                if exchange.status == STATUS_ERROR and exchange.error != EMPTY_RESPONSE:
                    # Retries exhausted: every occurrence stays unvalidated.
                    parsed = ParsedValidation(missing=ids, parse_error=exchange.error)
                else:
                    parsed = parse_validation_response(exchange.response_text, ids)
                verdict_records.append(
                    {
                        "doc_id": doc_id,
                        "verdicts": parsed.verdicts,
                        "missing": parsed.missing,
                        "extraneous": parsed.extraneous,
                        "parse_error": parsed.parse_error,
                    }
                )

        model_dir.mkdir(parents=True, exist_ok=True)
        report_path = model_dir / "response_filter.jsonl"
        write_filter_report(decisions, report_path)
        kept_path = model_dir / "kept.conllu"
        write_conllu(kept_docs, kept_path)
        verdict_path = model_dir / "verdicts.jsonl"
        write_jsonl(verdict_path, sorted(verdict_records, key=lambda r: r["doc_id"]))
        outputs += [report_path, kept_path, verdict_path]
    return outputs


def stage_analyze(config: RunConfig, out: Path, mock_dir: Path | None) -> list[Path]:
    db, mg = _load_lexicon(out)
    stoplist = load_wordlist(config.stoplist)
    markers = MarkerLexicon.load_json(config.marker_lexicon)

    analyze_dir = out / "analyze" / "analyses"
    analyze_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for model in config.models:
        model_dir = out / "validate" / model.model_id
        verdicts = {
            record["doc_id"]: record["verdicts"]
            for record in _read_jsonl(model_dir / "verdicts.jsonl")
        }
        kept_path = model_dir / "kept.conllu"
        if not kept_path.exists():
            raise StageError(f"missing upstream artifact: {kept_path}")
        analyses = [
            analyze_text(
                doc,
                db,
                mg,
                stoplist,
                verdicts=verdicts.get(doc.doc_id, {}),
                marker_lexicon=markers,
                unit_id=model.model_id,
                count_unvalidated=config.count_unvalidated,
            )
            for doc in read_conllu(kept_path, dataset_tag=model.model_id)
        ]
        path = analyze_dir / f"{model.model_id}.jsonl"
        save_analyses(analyses, path)
        outputs.append(path)
    return outputs


def stage_report(config: RunConfig, out: Path, mock_dir: Path | None) -> list[Path]:
    db, _ = _load_lexicon(out)
    analyze_dir = out / "analyze" / "analyses"
    per_unit = {}
    for model in config.models:
        path = analyze_dir / f"{model.model_id}.jsonl"
        if not path.exists():
            raise StageError(f"missing upstream artifact: {path}")
        per_unit[model.model_id] = load_analyses(path)
    written = emit_report(per_unit, db, out / "report")
    return [path for paths in written.values() for path in paths]


# Each stage is called as func(config, run directory, mock fixture path or
# None); only dispatch and validate talk to a transport.
_STAGE_FUNCS = {
    "build-lexicon": stage_build_lexicon,
    "train-hscorer": stage_train_hscorer,
    "filter": stage_filter,
    "narrow": stage_narrow,
    "dispatch": stage_dispatch,
    "validate": stage_validate,
    "analyze": stage_analyze,
    "report": stage_report,
}


def config_fingerprints(effective: dict) -> tuple[str, dict[str, str]]:
    """Checksum of the effective config and of each stage's slice of it."""
    checksum = sha256_text(json.dumps(effective, sort_keys=True))
    fingerprints = {
        name: sha256_text(
            json.dumps({k: effective.get(k) for k in STAGE_CONFIG_KEYS[name]},
                       sort_keys=True)
        )
        for name in STAGES
    }
    return checksum, fingerprints


def with_dependents(stages: Iterable[str]) -> list[str]:
    """`stages` plus every stage that depends on one of them, directly or
    transitively, in STAGES order."""
    marked = set(stages)
    for name in STAGES:
        if marked.intersection(STAGE_DEPS[name]):
            marked.add(name)
    return [name for name in STAGES if name in marked]


def _open_manifest(config: RunConfig, force: bool) -> RunManifest:
    """The run directory's manifest under `config`. A changed config is
    adopted only with `force`, and then every stage whose config slice
    changed is invalidated with its dependents."""
    config.validate_paths()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    checksum, fingerprints = config_fingerprints(config.effective_dict())
    manifest = RunManifest.load(out)
    if manifest is None:
        return RunManifest(
            output_dir=out, config_checksum=checksum, tool_version=__version__,
            fingerprints=fingerprints,
        )
    if manifest.config_checksum != checksum:
        if not force:
            raise StageError(
                "config checksum does not match the existing manifest; "
                "re-run with --force to adopt the new configuration"
            )
        changed = [name for name in STAGES
                   if manifest.fingerprints.get(name) != fingerprints[name]]
        manifest.invalidate(with_dependents(changed))
        manifest.config_checksum = checksum
        manifest.fingerprints = fingerprints
        manifest.save()
    return manifest


def run_stage(
    stage: str,
    config: RunConfig,
    force: bool = False,
    mock_transport: str | Path | None = None,
) -> RunManifest:
    """Run one pipeline stage once its dependencies are complete, and
    invalidate its dependents; `force` re-runs it even if it is complete."""
    if stage not in STAGES:
        raise StageError(f"unknown stage: {stage!r} (expected one of {', '.join(STAGES)})")
    manifest = _open_manifest(config, force)

    for dependency in STAGE_DEPS[stage]:
        if not manifest.is_complete(dependency):
            raise StageError(
                f"stage {stage!r} requires completed stage {dependency!r}; "
                f"run `mg-audit {dependency}` first"
            )

    if manifest.is_complete(stage) and not force:
        logger.info("stage %s already complete; skipping", stage)
        return manifest
    # Whatever the stage writes now, its dependents read the old outputs;
    # saved before it runs, so a run that stops half-way leaves them stale.
    manifest.invalidate(with_dependents([stage]))

    mock_dir = Path(mock_transport) if mock_transport else None
    outputs = _STAGE_FUNCS[stage](config, manifest.output_dir, mock_dir)
    manifest.mark_complete(stage, outputs)
    return manifest


def run_all(
    config: RunConfig,
    force: bool = False,
    mock_transport: str | Path | None = None,
) -> RunManifest:
    """Run every stage that is not complete; `force` first adopts a changed
    config, so only the stages it made stale run again."""
    if force:
        _open_manifest(config, force=True)
    manifest = None
    for stage in STAGES:
        manifest = run_stage(stage, config, mock_transport=mock_transport)
    assert manifest is not None
    return manifest
