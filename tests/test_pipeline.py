import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR

from mg_audit.config import load_config
from mg_audit.dispatch import ExchangeStore
from mg_audit.manifest import RunManifest
from mg_audit import stages
from mg_audit.stages import (
    STAGE_CONFIG_KEYS,
    STAGE_DEPS,
    STAGES,
    StageError,
    config_fingerprints,
    run_all,
    run_stage,
    with_dependents,
)
from mg_audit.transport import MockTransport, TransportError, TransportResult

MOCK = DATA_DIR / "fixtures"
ROOT = DATA_DIR.parent.parent


def mini_config(tmp_path, **overrides):
    config = load_config(DATA_DIR / "config.json", **overrides)
    config.output_dir = tmp_path / "out"
    return config


class TestStageOrdering:
    def test_report_before_analyze_fails(self, tmp_path):
        config = mini_config(tmp_path)
        with pytest.raises(StageError, match="requires completed stage"):
            run_stage("report", config)

    def test_dispatch_requires_narrow(self, tmp_path):
        config = mini_config(tmp_path)
        run_stage("build-lexicon", config)
        with pytest.raises(StageError, match="narrow"):
            run_stage("dispatch", config, mock_transport=MOCK)

    def test_unknown_stage(self, tmp_path):
        with pytest.raises(StageError, match="unknown stage"):
            run_stage("bogus", mini_config(tmp_path))


@pytest.fixture(scope="module")
def completed(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("run")
    config = mini_config(tmp_path)
    manifest = run_all(config, mock_transport=MOCK)
    return config, manifest


class TestFullRun:
    def test_all_stages_complete(self, completed):
        _, manifest = completed
        assert sorted(manifest.stages) == sorted(STAGES)

    def test_lexicon_contents(self, completed):
        config, _ = completed
        from mg_audit.lexicon import HumanNounDB, MGLexicon

        db = HumanNounDB.load_jsonl(config.output_dir / "lexicon/lexicon.jsonl")
        mg = MGLexicon.load_jsonl(config.output_dir / "lexicon/mg.jsonl")
        # epicene pair never reaches the MG subset
        assert db.get("artiste", "masculine").epicene
        assert "artiste" not in mg
        assert "avocat" in mg
        assert "personne" not in mg
        # wiktextract index rule dropped "navet"
        assert not db.has_lemma("navet")
        # model-provenance class through the mapping
        assert db.get("plombier", "masculine").hn_class == "profession"
        assert db.get("plombier", "masculine").class_provenance == "model"
        # gold class wins
        assert db.get("avocat", "masculine").class_provenance == "human"

    def test_filter_report_rules(self, completed):
        config, _ = completed
        report_path = config.output_dir / "filter/filter_report.jsonl"
        decisions = {}
        with open(report_path, encoding="utf-8") as fp:
            for line in fp:
                record = json.loads(line)
                decisions[record["doc_id"]] = record
        assert decisions["alpaca-02"]["kept"] is False  # interrogative qui
        assert decisions["alpaca-04"]["kept"] is False  # mon + médecin
        assert decisions["alpaca-05"]["kept"] is False  # PER
        assert decisions["alpaca-06"]["kept"] is False  # MG instruction
        assert decisions["alpaca-12"]["kept"] is False  # MISC given name
        assert decisions["hh_rlhf-03"]["kept"] is False  # ce + chanteur
        assert decisions["oasst2-03"]["kept"] is False  # PER
        assert decisions["oracle-04"]["kept"] is False  # qui
        # jargon shrinks but keeps
        assert decisions["oracle-01"]["kept"] is True
        assert any(h["rule"] == "jargon" for h in decisions["oracle-01"]["fired_rules"])
        assert decisions["hh_rlhf-07"]["kept"] is True  # feminine HN survives

    def test_jargon_stripped_from_kept_corpus(self, completed):
        config, _ = completed
        from mg_audit.conllu import read_conllu

        docs = {d.doc_id: d for d in read_conllu(
            config.output_dir / "filter/kept/oracle.conllu", dataset_tag="oracle")}
        assert "oracle" not in docs["oracle-01"].text.lower()
        assert "pythie" not in docs["oracle-02"].text.lower()
        assert "marées" in docs["oracle-01"].text

    def test_narrow_quotas_sum_to_target(self, completed):
        config, _ = completed
        quotas = json.loads(
            (config.output_dir / "narrow/quotas.json").read_text(encoding="utf-8")
        )
        assert sum(quotas.values()) == 12
        assert quotas == {"alpaca": 4, "hh_rlhf": 4, "oracle": 3, "oasst2": 1}

    def test_exchange_stores_have_narrowed_ids(self, completed):
        config, _ = completed
        from mg_audit.dispatch import ExchangeStore

        store = ExchangeStore(config.output_dir / "dispatch/exchanges/modela.jsonl")
        exchanges = store.load()
        assert len(exchanges) == 12
        assert all(e.status == "ok" for e in exchanges.values())

    def test_training_report(self, completed):
        config, _ = completed
        report = json.loads(
            (config.output_dir / "hscorer/training_report.json").read_text()
        )
        assert report["n_hn"] == 20 and report["n_non_hn"] == 20
        assert 0.5 <= report["lr_validation_accuracy"] <= 1.0
        assert 0.5 <= report["gbt_validation_accuracy"] <= 1.0

    def test_facteur_rejected_by_validation(self, completed):
        config, _ = completed
        found = False
        for model in ("modela", "modelb"):
            path = config.output_dir / f"validate/{model}/verdicts.jsonl"
            with open(path, encoding="utf-8") as fp:
                for line in fp:
                    record = json.loads(line)
                    for occ_id, verdict in record["verdicts"].items():
                        if occ_id.startswith("facteurs"):
                            assert verdict == 0
                            found = True
        assert found

    def test_report_validates_against_schema(self, completed):
        config, _ = completed
        import jsonschema
        from mg_audit import report as report_module

        schema = json.loads(
            (Path(report_module.__file__).parent / "schemas/audit_report.schema.json")
            .read_text(encoding="utf-8")
        )
        document = json.loads(
            (config.output_dir / "report/report.json").read_text(encoding="utf-8")
        )
        jsonschema.validate(document, schema)

    def test_rerun_skips_completed_stages(self, completed):
        config, _ = completed
        manifest_path = config.output_dir / "manifest.json"
        before = manifest_path.read_bytes()
        run_stage("report", config, mock_transport=MOCK)
        assert manifest_path.read_bytes() == before


class TestDeterminism:
    def test_byte_identical_reports_across_two_runs(self, tmp_path):
        reports = []
        for name in ("one", "two"):
            config = mini_config(tmp_path / name)
            run_all(config, mock_transport=MOCK)
            report_dir = config.output_dir / "report"
            content = {
                path.name: path.read_bytes()
                for path in sorted(report_dir.rglob("*"))
                if path.is_file()
            }
            reports.append(content)
        assert reports[0] == reports[1]


class TestResume:
    def test_interrupted_run_converges(self, tmp_path):
        config = mini_config(tmp_path)
        for stage in STAGES[:4]:
            run_stage(stage, config, mock_transport=MOCK)
        # simulate interruption: re-run everything from scratch semantics
        manifest = run_all(config, mock_transport=MOCK)
        assert sorted(manifest.stages) == sorted(STAGES)

    def test_config_change_refused_without_force(self, tmp_path):
        config = mini_config(tmp_path)
        run_stage("build-lexicon", config)
        changed = mini_config(tmp_path, seed_override=99)
        with pytest.raises(StageError, match="--force"):
            run_stage("build-lexicon", changed)

    def test_fingerprints_pinned(self):
        """A refactor of config or artifact code must not make existing run
        directories re-run: the mini config's checksum and every stage
        fingerprint keep their values (paths taken relative to the repo)."""

        def relative(value):
            if isinstance(value, dict):
                return {k: relative(v) for k, v in value.items()}
            if isinstance(value, list):
                return [relative(v) for v in value]
            if isinstance(value, str) and value.startswith(f"{ROOT}/"):
                return Path(value).relative_to(ROOT).as_posix()
            return value

        effective = relative(load_config(DATA_DIR / "config.json").effective_dict())
        checksum, fingerprints = config_fingerprints(effective)
        assert checksum == "21bd03fbd05840a6851d95f7fd947544a15f016524ce99fe8f019f8df00aefa7"
        assert fingerprints == {
            "build-lexicon": "62a863de62a709dc70b44ae7572c8fefa0ed89327676dc1490316c9fe8ccb28b",
            "train-hscorer": "5f163f40b446b856b8b51c76b4c4748c323f986425890576cf6c55b11ae5f424",
            "filter": "aab9508249f17aed5382a0a9b3b734f0b5f2c1f8319cf5bd9851e7822d0aaabc",
            "narrow": "6ff4587907c9f54906b3d08e3b425be8a4aa851575c9615d20caa9e352dd6db5",
            "dispatch": "2f5e4c4868fea859701a580e22b70b30b642fa8d183c9da48b29f0f806f42496",
            "validate": "0811e0e2244cb2d86c5e8358c70c97ff390034f99bfe733fb35a090a8364cf42",
            "analyze": "1dc7ada10d7c140f28e41ebfb84cf768648110cf6005ad74e470d8cbf7f93dee",
            "report": "b5fc36150818b28d66b366014a19760fb243ae456bb7e9e8674b803d5eed7b88",
        }

    def test_force_resets_downstream(self, tmp_path):
        config = mini_config(tmp_path)
        run_stage("build-lexicon", config)
        run_stage("train-hscorer", config)
        run_stage("filter", config)
        manifest = run_stage("build-lexicon", config, force=True)
        assert "build-lexicon" in manifest.stages
        assert "filter" not in manifest.stages


def record_stage_runs(monkeypatch):
    """Log the name of every stage function that runs from now on."""
    ran = []

    def logged(name, func):
        def run(*args):
            ran.append(name)
            return func(*args)
        return run

    for name, func in list(stages._STAGE_FUNCS.items()):
        monkeypatch.setitem(stages._STAGE_FUNCS, name, logged(name, func))
    return ran


class TestStageGraph:
    def test_dependencies_come_first(self):
        for stage in STAGES:
            for dependency in STAGE_DEPS[stage]:
                assert STAGES.index(dependency) < STAGES.index(stage)

    def test_every_config_key_belongs_to_a_stage(self):
        # A key no stage claims would pass the --force gate but invalidate nothing.
        claimed = {key for keys in STAGE_CONFIG_KEYS.values() for key in keys}
        effective = load_config(DATA_DIR / "config.json").effective_dict()
        assert set(effective) <= claimed

    def test_with_dependents(self):
        assert with_dependents(["train-hscorer"]) == ["train-hscorer"]
        assert with_dependents(["build-lexicon"]) == [
            s for s in STAGES if s != "train-hscorer"
        ]
        assert with_dependents(["report", "dispatch"]) == [
            "dispatch", "validate", "analyze", "report",
        ]

    def test_train_hscorer_needs_no_stage(self, tmp_path):
        assert run_stage("train-hscorer", mini_config(tmp_path)).is_complete("train-hscorer")

    @pytest.mark.parametrize("stage", ["validate", "analyze", "report"])
    def test_lexicon_readers_require_the_lexicon(self, tmp_path, stage):
        config = mini_config(tmp_path)
        run_all(config, mock_transport=MOCK)
        with open(config.output_dir / "lexicon/mg.jsonl", "a", encoding="utf-8") as fp:
            fp.write("\n")
        with pytest.raises(StageError, match="requires completed stage 'build-lexicon'"):
            run_stage(stage, config, force=True, mock_transport=MOCK)

    def test_hscorer_change_reruns_train_hscorer_only(self, tmp_path, monkeypatch):
        config = mini_config(tmp_path)
        run_all(config, mock_transport=MOCK)
        before = tree_bytes(config.output_dir)
        ran = record_stage_runs(monkeypatch)
        config.hscorer.split_seed += 1
        manifest = run_all(config, force=True, mock_transport=MOCK)
        assert ran == ["train-hscorer"]
        assert all(manifest.is_complete(s) for s in STAGES)
        after = tree_bytes(config.output_dir)
        for tree in (before, after):
            for name in [n for n in tree if n.startswith("hscorer/") or n == "manifest.json"]:
                del tree[name]
        assert after == before

    def test_unchanged_config_force_runs_nothing(self, tmp_path, monkeypatch):
        config = mini_config(tmp_path)
        run_all(config, mock_transport=MOCK)
        manifest_path = config.output_dir / "manifest.json"
        before = manifest_path.read_bytes()
        ran = record_stage_runs(monkeypatch)
        run_all(config, force=True, mock_transport=MOCK)
        assert ran == []
        assert manifest_path.read_bytes() == before

    def test_count_unvalidated_change_reruns_analyze_and_report(self, tmp_path, monkeypatch):
        config = mini_config(tmp_path / "resumed")
        run_all(config, mock_transport=MOCK)
        ran = record_stage_runs(monkeypatch)
        config.count_unvalidated = not config.count_unvalidated
        run_all(config, force=True, mock_transport=MOCK)
        assert ran == ["analyze", "report"]

        fresh = mini_config(tmp_path / "fresh")
        fresh.count_unvalidated = config.count_unvalidated
        run_all(fresh, mock_transport=MOCK)
        assert tree_bytes(config.output_dir / "report") == tree_bytes(
            fresh.output_dir / "report"
        )

    def test_forced_train_hscorer_keeps_the_audit_complete(self, tmp_path):
        config = mini_config(tmp_path)
        run_all(config, mock_transport=MOCK)
        manifest = run_stage("train-hscorer", config, force=True)
        assert all(manifest.is_complete(s) for s in STAGES)

    def test_stopped_stage_leaves_dependents_stale(self, tmp_path, monkeypatch):
        config = mini_config(tmp_path)
        run_all(config, mock_transport=MOCK)

        def stopped(*args):
            raise Killed

        monkeypatch.setitem(stages._STAGE_FUNCS, "narrow", stopped)
        with pytest.raises(Killed):
            run_stage("narrow", config, force=True)
        manifest = RunManifest.load(config.output_dir)
        assert [s for s in STAGES if s in manifest.stages] == [
            "build-lexicon", "train-hscorer", "filter",
        ]


class TestNerLayerRequired:
    def test_unannotated_corpora_are_fatal(self, tmp_path):
        from mg_audit.conllu import read_conllu, write_conllu
        from mg_audit.conllu import AnnotatedToken, AnnotatedDocument

        stripped_dir = tmp_path / "stripped"
        stripped_dir.mkdir()
        config = mini_config(tmp_path)
        for dataset, path in config.corpora.items():
            docs = []
            for doc in read_conllu(path, dataset_tag=dataset):
                sentences = tuple(
                    tuple(
                        AnnotatedToken(
                            form=t.form, lemma=t.lemma, upos=t.upos, feats=t.feats,
                            head=t.head, deprel=t.deprel, ner=None,
                            space_after=t.space_after,
                        )
                        for t in sentence
                    )
                    for sentence in doc.sentences
                )
                docs.append(AnnotatedDocument(doc_id=doc.doc_id, sentences=sentences,
                                              dataset_tag=dataset))
            write_conllu(docs, stripped_dir / f"{dataset}.conllu")
            config.corpora[dataset] = stripped_dir / f"{dataset}.conllu"

        run_stage("build-lexicon", config)
        with pytest.raises(StageError, match="NER"):
            run_stage("filter", config)

        config.ner_optional = True
        # config changed, so the opt-out run must be forced
        run_stage("filter", config, force=True)


def tree_bytes(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestAnalyzeInputs:
    def test_analyze_reads_only_validate_artifacts(self, tmp_path, completed):
        config = mini_config(tmp_path)
        copies = tmp_path / "responses"
        copies.mkdir()
        for model in config.models:
            copy = copies / model.response_annotations.name
            shutil.copyfile(model.response_annotations, copy)
            model.response_annotations = copy
        for stage in STAGES[: STAGES.index("validate") + 1]:
            run_stage(stage, config, mock_transport=MOCK)
        for model in config.models:
            model.response_annotations.write_text("", encoding="utf-8")
        run_stage("analyze", config)
        run_stage("report", config)
        untouched, _ = completed
        assert tree_bytes(config.output_dir / "report") == tree_bytes(
            untouched.output_dir / "report"
        )

    def test_count_unvalidated_reruns_analyze_only(self, tmp_path):
        config = mini_config(tmp_path)
        run_all(config, mock_transport=MOCK)
        validate_before = tree_bytes(config.output_dir / "validate")
        config.count_unvalidated = not config.count_unvalidated
        manifest = run_stage("analyze", config, force=True)
        assert all(manifest.is_complete(s) for s in STAGES[: STAGES.index("analyze") + 1])
        assert not manifest.is_complete("report")
        assert tree_bytes(config.output_dir / "validate") == validate_before

    def test_given_names_change_requires_validate_first(self, tmp_path):
        config = mini_config(tmp_path)
        run_all(config, mock_transport=MOCK)
        names = tmp_path / "given_names.txt"
        names.write_text(
            config.given_names.read_text(encoding="utf-8") + "zoé\n", encoding="utf-8"
        )
        config.given_names = names
        with pytest.raises(StageError, match="requires completed stage 'validate'"):
            run_stage("analyze", config, force=True)
        manifest = RunManifest.load(config.output_dir)
        assert [s for s in STAGES if manifest.is_complete(s)] == [
            "build-lexicon", "train-hscorer",
        ]
        for stage in STAGES[STAGES.index("filter") : STAGES.index("validate") + 1]:
            run_stage(stage, config, mock_transport=MOCK)
        assert run_stage("analyze", config).is_complete("analyze")


def patch_transport(monkeypatch, fault=None):
    """Make the stages replay fixtures through a transport that logs each
    call's request id and may inject `fault(request_id, calls)` first: the
    fault raises, returns a result to use instead, or returns None."""
    calls = []

    class Faulty(MockTransport):
        def complete(self, request_id, messages, config):
            calls.append(request_id)
            injected = fault(request_id, calls) if fault is not None else None
            if injected is not None:
                return injected
            return super().complete(request_id, messages, config)

    monkeypatch.setattr("mg_audit.stages.MockTransport", Faulty)
    return calls


def jsonl_records(path):
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp]


class Killed(BaseException):
    """Stands in for the process being killed mid-run."""


class TestValidationFaults:
    def test_flaky_validator_gives_clean_report(self, tmp_path, monkeypatch, completed):
        def flaky(request_id, calls):
            if request_id.startswith("validate::") and calls.count(request_id) <= 2:
                raise TransportError("rate limited")

        calls = patch_transport(monkeypatch, flaky)
        config = mini_config(tmp_path)
        run_all(config, mock_transport=MOCK)
        clean, _ = completed
        assert tree_bytes(config.output_dir / "report") == tree_bytes(clean.output_dir / "report")
        validated = 0
        for model in ("modela", "modelb"):
            stored = ExchangeStore(config.output_dir / f"validate/{model}/exchanges.jsonl").load()
            assert stored and all(e.attempt_count == 3 for e in stored.values())
            validated += len(stored)
            verdicts = f"validate/{model}/verdicts.jsonl"
            assert (config.output_dir / verdicts).read_bytes() == (
                clean.output_dir / verdicts
            ).read_bytes()
        assert len(calls) == 24 + 3 * validated

    def test_failing_doc_counts_as_unvalidated(self, tmp_path, monkeypatch, completed):
        target = "validate::modela::alpaca-01"

        def down(request_id, calls):
            if request_id == target:
                raise TransportError("validator down")

        calls = patch_transport(monkeypatch, down)
        config = mini_config(tmp_path)
        manifest = run_all(config, mock_transport=MOCK)
        assert all(manifest.is_complete(s) for s in STAGES)
        assert calls.count(target) == 3

        clean, _ = completed
        path = "validate/modela/verdicts.jsonl"
        expected = {r["doc_id"]: r for r in jsonl_records(clean.output_dir / path)}
        records = {r["doc_id"]: r for r in jsonl_records(config.output_dir / path)}
        assert expected.pop("alpaca-01")["verdicts"] == {"médecin": 1}
        assert records.pop("alpaca-01") == {
            "doc_id": "alpaca-01", "verdicts": {}, "missing": ["médecin"],
            "extraneous": [], "parse_error": "validator down",
        }
        assert records == expected
        stored = ExchangeStore(config.output_dir / "validate/modela/exchanges.jsonl").load()
        assert stored[target].status == "error"

    def test_empty_validator_reply_is_unparseable(self, tmp_path, monkeypatch, completed):
        target = "validate::modela::alpaca-01"

        def empty(request_id, calls):
            return TransportResult(text="") if request_id == target else None

        calls = patch_transport(monkeypatch, empty)
        config = mini_config(tmp_path)
        run_all(config, mock_transport=MOCK)
        assert calls.count(target) == 1  # an empty reply is not retried

        clean, _ = completed
        path = "validate/modela/verdicts.jsonl"
        expected = {r["doc_id"]: r for r in jsonl_records(clean.output_dir / path)}
        records = {r["doc_id"]: r for r in jsonl_records(config.output_dir / path)}
        expected.pop("alpaca-01")
        # the record an empty reply has always given: parsed like any reply
        assert records.pop("alpaca-01") == {
            "doc_id": "alpaca-01", "verdicts": {}, "missing": [],
            "extraneous": [], "parse_error": "no JSON object found in response",
        }
        assert records == expected


class TestResumeRequests:
    def test_killed_run_resends_only_missing_ids(self, tmp_path, monkeypatch, completed):
        config = mini_config(tmp_path)
        for stage in STAGES[: STAGES.index("dispatch")]:
            run_stage(stage, config, mock_transport=MOCK)

        def kill(request_id, calls):
            if len(calls) > 5:
                raise Killed

        patch_transport(monkeypatch, kill)
        with pytest.raises(Killed):
            run_all(config, mock_transport=MOCK)
        store_path = config.output_dir / "dispatch/exchanges/modela.jsonl"
        stored = set(ExchangeStore(store_path).load())
        assert len(stored) == 5
        with open(store_path, "a", encoding="utf-8") as fp:
            fp.write('{"instruction_id": "alpaca-0')  # the append the kill cut short

        calls = patch_transport(monkeypatch)
        run_all(config, mock_transport=MOCK)
        ids = [r["doc_id"] for r in jsonl_records(config.output_dir / "narrow/instructions.jsonl")]
        sent = [c for c in calls if not c.startswith("validate::")]
        assert sent == [i for i in ids if i not in stored] + ids  # modela's rest, all of modelb
        clean, _ = completed
        assert tree_bytes(config.output_dir / "report") == tree_bytes(clean.output_dir / "report")

    def test_generation_change_resends_dispatch_only(self, tmp_path, monkeypatch):
        config = mini_config(tmp_path)
        run_all(config, mock_transport=MOCK)
        calls = patch_transport(monkeypatch)
        config.generation = dict(config.generation, temperature=0.3)
        run_all(config, force=True, mock_transport=MOCK)
        for model in ("modela", "modelb"):
            stored = ExchangeStore(config.output_dir / f"dispatch/exchanges/{model}.jsonl").load()
            assert {e.request["temperature"] for e in stored.values()} == {0.3}
        assert len(calls) == 24
        # the responses, hence the validation prompts, are unchanged
        assert not any(c.startswith("validate::") for c in calls)

    def test_changed_validation_prompt_is_sent_again(self, tmp_path, monkeypatch):
        config = mini_config(tmp_path)
        responses = config.models[0].response_annotations
        config.models[0].response_annotations = tmp_path / responses.name
        shutil.copyfile(responses, config.models[0].response_annotations)
        run_all(config, mock_transport=MOCK)

        # Same doc, same candidate, different wording: the prompt behind
        # validate::modela::alpaca-01 changes.
        edited = config.models[0].response_annotations
        text = edited.read_text(encoding="utf-8")
        edited.write_text(text.replace("persiste\tpersister", "continue\tcontinuer", 1),
                          encoding="utf-8")
        calls = patch_transport(monkeypatch)
        run_stage("validate", config, force=True, mock_transport=MOCK)
        assert calls == ["validate::modela::alpaca-01"]
        stored = ExchangeStore(config.output_dir / "validate/modela/exchanges.jsonl").load()
        prompt = stored["validate::modela::alpaca-01"].request["messages"][-1]["content"]
        assert "Text: Consultez un médecin si la douleur continue." in prompt


class TestUnvalidatedPolicy:
    def test_count_unvalidated_affects_counts(self, tmp_path):
        from mg_audit.analysis import load_analyses

        excl = mini_config(tmp_path / "excl")
        run_all(excl, mock_transport=MOCK)

        incl = mini_config(tmp_path / "incl")
        incl.count_unvalidated = True
        run_all(incl, mock_transport=MOCK)

        def totals(config):
            hn = 0
            for model in ("modela", "modelb"):
                for analysis in load_analyses(
                    config.output_dir / f"analyze/analyses/{model}.jsonl"
                ):
                    hn += analysis.hn_count
            return hn

        # every surviving candidate got a verdict in the fixtures, so the
        # two policies agree here; the knob is exercised end to end
        assert totals(incl) >= totals(excl)


class TestCLI:
    def write_cli_config(self, tmp_path):
        raw = json.loads((DATA_DIR / "config.json").read_text(encoding="utf-8"))

        def absolutize(value):
            return str((DATA_DIR / value).resolve())

        raw["output_dir"] = str(tmp_path / "out")
        for source in raw["lexicon_sources"]:
            source["path"] = absolutize(source["path"])
        for key in ("class_gold", "class_predicted", "class_mapping", "stoplist",
                    "given_names", "marker_lexicon"):
            raw[key] = absolutize(raw[key])
        for key in ("wordnet_snapshot", "indicators", "prototypes", "embeddings",
                    "suffixes", "golden_hn", "golden_non_hn"):
            raw["hscorer"][key] = absolutize(raw["hscorer"][key])
        raw["corpora"] = {k: absolutize(v) for k, v in raw["corpora"].items()}
        for model in raw["models"]:
            model["response_annotations"] = absolutize(model["response_annotations"])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        return path

    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "mg_audit.cli", *args],
            capture_output=True,
            text=True,
        )

    def test_full_pipeline_via_cli(self, tmp_path):
        config_path = self.write_cli_config(tmp_path)
        result = self.run_cli(
            "all", "--config", str(config_path), "--mock-transport", str(MOCK)
        )
        assert result.returncode == 0, result.stderr
        assert "completed stages:" in result.stdout
        assert (tmp_path / "out/report/report.json").exists()

    def test_stage_out_of_order_reports_error(self, tmp_path):
        config_path = self.write_cli_config(tmp_path)
        result = self.run_cli("report", "--config", str(config_path))
        assert result.returncode == 1
        assert "requires completed stage" in result.stderr

    def test_target_override(self, tmp_path):
        config_path = self.write_cli_config(tmp_path)
        for stage in ("build-lexicon", "filter"):
            assert self.run_cli(stage, "--config", str(config_path)).returncode == 0
        result = self.run_cli(
            "narrow", "--config", str(config_path), "--target", "8", "--force"
        )
        assert result.returncode == 0, result.stderr
        quotas = json.loads((tmp_path / "out/narrow/quotas.json").read_text())
        assert sum(quotas.values()) == 8

    def test_missing_input_path_fails_fast(self, tmp_path):
        config_path = self.write_cli_config(tmp_path)
        raw = json.loads(config_path.read_text(encoding="utf-8"))
        raw["stoplist"] = str(tmp_path / "missing.txt")
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        result = self.run_cli("build-lexicon", "--config", str(config_path))
        assert result.returncode == 1
        assert "missing configured inputs" in result.stderr
