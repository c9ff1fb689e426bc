import gc
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR

from mg_audit import ioutil
from mg_audit.config import _DEPLOYMENT_FIELDS, _read, load_config
from mg_audit.dispatch import ExchangeStore
from mg_audit.ioutil import handoff
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

    def test_mg_jsonl_holds_the_masculine_generic_lexicon_lines(self, completed):
        config, _ = completed
        lexicon_dir = config.output_dir / "lexicon"
        with open(lexicon_dir / "lexicon.jsonl", encoding="utf-8") as fp:
            lines = list(fp)
        expected = [
            line for line, record in zip(lines, map(json.loads, lines))
            if record["gender"] == "masculine" and not record["epicene"]
        ]
        assert 0 < len(expected) < len(lines)
        assert (lexicon_dir / "mg.jsonl").read_text(encoding="utf-8") == "".join(expected)

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

    def test_narrow_sends_the_filtered_text(self, completed):
        config, _ = completed
        from mg_audit.conllu import read_conllu
        from mg_audit.filters import filter_document, load_wordlist
        from mg_audit.ioutil import read_jsonl
        from mg_audit.lexicon import HumanNounDB, MGLexicon

        out = config.output_dir
        db = HumanNounDB.load_jsonl(out / "lexicon/lexicon.jsonl")
        mg = MGLexicon.load_jsonl(out / "lexicon/mg.jsonl")
        given_names = load_wordlist(config.given_names)
        instructions = list(read_jsonl(out / "narrow/instructions.jsonl"))
        assert len(instructions) == 12
        raw, filtered = {}, {}
        for dataset in {record["dataset"] for record in instructions}:
            for doc in read_conllu(config.corpora[dataset], dataset_tag=dataset):
                raw[dataset, doc.doc_id] = doc.text
                filtered[dataset, doc.doc_id] = filter_document(
                    doc, mg, db, given_names, det_attachment=config.det_attachment,
                    jargon_dataset_tags=frozenset(config.jargon_datasets),
                )[0].text
        keys = [(record["dataset"], record["doc_id"]) for record in instructions]
        assert [record["text"] for record in instructions] == [filtered[key] for key in keys]
        # At least one narrowed document lost a jargon sentence to the filter.
        assert any(filtered[key] != raw[key] for key in keys)

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


@pytest.fixture(scope="module")
def generated_audit(tmp_path_factory):
    """A small generated audit tree: config.json, corpus/ and fixtures/."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(ROOT / "perfbench"))
        import gen

        root = tmp_path_factory.mktemp("generated") / "audit"
        gen.build_audit(root, 3, 300, 40, 100)
    return root


def generated_config(root, tmp_path):
    config = load_config(root / "config.json")
    config.output_dir = tmp_path / "out"
    return config


class TestLexiconLoads:
    """Stages load the lexicon from its files. Inside run_all, a load returns
    build-lexicon's objects, and a file whose bytes did not change is parsed
    at most once."""

    def count_parses(self, monkeypatch):
        """Calls to the entry parser, and each loader's results by class."""
        from mg_audit import lexicon

        parses = []
        read_entries = lexicon._read_entries
        monkeypatch.setattr(lexicon, "_read_entries",
                            lambda lines: parses.append(1) or read_entries(lines))
        loaded = {lexicon.HumanNounDB: [], lexicon.MGLexicon: []}

        def counted(load):
            def wrapper(cls, path):
                loaded[cls].append(load(cls, path))
                return loaded[cls][-1]
            return classmethod(wrapper)

        for cls in loaded:
            monkeypatch.setattr(cls, "load_jsonl", counted(cls.__dict__["load_jsonl"].__func__))
        return parses, loaded

    def test_run_all_parses_no_lexicon_file(self, tmp_path, monkeypatch):
        parses, loaded = self.count_parses(monkeypatch)
        run_all(mini_config(tmp_path), mock_transport=MOCK)
        assert ioutil._HANDOFF is None
        assert len(parses) == 0  # every load takes build-lexicon's objects
        for objects in loaded.values():
            assert len(objects) == 4  # filter, validate, analyze, report
            assert all(obj is objects[0] for obj in objects)

    def test_a_run_without_build_lexicons_objects_parses_each_file_once(
        self, tmp_path, monkeypatch
    ):
        parses, loaded = self.count_parses(monkeypatch)
        build = stages._STAGE_FUNCS["build-lexicon"]

        def build_then_forget(*args):
            outputs = build(*args)
            for path in outputs[:2]:  # as if build-lexicon ran in another process
                del ioutil._HANDOFF[os.path.abspath(path)]
            return outputs

        monkeypatch.setitem(stages._STAGE_FUNCS, "build-lexicon", build_then_forget)
        run_all(mini_config(tmp_path), mock_transport=MOCK)
        assert len(parses) == 2
        for objects in loaded.values():
            assert len(objects) == 4
            assert all(obj is objects[0] for obj in objects)

    def test_line_separator_lemmas_survive_build_and_load(self, tmp_path):
        root = shutil.copytree(DATA_DIR, tmp_path / "mini", ignore=shutil.ignore_patterns("out"))
        lemmas = {"garde\u2028chasse", "garde\x85pêche"}
        with open(root / "sources/nhuma.csv", "a", encoding="utf-8") as fp:
            fp.writelines(f"{lemma},masculine,profession\n" for lemma in sorted(lemmas))
        config = load_config(root / "config.json")
        run_stage("build-lexicon", config)
        streamed = stages._load_lexicon(config.output_dir)  # parsed from the open file
        with handoff():
            hashed = stages._load_lexicon(config.output_dir)  # parsed from the bytes hashed
        for db, mg in (streamed, hashed):
            assert lemmas <= db.lemmas and lemmas <= mg.lemmas
            assert db.class_of("garde\u2028chasse") == "profession"


class TestMgView:
    """mg.jsonl lists exactly the masculine generics of lexicon.jsonl, in order."""

    def assert_mg_is_view(self, lexicon_dir):
        from mg_audit.lexicon import HumanNounDB, MGLexicon, extract_mg_subset

        assert ioutil._HANDOFF is None  # parse the files, not build-lexicon's objects
        mg = list(MGLexicon.load_jsonl(lexicon_dir / "mg.jsonl"))
        assert mg == list(extract_mg_subset(HumanNounDB.load_jsonl(lexicon_dir / "lexicon.jsonl")))
        return mg

    def test_mini(self, completed):
        config, _ = completed
        assert self.assert_mg_is_view(config.output_dir / "lexicon")

    def test_generated_audit(self, generated_audit, tmp_path):
        config = generated_config(generated_audit, tmp_path)
        run_stage("build-lexicon", config)
        assert len(self.assert_mg_is_view(config.output_dir / "lexicon")) > 100


class TestPrimedLexicon:
    """The objects build-lexicon leaves for later loads equal a parse of the
    files it wrote, and answer only a load of their own class."""

    LEXICON_FILES = ("lexicon.jsonl", "mg.jsonl")

    def assert_primed_equal_parse(self, config):
        lexicon_dir = config.output_dir / "lexicon"
        with handoff():
            run_stage("build-lexicon", config)
            primed = [ioutil._HANDOFF[os.path.abspath(lexicon_dir / name)][1]
                      for name in self.LEXICON_FILES]
            loaded = stages._load_lexicon(config.output_dir)
            assert all(ours is load for ours, load in zip(primed, loaded))
        parsed = stages._load_lexicon(config.output_dir)
        for ours, theirs in zip(primed, parsed):
            assert ours is not theirs
            assert ours == theirs
            assert list(ours) == list(theirs)
        return parsed

    def test_mini(self, tmp_path):
        db, mg = self.assert_primed_equal_parse(mini_config(tmp_path))
        assert len(mg) and len(db) > len(mg)

    def test_generated_audit(self, generated_audit, tmp_path):
        config = generated_config(generated_audit, tmp_path)
        _, mg = self.assert_primed_equal_parse(config)
        assert len(mg) > 100

    def test_a_slot_answers_only_a_load_of_its_class(self, tmp_path):
        from mg_audit.lexicon import HumanNounDB, MGLexicon

        config = mini_config(tmp_path)
        lexicon_path, mg_path = (config.output_dir / "lexicon" / name
                                 for name in self.LEXICON_FILES)
        with handoff():
            run_stage("build-lexicon", config)
            with pytest.raises(ValueError, match="not a masculine-generic entry"):
                MGLexicon.load_jsonl(lexicon_path)  # parsed, not build-lexicon's database
            assert type(HumanNounDB.load_jsonl(lexicon_path)) is HumanNounDB
            mg_as_db = HumanNounDB.load_jsonl(mg_path)
            assert type(mg_as_db) is HumanNounDB and len(mg_as_db) > 0
            mg = MGLexicon.load_jsonl(mg_path)
            assert type(mg) is MGLexicon
            assert [entry.lemma for entry in mg] == sorted(mg_as_db.lemmas)


class TestConlluHandoff:
    """Inside run_all, the CoNLL-U documents one stage writes are handed to
    the stage that reads them, and equal a parse of the file."""

    def record_handoffs(self, monkeypatch):
        """(path, dataset tag, documents) of each read_conllu answered from a slot."""
        taken = []
        read = stages.read_conllu

        def recording(path, dataset_tag=""):
            slot = (ioutil._HANDOFF or {}).get(os.path.abspath(path))
            documents = read(path, dataset_tag=dataset_tag)
            if slot is not None and documents is slot[1]:
                taken.append((path, dataset_tag, documents))
            return documents

        monkeypatch.setattr(stages, "read_conllu", recording)
        return taken

    def assert_handoffs_equal_parses(self, config, mock, monkeypatch):
        from mg_audit import conllu

        taken = self.record_handoffs(monkeypatch)
        run_all(config, mock_transport=mock)
        assert ioutil._HANDOFF is None
        kept = [config.output_dir / f"filter/kept/{dataset}.conllu"
                for dataset in sorted(config.corpora)]
        kept += [config.output_dir / f"validate/{model.model_id}/kept.conllu"
                 for model in config.models]
        assert [path for path, _, _ in taken] == kept
        for path, dataset_tag, documents in taken:
            assert documents == conllu.read_conllu(path, dataset_tag=dataset_tag)
        assert sum(len(documents) for _, _, documents in taken) > 0

    def test_mini(self, tmp_path, monkeypatch):
        self.assert_handoffs_equal_parses(mini_config(tmp_path), MOCK, monkeypatch)

    def test_generated_audit(self, generated_audit, tmp_path, monkeypatch):
        config = generated_config(generated_audit, tmp_path)
        self.assert_handoffs_equal_parses(config, generated_audit / "fixtures", monkeypatch)

    def test_no_slot_outlives_a_failed_run(self, tmp_path, monkeypatch):
        waiting = []

        def failing_narrow(config, out, mock_dir):
            waiting.extend(ioutil._HANDOFF)
            raise StageError("narrow failed")

        monkeypatch.setitem(stages._STAGE_FUNCS, "narrow", failing_narrow)
        config = mini_config(tmp_path)
        with pytest.raises(StageError, match="narrow failed"):
            run_all(config, mock_transport=MOCK)
        assert sorted(waiting) == sorted(
            os.path.abspath(config.output_dir / rel)
            for rel in ["lexicon/lexicon.jsonl", "lexicon/mg.jsonl"]
            + [f"filter/kept/{dataset}.conllu" for dataset in config.corpora]
        )
        assert ioutil._HANDOFF is None


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
        directories re-run: every stage fingerprint of the mini config keeps
        its value (paths taken relative to the repo)."""

        def relative(value):
            if isinstance(value, dict):
                return {k: relative(v) for k, v in value.items()}
            if isinstance(value, list):
                return [relative(v) for v in value]
            if isinstance(value, str) and value.startswith(f"{ROOT}/"):
                return Path(value).relative_to(ROOT).as_posix()
            return value

        effective = relative(load_config(DATA_DIR / "config.json").effective_dict())
        assert config_fingerprints(effective) == {
            "build-lexicon": "62a863de62a709dc70b44ae7572c8fefa0ed89327676dc1490316c9fe8ccb28b",
            "train-hscorer": "5f163f40b446b856b8b51c76b4c4748c323f986425890576cf6c55b11ae5f424",
            "filter": "aab9508249f17aed5382a0a9b3b734f0b5f2c1f8319cf5bd9851e7822d0aaabc",
            "narrow": "6ff4587907c9f54906b3d08e3b425be8a4aa851575c9615d20caa9e352dd6db5",
            "dispatch": "2f5e4c4868fea859701a580e22b70b30b642fa8d183c9da48b29f0f806f42496",
            "validate": "0811e0e2244cb2d86c5e8358c70c97ff390034f99bfe733fb35a090a8364cf42",
            "analyze": "1dc7ada10d7c140f28e41ebfb84cf768648110cf6005ad74e470d8cbf7f93dee",
            "report": "b5fc36150818b28d66b366014a19760fb243ae456bb7e9e8674b803d5eed7b88",
        }

    def test_manifest_with_a_config_checksum_resumes(self, tmp_path, monkeypatch):
        """Manifests once also held a checksum of the whole config; the stage
        fingerprints cover every key, so a run ignores it."""
        config = mini_config(tmp_path)
        run_all(config, mock_transport=MOCK)
        manifest_path = config.output_dir / "manifest.json"
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest_path.write_text(json.dumps(dict(payload, config_checksum="0" * 64)),
                                 encoding="utf-8")
        ran = record_stage_runs(monkeypatch)
        manifest = run_all(config, mock_transport=MOCK)
        assert ran == []
        assert manifest.stages == payload["stages"]

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


STAGE_EDGES = [(stage, dependency) for stage in STAGES for dependency in STAGE_DEPS[stage]]


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    """Output directory of one complete mini run; copy it before changing it."""
    config = mini_config(tmp_path_factory.mktemp("completed"))
    run_all(config, mock_transport=MOCK)
    return config.output_dir


class TestStageGraph:
    def test_dependencies_come_first(self):
        for stage in STAGES:
            for dependency in STAGE_DEPS[stage]:
                assert STAGES.index(dependency) < STAGES.index(stage)

    def test_every_config_key_belongs_to_a_stage(self):
        # A key no stage claims would pass the --force gate but invalidate nothing.
        # A claimed key the config lacks is a misspelling that never invalidates.
        claimed = {key for keys in STAGE_CONFIG_KEYS.values() for key in keys}
        effective = load_config(DATA_DIR / "config.json").effective_dict()
        assert set(effective) == claimed

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

    def test_word_in_both_golden_lists_stops_train_hscorer(self, tmp_path):
        config = mini_config(tmp_path)
        negatives = tmp_path / "golden_non_hn.txt"
        negatives.write_text(config.hscorer.golden_non_hn.read_text(encoding="utf-8")
                             + "médecin\npersonne\n", encoding="utf-8")
        config.hscorer.golden_non_hn = negatives
        message = ("hscorer.golden_hn and hscorer.golden_non_hn share 2 word(s), "
                   "first ['médecin', 'personne']")
        with pytest.raises(StageError, match=re.escape(message)):
            run_stage("train-hscorer", config)
        assert not (config.output_dir / "hscorer").exists()

    @pytest.mark.parametrize(
        "stage,dependency",
        STAGE_EDGES,
        # An edge from the lexicon is named by the reading stage alone.
        ids=[s if d == "build-lexicon" else f"{s}-{d}" for s, d in STAGE_EDGES],
    )
    def test_lexicon_readers_require_the_lexicon(
        self, tmp_path, completed_run, stage, dependency
    ):
        # The gate in run_stage is the only check that a stage's upstream
        # artifacts exist and are intact: each recorded output of the
        # dependency, missing or changed, must stop the stage.
        config = mini_config(tmp_path)
        shutil.copytree(completed_run, config.output_dir)
        manifest = RunManifest.load(config.output_dir)
        for rel in manifest.stages[dependency]:
            path = config.output_dir / rel
            intact = path.read_bytes()
            for damage in (path.unlink, lambda: path.write_bytes(intact + b"\n")):
                damage()
                with pytest.raises(
                    StageError, match=f"requires completed stage '{dependency}'"
                ):
                    run_stage(stage, config, force=True, mock_transport=MOCK)
                path.write_bytes(intact)

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

    def test_each_stage_reads_only_its_claimed_config_keys(self, tmp_path, monkeypatch):
        # A key a stage reads but does not claim would not re-run it when it changes.
        read = {stage: set() for stage in STAGES}

        class Recording:
            def __init__(self, config, stage):
                self.config, self.stage = config, stage

            def __getattr__(self, name):
                read[self.stage].add("generation" if name == "generation_config" else name)
                return getattr(self.config, name)

        def recorded(stage, func):
            return lambda config, *args: func(Recording(config, stage), *args)

        for stage, func in list(stages._STAGE_FUNCS.items()):
            monkeypatch.setitem(stages._STAGE_FUNCS, stage, recorded(stage, func))
        run_all(mini_config(tmp_path), mock_transport=MOCK)
        for stage in STAGES:
            assert read[stage], stage
            assert read[stage] <= set(STAGE_CONFIG_KEYS[stage]) | _DEPLOYMENT_FIELDS, stage

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


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
    def test_run_stage_restores_the_collector_state(
        self, tmp_path, monkeypatch, enabled, raises
    ):
        seen = []

        def stage(*args):
            seen.append(gc.isenabled())
            if raises:
                raise Killed
            return []

        monkeypatch.setitem(stages._STAGE_FUNCS, "build-lexicon", stage)
        config = mini_config(tmp_path)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if raises:
                with pytest.raises(Killed):
                    run_stage("build-lexicon", config)
            else:
                run_stage("build-lexicon", config)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert seen == [False]


def file_fields(raw, key=""):
    """(config key, container, index) of each string in raw config JSON
    that names a file of the mini corpus."""
    for index, value in (enumerate(raw) if isinstance(raw, list) else raw.items()):
        sub = f"{key}[{index}]" if isinstance(raw, list) else f"{key}.{index}" if key else index
        if isinstance(value, (dict, list)):
            yield from file_fields(value, sub)
        elif isinstance(value, str) and (DATA_DIR / value).is_file():
            yield sub, raw, index


MINI_FILE_KEYS = [key for key, _, _ in file_fields(
    json.loads((DATA_DIR / "config.json").read_text(encoding="utf-8"))
)]


class TestConfigInputs:
    def test_every_input_family_is_listed(self):
        assert len(MINI_FILE_KEYS) == 24
        assert {
            "stoplist", "given_names", "marker_lexicon", "class_gold",
            "class_predicted", "class_mapping", "lexicon_sources[4].path",
            "corpora.oasst2", "models[1].response_annotations",
            "hscorer.wordnet_snapshot", "hscorer.golden_non_hn",
        } <= set(MINI_FILE_KEYS)

    @pytest.mark.parametrize("missing_key", MINI_FILE_KEYS)
    def test_missing_input_is_named_by_its_config_key(self, tmp_path, missing_key):
        raw = json.loads((DATA_DIR / "config.json").read_text(encoding="utf-8"))
        missing = tmp_path / "missing.txt"
        for key, container, index in list(file_fields(raw)):
            container[index] = str(missing if key == missing_key
                                   else DATA_DIR / container[index])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(FileNotFoundError) as err:
            load_config(path).validate_paths()
        assert str(err.value) == f"missing configured inputs:\n  {missing_key}: {missing}"

    def test_ingest_report_does_not_depend_on_the_checkout(self, tmp_path):
        written = []
        for root in (tmp_path / "a", tmp_path / "b" / "deeper"):
            shutil.copytree(DATA_DIR, root / "mini")
            config = load_config(root / "mini" / "config.json")
            run_stage("build-lexicon", config)
            written.append((config.output_dir / "lexicon/ingest_report.json").read_bytes())
        assert written[0] == written[1]
        sources = json.loads(written[0])["sources"]
        assert sources[0]["path"] == "sources/demonette.csv"


# A malformed final line (no newline) appended to each mini source, with
# its expected error.
MALFORMED_SOURCE_LINES = {
    "sources/demonette.csv": (b"solo", "expected 2 columns, got 1"),
    "sources/wikidata.tsv": (b"acteur\tactrice\xff",
                             "'utf-8' codec can't decode byte 0xff in position 14: "
                             "invalid start byte"),
    "sources/nhuma.csv": (b"juge,neutre,profession", "bad gender 'neutre'"),
    "sources/wiktextract.jsonl": (b'{"word": "juge", "sen',
                                  "bad JSON: Unterminated string starting at"),
    "sources/tlfi_snapshot.jsonl": (b'{"lemma": "juge", "definitions": "Personne"}',
                                    "missing lemma or definitions"),
}


class TestMalformedSources:
    """A malformed source line is skipped and reported; the lexicon is unchanged."""

    def mini_with_bad_lines(self, root):
        shutil.copytree(DATA_DIR, root, ignore=shutil.ignore_patterns("out"))
        bad_lines = {}
        for name, (line, _) in MALFORMED_SOURCE_LINES.items():
            path = root / name
            data = path.read_bytes()
            path.write_bytes(data + line)
            bad_lines[name] = data.count(b"\n") + 1
        return load_config(root / "config.json"), bad_lines

    def test_build_lexicon_skips_only_the_bad_lines(self, tmp_path):
        clean = load_config(shutil.copytree(DATA_DIR, tmp_path / "clean",
                                            ignore=shutil.ignore_patterns("out")) / "config.json")
        run_stage("build-lexicon", clean)
        config, bad_lines = self.mini_with_bad_lines(tmp_path / "bad")
        run_stage("build-lexicon", config)
        for name in ("lexicon.jsonl", "mg.jsonl"):
            assert (config.output_dir / "lexicon" / name).read_bytes() == (
                clean.output_dir / "lexicon" / name).read_bytes()
        report = json.loads((config.output_dir / "lexicon/ingest_report.json").read_text())
        clean_report = json.loads((clean.output_dir / "lexicon/ingest_report.json").read_text())
        for source, clean_source in zip(report["sources"], clean_report["sources"]):
            _, message = MALFORMED_SOURCE_LINES[source["path"]]
            assert source["errors"] == [{"line_no": bad_lines[source["path"]], "message": message}]
            assert source["n_records"] == clean_source["n_records"] + 1
            assert source["n_entries"] == clean_source["n_entries"]

    def test_each_source_with_errors_logs_one_warning(self, tmp_path, caplog):
        config, bad_lines = self.mini_with_bad_lines(tmp_path / "bad")
        with caplog.at_level("WARNING", logger="mg_audit.stages"):
            run_stage("build-lexicon", config)
        adapters = {s.path.relative_to(config.config_path.parent).as_posix(): s.adapter
                    for s in config.lexicon_sources}
        assert sorted(r.getMessage() for r in caplog.records) == sorted(
            f"{adapters[name]} {name}: skipped 1 malformed record(s), the first at line {line_no}"
            for name, line_no in bad_lines.items()
        )


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


class TestRepeatedDocIds:
    """A doc id names one document: a repeat stops the run instead of one
    document silently replacing the other."""

    @pytest.mark.parametrize(
        "where, error, message",
        [("first", ValueError, "repeated doc id {doc_id!r}"),
         ("last", StageError, "doc id {doc_id!r} is in both corpora {first!r} and {last!r}")],
        ids=["same-corpus", "two-corpora"],
    )
    def test_repeated_id_stops_filter(self, tmp_path, where, error, message):
        config = mini_config(tmp_path)
        first, last = min(config.corpora), max(config.corpora)
        text = config.corpora[first].read_text(encoding="utf-8")
        repeated = text[:text.index("# newdoc", 1)]  # the first corpus's first document
        doc_id = repeated.split("\n", 1)[0].removeprefix("# newdoc id = ")
        target = first if where == "first" else last
        copy = tmp_path / f"{target}.conllu"
        copy.write_text(config.corpora[target].read_text(encoding="utf-8") + repeated,
                        encoding="utf-8")
        config.corpora[target] = copy
        run_stage("build-lexicon", config)
        with pytest.raises(error, match=re.escape(message.format(doc_id=doc_id, first=first, last=last))):
            run_stage("filter", config)


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
        for _, container, index in list(file_fields(raw)):
            container[index] = str((DATA_DIR / container[index]).resolve())
        raw["output_dir"] = str(tmp_path / "out")
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

    def test_unset_credential_reports_error(self, tmp_path, monkeypatch):
        config_path = self.write_cli_config(tmp_path)
        raw = json.loads(config_path.read_text(encoding="utf-8"))
        for model in raw["models"]:
            # Never contacted: the credential check comes before any request.
            model["provider"] = {"endpoint_url": "http://127.0.0.1:9/v1/chat/completions",
                                 "credential_env": "MG_AUDIT_TEST_UNSET_KEY",
                                 "model_id": model["model_id"]}
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        monkeypatch.delenv("MG_AUDIT_TEST_UNSET_KEY", raising=False)
        result = self.run_cli("all", "--config", str(config_path))
        assert result.returncode == 1
        assert "error: credential env var MG_AUDIT_TEST_UNSET_KEY is not set" in result.stderr
        assert "Traceback" not in result.stderr

    def test_missing_input_path_fails_fast(self, tmp_path):
        config_path = self.write_cli_config(tmp_path)
        raw = json.loads(config_path.read_text(encoding="utf-8"))
        raw["stoplist"] = str(tmp_path / "missing.txt")
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        result = self.run_cli("build-lexicon", "--config", str(config_path))
        assert result.returncode == 1
        assert "missing configured inputs" in result.stderr

    @pytest.mark.parametrize("key", ["class_gold", "class_predicted", "class_mapping"])
    @pytest.mark.parametrize("content, message", [
        ('{"médecin": ', "Expecting value: line 1 column 13 (char 12)"),
        ('["médecin"]', "expected a dict, got ['médecin']"),
    ], ids=["torn", "list"])
    def test_malformed_class_input_names_key_and_path(self, tmp_path, key, content, message):
        config_path = self.write_cli_config(tmp_path)
        raw = json.loads(config_path.read_text(encoding="utf-8"))
        bad = tmp_path / "bad.json"
        bad.write_text(content, encoding="utf-8")
        raw[key] = str(bad)
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        result = self.run_cli("build-lexicon", "--config", str(config_path))
        assert result.returncode == 1
        assert f"error: {key}: {bad}: {message}\n" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("key", ["class_gold", "class_predicted", "class_mapping"])
    def test_non_string_class_value_names_key_path_and_value(self, tmp_path, key):
        config_path = self.write_cli_config(tmp_path)
        raw = json.loads(config_path.read_text(encoding="utf-8"))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"médecin": 3}), encoding="utf-8")
        raw[key] = str(bad)
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        result = self.run_cli("build-lexicon", "--config", str(config_path))
        assert result.returncode == 1
        assert f"error: {key}: {bad}.médecin: expected str, got 3\n" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("key, labels", [
        ("class_gold", {"médecin": "robot"}),
        ("class_mapping", {"NH-Mét": "robot"}),
    ], ids=["gold", "mapped"])
    def test_invalid_class_label_names_key_and_path(self, tmp_path, key, labels):
        config_path = self.write_cli_config(tmp_path)
        raw = json.loads(config_path.read_text(encoding="utf-8"))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(labels), encoding="utf-8")
        raw[key] = str(bad)
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        result = self.run_cli("build-lexicon", "--config", str(config_path))
        assert result.returncode == 1
        assert f"error: {key}: {bad}: invalid hn_class: 'robot'\n" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw.update(count_unvalidatd=True),
         "config: unknown key(s) ['count_unvalidatd']"),
        (lambda raw: raw["hscorer"].update(split_sed=1),
         "hscorer: unknown key(s) ['split_sed']"),
        (lambda raw: raw["models"][0].update(provider={
            "endpoint_url": "http://127.0.0.1:9/v1", "credential_env": "KEY",
            "model_id": "m", "timout": 5}),
         "models[0].provider: unknown key(s) ['timout']"),
        (lambda raw: raw.pop("stoplist"), "stoplist: missing required key"),
        (lambda raw: raw["models"][1].pop("model_id"), "models[1].model_id: missing required key"),
        (lambda raw: raw["hscorer"].update(lr={"c": 0.001}), "hscorer.lr: unknown key(s) ['c']"),
        (lambda raw: raw["hscorer"].update(gbt={"n_estimator": 3}),
         "hscorer.gbt: unknown key(s) ['n_estimator']"),
        (lambda raw: raw["generation"].update(temprature=0.2),
         "generation: unknown key(s) ['temprature']"),
        (lambda raw: raw.update(seed="seven"), "seed: expected int, got 'seven'"),
        (lambda raw: raw.update(models={}), "models: expected a list, got {}"),
        (lambda raw: raw.update(count_unvalidated="false"),
         "count_unvalidated: expected bool, got 'false'"),
        (lambda raw: raw.update(det_attachment=3), "det_attachment: expected str, got 3"),
        (lambda raw: raw.update(seed=1.7), "seed: expected int, got 1.7"),
        (lambda raw: raw.update(seed=True), "seed: expected int, got True"),
        (lambda raw: raw["generation"].update(temperature=True),
         "generation.temperature: expected float, got True"),
        (lambda raw: raw["generation"].update(temperature="hot"),
         "generation.temperature: expected float, got 'hot'"),
        (lambda raw: raw["generation"].update(temperature=-1),
         "generation: temperature must be >= 0"),
        (lambda raw: raw.update(det_attachment="near"),
         "det_attachment: expected one of ['dep', 'adjacent'], got 'near'"),
        (lambda raw: raw["hscorer"].update(lr={"C": "big"}),
         "hscorer.lr.C: expected float, got 'big'"),
        (lambda raw: raw["hscorer"].update(gbt={"learning_rate": "0.3"}),
         "hscorer.gbt.learning_rate: expected float, got '0.3'"),
        (lambda raw: raw["hscorer"].update(lr={"C": 0}), "hscorer.lr: C must be > 0"),
        (lambda raw: raw["hscorer"].update(gbt={"subsample": 0.0}),
         "hscorer.gbt: subsample must be in (0, 1]"),
    ], ids=["unknown", "unknown-nested", "unknown-provider", "missing", "missing-nested",
            "lr-name", "gbt-name", "generation-name", "bad-int", "bad-list",
            "str-for-bool", "int-for-str", "float-for-int", "bool-for-int", "bool-for-float",
            "bad-temperature", "negative-temperature", "unknown-det-attachment",
            "lr-value", "gbt-value", "lr-range", "gbt-range"])
    def test_config_schema_errors_name_the_key(self, tmp_path, edit, message):
        # Every config fault stops a full run before its first stage.
        config_path = self.write_cli_config(tmp_path)
        raw = json.loads(config_path.read_text(encoding="utf-8"))
        edit(raw)
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        result = self.run_cli("all", "--config", str(config_path), "--mock-transport", str(MOCK))
        assert result.returncode == 1
        assert result.stderr == f"error: {message}\n"
        assert not (tmp_path / "out/lexicon").exists()

    @pytest.mark.parametrize("section, values, message", [
        ("lr", {"C": 0}, "hscorer.lr: C must be > 0"),
        ("lr", {"tol": -1}, "hscorer.lr: tol must be > 0"),
        ("gbt", {"max_depth": -1}, "hscorer.gbt: max_depth must be >= 0"),
        ("gbt", {"colsample_bytree": 0}, "hscorer.gbt: colsample_bytree must be in (0, 1]"),
    ], ids=["C-zero", "tol-negative", "depth-negative", "colsample-zero"])
    def test_out_of_range_scorer_parameter_fails_at_load(self, tmp_path, section, values,
                                                         message):
        config_path = self.write_cli_config(tmp_path)
        raw = json.loads(config_path.read_text(encoding="utf-8"))
        raw["hscorer"][section] = values
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(config_path)

    def test_read_fills_tuple_and_frozenset(self):
        assert _read(tuple[str, ...], ["a", "b", "a"], "k") == ("a", "b", "a")
        assert _read(frozenset[str], ["a", "b", "a"], "k") == frozenset({"a", "b"})
        with pytest.raises(ValueError, match=re.escape("k[1]: expected str, got 2")):
            _read(frozenset[str], ["a", 2], "k")
        with pytest.raises(ValueError, match=re.escape("k: expected a list, got 'ab'")):
            _read(tuple[str, ...], "ab", "k")

    def test_an_integer_fits_a_float_key(self, tmp_path):
        config_path = self.write_cli_config(tmp_path)
        raw = json.loads(config_path.read_text(encoding="utf-8"))
        raw["generation"]["temperature"] = 1
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        temperature = load_config(config_path).generation_config("modela").temperature
        assert temperature == 1.0 and isinstance(temperature, float)

    def test_prototype_without_embedding_reports_error(self, tmp_path):
        config_path = self.write_cli_config(tmp_path)
        raw = json.loads(config_path.read_text(encoding="utf-8"))
        path = tmp_path / "prototypes.json"
        prototypes = json.loads(Path(raw["hscorer"]["prototypes"]).read_text(encoding="utf-8"))
        prototypes["human"].append("zzzabsent")
        path.write_text(json.dumps(prototypes), encoding="utf-8")
        raw["hscorer"]["prototypes"] = str(path)
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        result = self.run_cli("all", "--config", str(config_path), "--mock-transport", str(MOCK))
        assert result.returncode == 1
        assert "error: prototype 'zzzabsent' has no embedding vector\n" in result.stderr
        assert "Traceback" not in result.stderr

    def test_unmapped_class_label_reports_error(self, tmp_path):
        config_path = self.write_cli_config(tmp_path)
        raw = json.loads(config_path.read_text(encoding="utf-8"))
        predicted = tmp_path / "predicted.json"
        predicted.write_text(json.dumps({"plombier": "NH-Unknown"}), encoding="utf-8")
        raw["class_predicted"] = str(predicted)
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        result = self.run_cli("build-lexicon", "--config", str(config_path))
        assert result.returncode == 1
        assert (f"error: class_mapping: {raw['class_mapping']}: "
                "unmapped raw class labels: ['NH-Unknown']") in result.stderr
        assert "Traceback" not in result.stderr
