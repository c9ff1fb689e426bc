import json
import os
import random

import pytest

from mg_audit import ioutil
from mg_audit.ingest import ingest_source
from mg_audit.ioutil import handoff, write_jsonl
from mg_audit.lexicon import (
    DictionarySnapshot,
    HumanNounDB,
    LexicalEntry,
    MGLexicon,
    annotate_classes,
    extract_mg_subset,
    merge_lexicons,
    recursive_definition_search,
)


def entry(lemma, gender, source="test", hn_class=None, provenance="none"):
    return LexicalEntry(
        lemma=lemma,
        gender=gender,
        sources=frozenset({source}),
        hn_class=hn_class,
        class_provenance=provenance,
    )


class TestLexicalEntry:
    def test_rejects_empty_lemma(self):
        with pytest.raises(ValueError):
            entry("", "masculine")

    def test_rejects_whitespace_lemma(self):
        with pytest.raises(ValueError):
            entry(" chanteur", "masculine")

    def test_rejects_empty_sources(self):
        with pytest.raises(ValueError):
            LexicalEntry(lemma="x", gender="masculine", sources=frozenset())

    def test_class_iff_provenance(self):
        with pytest.raises(ValueError):
            entry("x", "masculine", hn_class="profession", provenance="none")
        with pytest.raises(ValueError):
            entry("x", "masculine", hn_class=None, provenance="human")


class TestMerge:
    def test_dedup_unions_sources(self):
        a = [entry("médecin", "masculine", source="s1")]
        b = [entry("médecin", "masculine", source="s2")]
        db, conflicts = merge_lexicons([a, b])
        assert len(db) == 1
        assert db.get("médecin", "masculine").sources == {"s1", "s2"}
        assert conflicts == []

    def test_idempotent(self):
        part = [
            entry("avocat", "masculine"),
            entry("avocate", "feminine"),
            entry("artiste", "masculine"),
            entry("artiste", "feminine"),
        ]
        once, _ = merge_lexicons([part])
        twice, _ = merge_lexicons([part, part])
        assert once == twice

    def test_epicene_from_gender_pair(self):
        db, _ = merge_lexicons(
            [[entry("artiste", "masculine"), entry("artiste", "feminine"),
              entry("avocat", "masculine")]]
        )
        assert db.get("artiste", "masculine").epicene
        assert db.get("artiste", "feminine").epicene
        assert not db.get("avocat", "masculine").epicene

    def test_human_beats_model(self):
        a = [entry("boulanger", "masculine", hn_class="speciality", provenance="model")]
        b = [entry("boulanger", "masculine", hn_class="profession", provenance="human")]
        db, conflicts = merge_lexicons([a, b])
        result = db.get("boulanger", "masculine")
        assert result.hn_class == "profession"
        assert result.class_provenance == "human"
        assert conflicts == []

    def test_human_conflict_first_wins_and_logged(self):
        a = [entry("garde", "masculine", hn_class="profession", provenance="human")]
        b = [entry("garde", "masculine", hn_class="status", provenance="human")]
        db, conflicts = merge_lexicons([a, b])
        assert db.get("garde", "masculine").hn_class == "profession"
        assert len(conflicts) == 1
        assert conflicts[0].kept == "profession"
        assert conflicts[0].discarded == "status"

    def test_key_set_permutation_invariant(self):
        rng = random.Random(7)
        entries = [
            entry(f"mot{i}", g, source=f"s{i % 3}")
            for i in range(30)
            for g in (["masculine"] if i % 2 else ["masculine", "feminine"])
        ]
        parts = [entries[:10], entries[10:20], entries[20:]]
        keys_forward = {(e.lemma, e.gender) for e in merge_lexicons(parts)[0]}
        shuffled = parts[:]
        rng.shuffle(shuffled)
        keys_shuffled = {(e.lemma, e.gender) for e in merge_lexicons(shuffled)[0]}
        assert keys_forward == keys_shuffled


class TestMGSubset:
    def test_definition_case(self):
        db, _ = merge_lexicons(
            [[entry("avocat", "masculine"), entry("avocate", "feminine"),
              entry("artiste", "masculine"), entry("artiste", "feminine")]]
        )
        mg = extract_mg_subset(db)
        assert mg.lemmas == {"avocat"}

    def test_all_entries_masculine_non_epicene_and_in_db(self):
        db, _ = merge_lexicons(
            [[entry(f"nom{i}", g)
              for i in range(20)
              for g in (["masculine", "feminine"] if i % 3 == 0 else ["masculine"])]]
        )
        mg = extract_mg_subset(db)
        for item in mg:
            assert item.gender == "masculine"
            assert not item.epicene
            assert (item.lemma, "masculine") in db

    def test_empty_when_no_masculines(self):
        db, _ = merge_lexicons([[entry("femme", "feminine")]])
        assert len(extract_mg_subset(db)) == 0


class TestDictionarySnapshotLoad:
    @pytest.mark.parametrize("line", [
        '{"definitions": ["personne qui juge"]}',
        '["juge", ["personne qui juge"]]',
        '{"lemma": "juge", "definitions": "personne qui juge"}',
    ], ids=["no-lemma", "not-an-object", "string-definitions"])
    def test_malformed_record_names_path_and_record(self, tmp_path, line):
        path = tmp_path / "snapshot.jsonl"
        path.write_text('{"lemma": "juge", "definitions": ["personne"]}\n' + line + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError) as err:
            DictionarySnapshot.load_jsonl(path)
        assert str(path) in str(err.value)
        assert repr(json.loads(line)) in str(err.value)


class TestRecursiveSearch:
    def test_direct_prefix_match(self):
        snapshot = DictionarySnapshot(
            definitions={"plombier": ["personne qui installe des tuyaux"]}
        )
        assert recursive_definition_search(snapshot, {"personne"}, 1) == {"plombier"}

    def test_two_level_expansion(self):
        snapshot = DictionarySnapshot(
            definitions={
                "artisan": ["personne exerçant un métier manuel"],
                "forgeron": ["artisan qui travaille le fer"],
            }
        )
        assert recursive_definition_search(snapshot, {"personne"}, 2) == {
            "artisan",
            "forgeron",
        }

    def test_depth_bound(self):
        snapshot = DictionarySnapshot(
            definitions={
                "artisan": ["personne exerçant un métier manuel"],
                "forgeron": ["artisan qui travaille le fer"],
            }
        )
        assert recursive_definition_search(snapshot, {"personne"}, 1) == {"artisan"}

    def test_depth_zero_is_empty(self):
        snapshot = DictionarySnapshot(definitions={"plombier": ["personne qui ..."]})
        assert recursive_definition_search(snapshot, {"personne"}, 0) == set()

    def test_determiner_stripped(self):
        snapshot = DictionarySnapshot(
            definitions={
                "notaire": ["Une personne chargée des actes"],
                "élève": ["L'individu qui suit un enseignement"],
            }
        )
        found = recursive_definition_search(snapshot, {"personne", "individu"}, 1)
        assert found == {"notaire", "élève"}

    def test_excludes_seeds(self):
        snapshot = DictionarySnapshot(
            definitions={"personne": ["individu de l'espèce humaine"]}
        )
        assert recursive_definition_search(snapshot, {"personne", "individu"}, 2) == set()

    def test_deeper_is_superset(self):
        rng = random.Random(3)
        lemmas = [f"mot{i}" for i in range(40)]
        defs = {}
        heads = ["personne"] + lemmas
        for lemma in lemmas:
            defs[lemma] = [f"{rng.choice(heads)} qui fait quelque chose"]
        snapshot = DictionarySnapshot(definitions=defs)
        previous = set()
        for depth in range(6):
            current = recursive_definition_search(snapshot, {"personne"}, depth)
            assert previous <= current
            previous = current


class TestAnnotateClasses:
    def make_db(self):
        db, _ = merge_lexicons(
            [[entry("caporal", "masculine"), entry("boulanger", "masculine"),
              entry("inconnu", "masculine")]]
        )
        return db

    def test_model_label_through_mapping(self):
        db = annotate_classes(
            self.make_db(),
            gold={},
            predicted={"caporal": "NH-Grade"},
            mapping={"NH-Grade": "title"},
        )
        result = db.get("caporal", "masculine")
        assert result.hn_class == "title"
        assert result.class_provenance == "model"

    def test_gold_beats_predicted(self):
        db = annotate_classes(
            self.make_db(),
            gold={"boulanger": "profession"},
            predicted={"boulanger": "NH-Spé"},
            mapping={"NH-Spé": "speciality"},
        )
        result = db.get("boulanger", "masculine")
        assert result.hn_class == "profession"
        assert result.class_provenance == "human"

    def test_absent_stays_unannotated(self):
        db = annotate_classes(self.make_db(), gold={}, predicted={}, mapping={})
        assert db.get("inconnu", "masculine").class_provenance == "none"

    def test_unmapped_raw_label_is_fatal(self):
        with pytest.raises(KeyError):
            annotate_classes(
                self.make_db(), gold={}, predicted={"caporal": "NH-XXX"}, mapping={}
            )


class TestIngest:
    def test_demonette_pair_expansion(self, tmp_path):
        path = tmp_path / "demonette.csv"
        path.write_text("chanteur,chanteuse\n", encoding="utf-8")
        entries, report = ingest_source("demonette_csv", path)
        assert {(e.lemma, e.gender) for e in entries} == {
            ("chanteur", "masculine"),
            ("chanteuse", "feminine"),
        }
        assert report.n_records == 1 and not report.errors

    def test_wikidata_tsv(self, tmp_path):
        path = tmp_path / "wikidata.tsv"
        path.write_text("acteur\tactrice\n", encoding="utf-8")
        entries, _ = ingest_source("wikidata_tsv", path)
        assert {(e.lemma, e.gender) for e in entries} == {
            ("acteur", "masculine"),
            ("actrice", "feminine"),
        }

    def test_nhuma_carries_human_class(self, tmp_path):
        path = tmp_path / "nhuma.csv"
        path.write_text("médecin,masculine,profession\n", encoding="utf-8")
        entries, _ = ingest_source("nhuma_csv", path)
        assert entries[0].hn_class == "profession"
        assert entries[0].class_provenance == "human"

    def test_wiktextract_index_rule(self, tmp_path):
        path = tmp_path / "wikt.jsonl"
        records = [
            {"word": "plombier", "gender": "masculine",
             "senses": [{"gloss": "personne qui installe des tuyaux"}]},
            {"word": "navet", "gender": "masculine",
             "senses": [{"gloss": "plante potagère"}, {"gloss": "film raté"},
                        {"gloss": "personne sans talent"}]},
            {"word": "témoin", "gender": "masculine",
             "senses": [{"gloss": "objet servant de preuve"},
                        {"gloss": "personne qui atteste un fait"}]},
        ]
        path.write_text(
            "\n".join(json.dumps(r, ensure_ascii=False) for r in records), encoding="utf-8"
        )
        entries, _ = ingest_source("wiktextract_jsonl", path)
        # navet's first human sense is at index 3 > 2: dropped
        assert {e.lemma for e in entries} == {"plombier", "témoin"}

    def test_wiktextract_malformed_records_collected_not_fatal(self, tmp_path):
        path = tmp_path / "wikt.jsonl"
        sense = [{"gloss": "personne qui installe des tuyaux"}]
        path.write_text("\n".join([
            json.dumps({"word": "plombier", "gender": "masculine", "senses": sense}),
            json.dumps({"word": "  ", "gender": "masculine", "senses": sense}),
            json.dumps(["plombier", "masculine"]),
            "42",
            json.dumps({"word": 5, "gender": "masculine", "senses": sense}),
        ]), encoding="utf-8")
        entries, report = ingest_source("wiktextract_jsonl", path)
        assert [e.lemma for e in entries] == ["plombier"]
        assert [(e.line_no, e.message) for e in report.errors] == [
            (2, "invalid lemma: ''"), (3, "not a JSON object"), (4, "not a JSON object"),
            (5, "missing word or senses"),
        ]
        assert report.n_records == 5

    def test_dictionary_snapshot_blank_lemma_collected_not_fatal(self, tmp_path):
        path = tmp_path / "tlfi.jsonl"
        definitions = ["Personne qui installe des tuyaux"]
        path.write_text("\n".join([
            json.dumps({"lemma": "plombier", "gender": "masculine", "definitions": definitions}),
            json.dumps({"lemma": " \t", "gender": "masculine", "definitions": definitions}),
        ]), encoding="utf-8")
        entries, report = ingest_source("dictionary_snapshot", path)
        assert [e.lemma for e in entries] == ["plombier"]
        assert [e.message for e in report.errors] == ["invalid lemma: ''"]

    def test_malformed_rows_collected_not_fatal(self, tmp_path):
        path = tmp_path / "demonette.csv"
        path.write_text("chanteur,chanteuse\nsolo\n,\n", encoding="utf-8")
        entries, report = ingest_source("demonette_csv", path)
        assert len(entries) == 2
        assert len(report.errors) == 2

    def test_unreadable_file_is_fatal(self, tmp_path):
        with pytest.raises(OSError):
            ingest_source("demonette_csv", tmp_path / "missing.csv")

    def test_reingest_merges_identically(self, tmp_path):
        path = tmp_path / "demonette.csv"
        path.write_text("chanteur,chanteuse\navocat,avocate\n", encoding="utf-8")
        first, _ = ingest_source("demonette_csv", path)
        second, _ = ingest_source("demonette_csv", path)
        assert merge_lexicons([first, second])[0] == merge_lexicons([first])[0]

    def test_emission_bound_and_no_empty_lemmas(self, tmp_path):
        rng = random.Random(11)
        rows = []
        for i in range(50):
            masc = f"mot{i}" if rng.random() > 0.1 else ""
            fem = f"mot{i}e" if rng.random() > 0.1 else ""
            rows.append(f"{masc},{fem}")
        path = tmp_path / "demonette.csv"
        path.write_text("\n".join(rows), encoding="utf-8")
        entries, report = ingest_source("demonette_csv", path)
        assert len(entries) <= 2 * report.n_records
        assert all(e.lemma for e in entries)

    def test_lemma_normalization_collapses_case(self, tmp_path):
        path = tmp_path / "demonette.csv"
        path.write_text("Chanteur,chanteuse\nchanteur,Chanteuse\n", encoding="utf-8")
        entries, _ = ingest_source("demonette_csv", path)
        db, _ = merge_lexicons([entries])
        assert len(db) == 2

    def test_dictionary_snapshot_adapter(self, tmp_path):
        path = tmp_path / "tlfi.jsonl"
        records = [
            {"lemma": "plombier", "gender": "masculine",
             "definitions": ["Personne qui installe des tuyaux"]},
            {"lemma": "table", "gender": "feminine",
             "definitions": ["Meuble à plateau horizontal"]},
        ]
        path.write_text(
            "\n".join(json.dumps(r, ensure_ascii=False) for r in records), encoding="utf-8"
        )
        entries, _ = ingest_source("dictionary_snapshot", path)
        assert {e.lemma for e in entries} == {"plombier"}

    def test_dictionary_snapshot_errors_carry_file_lines(self, tmp_path):
        path = tmp_path / "tlfi.jsonl"
        path.write_text("\n".join([
            json.dumps({"lemma": "zouave", "gender": "masculine",
                        "definitions": ["Personne qui sert dans l'infanterie"]}),
            json.dumps({"lemma": "artisan", "definitions": ["Personne qui exerce un métier"]}),
        ]), encoding="utf-8")
        entries, report = ingest_source("dictionary_snapshot", path)
        assert [e.lemma for e in entries] == ["zouave"]
        assert [(e.line_no, e.message) for e in report.errors] == [
            (2, "no gender for 'artisan'")]

    def test_dictionary_snapshot_keeps_homographs(self, tmp_path):
        path = tmp_path / "tlfi.jsonl"
        path.write_text("\n".join([
            json.dumps({"lemma": "garde", "gender": "masculine",
                        "definitions": ["Personne qui surveille un lieu"]}),
            json.dumps({"lemma": "garde", "gender": "feminine",
                        "definitions": ["Femme qui garde des enfants"]}),
        ]), encoding="utf-8")
        entries, report = ingest_source("dictionary_snapshot", path)
        assert {(e.lemma, e.gender) for e in entries} == {
            ("garde", "masculine"), ("garde", "feminine")}
        assert report.n_records == 2 and not report.errors


def _wikt(**fields):
    return {"word": "x", "gender": "masculine", "senses": [{"gloss": "personne qui"}], **fields}


def _snap(**fields):
    return {"lemma": "x", "gender": "masculine", "definitions": ["Personne qui"], **fields}


def _without(record, key):
    return {k: v for k, v in record.items() if k != key}


def _json(record):
    return json.dumps(record, ensure_ascii=False).encode()


# Two good records per adapter; the faulty line goes between them, after a
# blank line (so at line 3), or last without a newline (line 4) when torn.
GOOD_LINES = {
    "demonette_csv": ("chanteur,chanteuse", "avocat,avocate"),
    "wikidata_tsv": ("acteur\tactrice", "infirmier\tinfirmière"),
    "nhuma_csv": ("médecin,masculine,profession", "voisin,masculine,relationship"),
    "wiktextract_jsonl": (json.dumps(_wikt(word="plombier"), ensure_ascii=False),
                          json.dumps(_wikt(word="facteur"), ensure_ascii=False)),
    "dictionary_snapshot": (json.dumps(_snap(lemma="artisan"), ensure_ascii=False),
                            json.dumps(_snap(lemma="pompier"), ensure_ascii=False)),
}

UTF8_FAULT = "'utf-8' codec can't decode byte 0xff in position {}: invalid start byte"

# (adapter, case, faulty line, expected message)
INGEST_FAULTS = [
    ("demonette_csv", "torn", b"avocat", "expected 2 columns, got 1"),
    ("demonette_csv", "short_row", b"solo", "expected 2 columns, got 1"),
    ("demonette_csv", "blank_lemma", b" , ", "both lemmas empty"),
    ("demonette_csv", "invalid_utf8", b"chanteur,\xff", UTF8_FAULT.format(9)),
    ("demonette_csv", "carriage_return", b"chanteur\rx,chanteuse",
     "new-line character seen in unquoted field - do you need to open the file "
     "in universal-newline mode?"),
    ("wikidata_tsv", "torn", b"acteur", "expected 2 columns, got 1"),
    ("wikidata_tsv", "short_row", b"solo", "expected 2 columns, got 1"),
    ("wikidata_tsv", "blank_lemma", b'" "\t" "', "both lemmas empty"),
    ("wikidata_tsv", "invalid_utf8", b"\xff\tactrice", UTF8_FAULT.format(0)),
    ("nhuma_csv", "torn", b"voisin,mascu", "expected 3 columns, got 2"),
    ("nhuma_csv", "short_row", b"juge,masculine", "expected 3 columns, got 2"),
    ("nhuma_csv", "blank_lemma", b" ,masculine,profession", "invalid lemma: ''"),
    ("nhuma_csv", "bad_gender", b"juge,neutre,profession", "bad gender 'neutre'"),
    ("nhuma_csv", "invalid_utf8", b"juge,masculine,\xff", UTF8_FAULT.format(15)),
    ("wiktextract_jsonl", "torn", b'{"word": "juge", "sen',
     "bad JSON: Unterminated string starting at"),
    ("wiktextract_jsonl", "not_object", b"42", "not a JSON object"),
    ("wiktextract_jsonl", "missing_word", _json(_without(_wikt(), "word")),
     "missing word or senses"),
    ("wiktextract_jsonl", "missing_senses", _json(_without(_wikt(), "senses")),
     "missing word or senses"),
    ("wiktextract_jsonl", "lemma_int", _json(_wikt(word=5)), "missing word or senses"),
    ("wiktextract_jsonl", "senses_str", _json(_wikt(senses="personne qui")),
     "missing word or senses"),
    ("wiktextract_jsonl", "gloss_int", _json(_wikt(senses=[{"gloss": 5}])),
     "non-string definition in senses: 5"),
    ("wiktextract_jsonl", "tags_int", _json(_without(_wikt(tags=5), "gender")),
     "tags is not a list"),
    ("wiktextract_jsonl", "blank_lemma", _json(_wikt(word=" ")), "invalid lemma: ''"),
    ("wiktextract_jsonl", "invalid_utf8", b'{"word": "\xff"}', UTF8_FAULT.format(10)),
    ("dictionary_snapshot", "torn", b'{"lemma": "juge", "def',
     "bad JSON: Unterminated string starting at"),
    ("dictionary_snapshot", "not_object", b"42", "not a JSON object"),
    ("dictionary_snapshot", "missing_lemma", _json(_without(_snap(), "lemma")),
     "missing lemma or definitions"),
    ("dictionary_snapshot", "missing_definitions", _json(_without(_snap(), "definitions")),
     "missing lemma or definitions"),
    ("dictionary_snapshot", "lemma_int", _json(_snap(lemma=5)), "missing lemma or definitions"),
    ("dictionary_snapshot", "definitions_str", _json(_snap(definitions="Personne qui")),
     "missing lemma or definitions"),
    ("dictionary_snapshot", "definition_int", _json(_snap(definitions=[5])),
     "non-string definition in definitions: 5"),
    ("dictionary_snapshot", "blank_lemma", _json(_snap(lemma=" ")), "invalid lemma: ''"),
    ("dictionary_snapshot", "invalid_utf8", b'{"lemma": "\xff"}', UTF8_FAULT.format(11)),
]


class TestIngestFaults:
    """Each malformed line is one record error at its file line; the rest is read."""

    @pytest.mark.parametrize(
        "adapter, case, line, message", INGEST_FAULTS,
        ids=[f"{adapter}-{case}" for adapter, case, _, _ in INGEST_FAULTS],
    )
    def test_fault_is_one_record_error(self, tmp_path, adapter, case, line, message):
        first, second = (good.encode() for good in GOOD_LINES[adapter])
        if case == "torn":
            content, line_no = b"\n".join([first, b"  ", second, line]), 4
        else:
            content, line_no = b"\n".join([first, b"  ", line, second]) + b"\n", 3
        clean = tmp_path / "clean"
        clean.write_bytes(b"\n".join([first, second]) + b"\n")
        path = tmp_path / "faulty"
        path.write_bytes(content)
        entries, report = ingest_source(adapter, path)
        assert [(e.line_no, e.message) for e in report.errors] == [(line_no, message)]
        assert entries == ingest_source(adapter, clean)[0]
        assert report.n_records == 3 and report.n_entries == len(entries)


class TestRoundTrip:
    def test_jsonl_save_load(self, tmp_path):
        db, _ = merge_lexicons(
            [[entry("médecin", "masculine", hn_class="profession", provenance="human"),
              entry("artiste", "masculine"), entry("artiste", "feminine")]]
        )
        path = tmp_path / "lexicon.jsonl"
        write_jsonl(path, (e.to_dict() for e in db))
        assert HumanNounDB.load_jsonl(path) == db


VALID_RECORD = {"lemma": "médecin", "gender": "masculine", "epicene": False,
                "sources": ["s"], "hn_class": None, "class_provenance": "none"}


def write_records(tmp_path, *records):
    path = tmp_path / "lexicon.jsonl"
    write_jsonl(path, [dict(VALID_RECORD, **record) for record in records])
    return path


class TestLoaderChecks:
    """Loading builds entries through the slot setters; every check still runs."""

    @pytest.mark.parametrize(
        "record",
        [
            {"lemma": ""},
            {"lemma": " médecin"},
            {"lemma": "médecin "},
            {"gender": "neuter"},
            {"sources": []},
            {"hn_class": "robot", "class_provenance": "human"},
            {"hn_class": "profession", "class_provenance": "oracle"},
            {"hn_class": "profession", "class_provenance": "none"},
            {"hn_class": None, "class_provenance": "model"},
        ],
        ids=["empty-lemma", "leading-space", "trailing-space", "unknown-gender",
             "no-sources", "unknown-class", "unknown-provenance",
             "class-without-provenance", "provenance-without-class"],
    )
    def test_invalid_line_is_rejected(self, tmp_path, record):
        with pytest.raises(ValueError):
            HumanNounDB.load_jsonl(write_records(tmp_path, {"lemma": "avocat"}, record))

    def test_duplicate_lemma_and_gender_is_rejected(self, tmp_path):
        path = write_records(tmp_path, {}, {"sources": ["t"]})
        with pytest.raises(ValueError, match="duplicate key"):
            HumanNounDB.load_jsonl(path)

    @pytest.mark.parametrize(
        "record",
        [{"gender": "feminine"}, {"epicene": True}],
        ids=["feminine", "epicene"],
    )
    def test_mg_lexicon_rejects_non_generic_lines(self, tmp_path, record):
        with pytest.raises(ValueError, match="not a masculine-generic entry"):
            MGLexicon.load_jsonl(write_records(tmp_path, {"lemma": "avocat"}, record))

    def test_loaded_entries_equal_constructed_ones(self, tmp_path):
        path = write_records(
            tmp_path,
            {"hn_class": "profession", "class_provenance": "human", "sources": ["b", "a"]},
            {"gender": "feminine", "epicene": True},
        )
        loaded = list(HumanNounDB.load_jsonl(path))
        assert loaded == [
            LexicalEntry("médecin", "feminine", True, frozenset({"s"})),
            LexicalEntry("médecin", "masculine", False, frozenset({"a", "b"}),
                         "profession", "human"),
        ]
        assert not hasattr(loaded[0], "__dict__")


class TestContentKeyedLoads:
    """A load returns what the file holds now. Inside `handoff()` it keeps
    what it parsed, keyed by the sha256 of the file's bytes, and returns it
    while the file's bytes are unchanged."""

    @pytest.mark.parametrize("cls", [HumanNounDB, MGLexicon])
    def test_each_load_outside_a_run_parses(self, tmp_path, cls):
        path = write_records(tmp_path, {"lemma": "avocat"})
        first, second = cls.load_jsonl(path), cls.load_jsonl(path)
        assert first == second and first is not second

    @pytest.mark.parametrize("cls", [HumanNounDB, MGLexicon])
    def test_unchanged_bytes_inside_a_run_return_the_object_kept(self, tmp_path, cls):
        path = write_records(tmp_path, {"lemma": "avocat"})
        with handoff():
            first = cls.load_jsonl(path)
            assert cls.load_jsonl(path) is first
        assert cls.load_jsonl(path) is not first

    def test_same_size_edit_under_the_old_mtime_is_seen(self, tmp_path):
        path = write_records(tmp_path, {"lemma": "avocat"})
        with handoff():
            assert HumanNounDB.load_jsonl(path).lemmas == {"avocat"}
            before = path.stat()
            path.write_bytes(path.read_bytes().replace(b"avocat", b"avocet"))
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
            after = path.stat()
            assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
            assert HumanNounDB.load_jsonl(path).lemmas == {"avocet"}

    @pytest.mark.parametrize("cls", [HumanNounDB, MGLexicon])
    def test_alternating_files_each_load_their_own_entries(self, tmp_path, cls):
        paths = {}
        for lemma in ("avocat", "plombier"):
            paths[lemma] = tmp_path / f"{lemma}.jsonl"
            write_jsonl(paths[lemma], [dict(VALID_RECORD, lemma=lemma)])
        with handoff():
            for lemma in ("avocat", "plombier", "avocat"):
                assert cls.load_jsonl(paths[lemma]).lemmas == {lemma}

    @pytest.mark.parametrize(
        "bad",
        [b'{"lemma": "avocat"\n', json.dumps(dict(VALID_RECORD, gender="neuter")).encode()],
        ids=["torn-line", "invalid-entry"],
    )
    def test_a_failed_load_caches_nothing(self, tmp_path, bad):
        path = write_records(tmp_path, {"lemma": "avocat"})
        good = path.read_bytes()
        path.write_bytes(good + bad)
        with handoff():
            for _ in range(2):
                with pytest.raises(ValueError):
                    HumanNounDB.load_jsonl(path)
            assert ioutil._HANDOFF == {}
            path.write_bytes(good)
            assert HumanNounDB.load_jsonl(path).lemmas == {"avocat"}
