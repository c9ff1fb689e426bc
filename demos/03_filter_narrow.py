"""Filter the instruction corpora and narrow them proportionally.

Shows which rules fire on which instructions, the jargon sentences that
get stripped instead of excluded, and the largest-remainder quotas, first
on the mini corpus and then on the published dataset sizes.
"""

from collections import Counter
from pathlib import Path

from mg_audit.conllu import read_conllu
from mg_audit.filters import filter_document, load_wordlist, mg_instruction_hit
from mg_audit.ingest import ingest_source
from mg_audit.lexicon import extract_mg_subset, merge_lexicons
from mg_audit.narrowing import apportion, narrow_proportional

MINI = Path(__file__).resolve().parent.parent / "data" / "mini"

parts = []
for adapter, filename in (
    ("demonette_csv", "demonette.csv"),
    ("wikidata_tsv", "wikidata.tsv"),
    ("nhuma_csv", "nhuma.csv"),
    ("wiktextract_jsonl", "wiktextract.jsonl"),
    ("dictionary_snapshot", "tlfi_snapshot.jsonl"),
):
    parts.append(ingest_source(adapter, MINI / "sources" / filename)[0])
db, _ = merge_lexicons(parts)
mg = extract_mg_subset(db)
stoplist = load_wordlist(MINI / "resources/stoplist.txt")
given_names = load_wordlist(MINI / "resources/given_names.txt")

kept = {}
rule_counts = Counter()
for dataset in ("alpaca", "hh_rlhf", "oracle", "oasst2"):
    docs = read_conllu(MINI / "corpus" / f"{dataset}.conllu", dataset_tag=dataset)
    survivors = []
    for doc in docs:
        filtered_doc, decision = filter_document(doc, mg, db, given_names)
        for hit in decision.fired_rules:
            rule_counts[hit.rule] += 1
        if decision.kept and mg_instruction_hit(filtered_doc, mg, stoplist) is None:
            survivors.append(filtered_doc)
    kept[dataset] = survivors
    print(f"{dataset:8s} {len(docs):2d} instructions -> {len(survivors):2d} kept")

print("\nrule hits:", dict(sorted(rule_counts.items())))

sampled = narrow_proportional(kept, target=12, seed=7)
print("\nnarrowed to 12:", {k: len(v) for k, v in sorted(sampled.items())})

published = {"alpaca": 29179, "hh_rlhf": 10806, "oracle": 2600, "oasst2": 311}
print("\nquotas for the published sizes at target 10,000:")
print(" ", apportion(published, 10000))
