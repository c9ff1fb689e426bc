"""Seeded workload generators for the mg-audit benchmark.

Every input is derived from ``data/mini`` plus a seeded RNG, so the same
seed always yields the same bytes. The program receives only the generated
files and a normal run config; nothing here is visible to it as a
benchmark setting.

Two generators:

- ``build_audit`` writes an instruction corpus in the mini corpus' dataset
  proportions, one response corpus per model, mock-transport fixtures,
  routes for the fake chat provider, and padded lexicon sources.
- ``build_train`` writes a synthetic golden noun set with 300-d
  embeddings and a WordNet-style snapshot for the HN-scorer, reusing the
  mini corpus for the audit stages.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

from mg_audit.analysis import find_candidates
from mg_audit.conllu import AnnotatedDocument, AnnotatedToken, read_conllu, write_conllu
from mg_audit.filters import filter_document, load_wordlist
from mg_audit.ingest import ingest_source
from mg_audit.lexicon import extract_mg_subset, merge_lexicons
from mg_audit.markers import MarkerLexicon
from mg_audit.narrowing import narrow_proportional
from mg_audit.validation import build_validation_prompt
from provider import content_key

MODELS = ("modela", "modelb")
VALIDATOR_ID = "validator"
MINI = Path(__file__).resolve().parent.parent / "data" / "mini"
DATASETS = ("alpaca", "hh_rlhf", "oasst2", "oracle")

_SYLLABLES = (
    "ba be bi bo bu da de di do du fa fe fi fo fu ga ge gi go gu ja jo ka ko "
    "la le li lo lu ma me mi mo mu na ne ni no nu pa pe pi po pu ra re ri ro "
    "ru sa se si so su ta te ti to tu va ve vi vo vu za ze zi zo zu"
).split()


def _dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def _jsonl(records) -> str:
    return "".join(json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n" for r in records)


def _words(rng: random.Random, n: int, taken: set[str], syllables=(3, 4)) -> list[str]:
    """`n` distinct synthetic lowercase words not already in `taken`."""
    out = []
    while len(out) < n:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.choice(syllables)))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _tok(form, lemma, upos, feats=None, head=0, rel="dep", glue=False):
    return AnnotatedToken(form=form, lemma=lemma, upos=upos, feats=feats or {},
                          head=head, deprel=rel, space_after=not glue)


class _Filler:
    """Neutral sentences over synthetic words outside every lexicon.

    They trigger no filter rule and hold no candidate noun; they make
    generated texts distinct and give them a realistic length.
    """

    def __init__(self, rng: random.Random, taken: set[str]):
        self.nouns = _words(rng, 400, taken)
        self.adjs = _words(rng, 200, taken)
        self.verbs = _words(rng, 200, taken)

    def sentence(self, rng: random.Random) -> tuple[AnnotatedToken, ...]:
        tokens = [
            _tok("un", "un", "DET", {"Definite": "Ind", "Number": "Sing"}, 2, "det"),
            _tok(*(2 * [rng.choice(self.nouns)]), "NOUN", {"Number": "Sing"}),
            _tok(*(2 * [rng.choice(self.adjs)]), "ADJ"),
            _tok(*(2 * [rng.choice(self.verbs)]), "VERB"),
        ]
        for _ in range(rng.randint(0, 4)):
            tokens.append(_tok(*(2 * [rng.choice(self.nouns)]), "NOUN", {"Number": "Plur"}))
        tokens[-1] = replace(tokens[-1], space_after=False)
        tokens.append(_tok(".", ".", "PUNCT"))
        return tuple(tokens)


def _sentences(paths: list[Path]) -> list[tuple[AnnotatedToken, ...]]:
    """Distinct sentences of the given CoNLL-U files, in first-seen order."""
    seen: dict[str, tuple[AnnotatedToken, ...]] = {}
    for path in paths:
        for doc in read_conllu(path):
            for sentence in doc.sentences:
                seen.setdefault(repr(sentence), sentence)
    return list(seen.values())


def _pools() -> dict[str, list[tuple[AnnotatedToken, ...]]]:
    """Sentence pools of each mini instruction corpus and of the mini responses."""
    corpus = MINI / "corpus"
    pools = {d: _sentences([corpus / f"{d}.conllu"]) for d in DATASETS}
    pools["responses"] = _sentences([corpus / f"responses_{m}.conllu" for m in MODELS])
    return pools


def _mini_proportions() -> dict[str, int]:
    return {
        name: len(read_conllu(MINI / "corpus" / f"{name}.conllu"))
        for name in DATASETS
    }


def _copy_mini(root: Path) -> None:
    for sub in ("resources", "sources"):
        shutil.copytree(MINI / sub, root / sub, dirs_exist_ok=True)


def _pad_sources(root: Path, rng: random.Random, n_pairs: int, taken: set[str]) -> int:
    """Append synthetic masculine/feminine pairs to the pair-list sources.

    Returns the number of source records after padding.
    """
    stems = _words(rng, n_pairs, taken)
    half = n_pairs // 2
    with open(root / "sources/demonette.csv", "a", encoding="utf-8") as fp:
        fp.writelines(f"{s}eur,{s}euse\n" for s in stems[:half])
    with open(root / "sources/wikidata.tsv", "a", encoding="utf-8") as fp:
        fp.writelines(f"{s}ier\t{s}ière\n" for s in stems[half:])
    records = 0
    for name in ("demonette.csv", "wikidata.tsv", "nhuma.csv"):
        with open(root / "sources" / name, encoding="utf-8") as fp:
            records += sum(1 for line in fp if line.strip())
    return records


def _base_config(seed: int, target: int) -> dict:
    config = json.loads((MINI / "config.json").read_text(encoding="utf-8"))
    config["seed"] = seed
    config["narrow_target"] = target
    config["output_dir"] = "out"
    config["models"] = [
        {"model_id": m, "response_annotations": f"corpus/responses_{m}.conllu"}
        for m in MODELS
    ]
    config["corpora"] = {d: f"corpus/{d}.conllu" for d in DATASETS}
    return config


def _lexicon(root: Path, config: dict):
    parts = [ingest_source(s["adapter"], root / s["path"], s.get("options"))[0]
             for s in config["lexicon_sources"]]
    db, _ = merge_lexicons(parts)
    return db, extract_mg_subset(db)


def build_audit(root: Path, seed: int, n_instructions: int, narrow_target: int,
                pad_pairs: int) -> dict:
    """Write an audit workload under `root`; returns what was generated."""
    rng = random.Random(f"audit:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    _copy_mini(root)
    pools = _pools()
    taken = {t.lemma for pool in pools.values() for s in pool for t in s}
    taken |= {t.form.lower() for pool in pools.values() for s in pool for t in s}
    lexicon_records = _pad_sources(root, rng, pad_pairs, taken)
    filler = _Filler(rng, taken)

    # Instructions: 1-3 mini sentences of the dataset plus an optional filler.
    props = _mini_proportions()
    total = sum(props.values())
    counts = {d: n_instructions * props[d] // total for d in DATASETS}
    counts[DATASETS[0]] += n_instructions - sum(counts.values())
    corpora: dict[str, list[AnnotatedDocument]] = {}
    for dataset in DATASETS:
        docs = []
        for i in range(counts[dataset]):
            sentences = [rng.choice(pools[dataset]) for _ in range(rng.choice((1, 1, 2, 3)))]
            if rng.random() < 0.8:
                sentences.insert(rng.randint(0, len(sentences)), filler.sentence(rng))
            docs.append(AnnotatedDocument(f"{dataset}-{i:06d}", tuple(sentences), dataset))
        corpora[dataset] = docs
        write_conllu(docs, root / "corpus" / f"{dataset}.conllu")

    config = _base_config(seed, narrow_target)
    db, mg = _lexicon(root, config)
    stoplist = load_wordlist(root / "resources/stoplist.txt")
    given = load_wordlist(root / "resources/given_names.txt")
    neutral = MarkerLexicon.load_json(root / "resources/markers.json").neutral_lemmas
    jargon = frozenset(config["jargon_datasets"])

    # Mirror filter + narrow so responses exist for exactly the narrowed ids.
    survivors: dict[str, list[AnnotatedDocument]] = {}
    for dataset in DATASETS:
        kept = []
        for doc in corpora[dataset]:
            filtered, decision = filter_document(doc, mg, db, given,
                                                 jargon_dataset_tags=jargon)
            if decision.kept and not any(
                t.lemma in mg and t.lemma not in stoplist for t in filtered.flat_tokens()
            ):
                kept.append(filtered)
        survivors[dataset] = kept
    narrowed = narrow_proportional(survivors, narrow_target, seed=seed)
    instructions = [doc for d in sorted(narrowed) for doc in narrowed[d]]

    routes: dict[str, dict[str, str]] = {VALIDATOR_ID: {}}
    response_tokens = 0
    validation_calls = 0
    for model in MODELS:
        responses = []
        fixture = []
        routes[model] = {}
        for inst in instructions:
            # Seeded by the instruction text, so equal prompts get equal answers.
            rrng = random.Random(f"response:{seed}:{model}:{inst.text}")
            sentences = [rrng.choice(pools["responses"]) for _ in range(rrng.randint(2, 5))]
            for _ in range(rrng.randint(0, 2)):
                sentences.insert(rrng.randint(0, len(sentences)), filler.sentence(rrng))
            doc = AnnotatedDocument(inst.doc_id, tuple(sentences), model)
            responses.append(doc)
            response_tokens += len(doc.flat_tokens())
            fixture.append({"id": doc.doc_id, "text": doc.text})
            routes[model][content_key(inst.text)] = doc.text
            filtered, decision = filter_document(doc, mg, db, given,
                                                 jargon_dataset_tags=jargon)
            if not decision.kept:
                continue
            candidates = find_candidates(filtered, db, stoplist, mg, neutral_lemmas=neutral)
            if not candidates:
                continue
            verdict = json.dumps(
                {c.occurrence_id: (0 if c.lemma == "facteur" else 1) for c in candidates},
                ensure_ascii=False,
            )
            fixture.append({"id": f"validate::{model}::{doc.doc_id}", "text": verdict})
            _, user = build_validation_prompt(filtered.text, [c.form for c in candidates])
            key = content_key(user)
            if routes[VALIDATOR_ID].setdefault(key, verdict) != verdict:
                raise ValueError("two identical validation prompts need different verdicts")
            validation_calls += 1
        write_conllu(responses, root / "corpus" / f"responses_{model}.conllu")
        (root / "fixtures").mkdir(exist_ok=True)
        (root / "fixtures" / f"{model}.jsonl").write_text(_jsonl(fixture), encoding="utf-8")

    (root / "routes.json").write_text(_dumps(routes), encoding="utf-8")
    (root / "config.json").write_text(_dumps(config), encoding="utf-8")

    all_docs = [doc for d in DATASETS for doc in corpora[d]]
    return {
        "instructions": {d: counts[d] for d in DATASETS},
        "instructions_total": len(all_docs),
        "kept": {d: len(survivors[d]) for d in DATASETS},
        "narrowed": len(instructions),
        "models": len(MODELS),
        "responses": len(instructions) * len(MODELS),
        "validation_calls": validation_calls,
        "distinct_text_share": round(len({d.text for d in all_docs}) / len(all_docs), 4),
        "mean_tokens_per_instruction": round(
            sum(len(d.flat_tokens()) for d in all_docs) / len(all_docs), 2),
        "mean_tokens_per_response": round(
            response_tokens / (len(instructions) * len(MODELS)), 2),
        "lexicon_source_records": lexicon_records,
        "golden_set": sum(len(load_wordlist(root / "resources" / name))
                          for name in ("golden_hn.txt", "golden_non_hn.txt")),
    }


def live_config(root: Path, port: int, credential_env: str) -> Path:
    """Config for the audit workload with every call routed to a local provider."""
    config = json.loads((root / "config.json").read_text(encoding="utf-8"))
    url = f"http://127.0.0.1:{port}/v1/chat/completions"

    def provider(model_id: str) -> dict:
        return {"endpoint_url": url, "credential_env": credential_env,
                "model_id": model_id, "timeout": 30.0}

    for model in config["models"]:
        model["provider"] = provider(model["model_id"])
    config["validator_provider"] = provider(VALIDATOR_ID)
    path = root / "config_live.json"
    path.write_text(_dumps(config), encoding="utf-8")
    return path


# ------------------------------------------------------------- HN scorer

HUMAN_SUFFIXES = ("eur", "ier", "ien", "iste")
LR_TOL = 1e-4
OTHER_ENDINGS = ("on", "age", "ette", "ment", "oir")


def build_train(root: Path, seed: int, n_nouns: int, dim: int, rounds: int) -> dict:
    """Write the HN-scorer workload: the mini audit plus a synthetic golden set.

    Class signal is spread over all feature families with overlap, so the
    members learn a realistic, imperfect separation instead of fitting noise.
    """
    rng = random.Random(f"train:{seed}")
    nrng = np.random.RandomState(seed % (2**32))
    root.mkdir(parents=True, exist_ok=True)
    res = root / "resources"
    res.mkdir(exist_ok=True)

    taken: set[str] = set()
    stems = _words(rng, n_nouns, taken)
    half = n_nouns // 2
    words, labels = [], []
    for i, stem in enumerate(stems):
        human = i < half
        p_suffix = 0.7 if human else 0.15
        ending = rng.choice(HUMAN_SUFFIXES) if rng.random() < p_suffix else rng.choice(OTHER_ENDINGS)
        words.append(stem + ending)
        labels.append(human)
    (res / "golden_hn.txt").write_text(
        "".join(w + "\n" for w, h in zip(words, labels) if h), encoding="utf-8")
    (res / "golden_non_hn.txt").write_text(
        "".join(w + "\n" for w, h in zip(words, labels) if not h), encoding="utf-8")

    # WordNet: the mini anchors plus synsets for ~45% of words. Definitions
    # mix filler words with 0-3 indicator tokens, and a quarter of the words
    # are polysemous (one human and one non-human sense), so the feature
    # scores spread as they do on real data.
    synsets = [json.loads(line) for line in
               (MINI / "resources/wordnet_mini.jsonl").read_text(encoding="utf-8").splitlines()]
    indicators = json.loads((MINI / "resources/indicators.json").read_text(encoding="utf-8"))
    filler = ("used", "for", "with", "in", "the", "of", "a", "work", "small", "large",
              "place", "kind", "made", "trade", "city", "group", "often", "old")

    def definition(human_like: bool) -> str:
        tokens = [rng.choice(filler) for _ in range(rng.randint(3, 8))]
        lead, other = ("human", "nonhuman") if human_like else ("nonhuman", "human")
        tokens += [rng.choice(indicators[lead]) for _ in range(rng.randint(0, 3))]
        tokens += [rng.choice(indicators[other]) for _ in range(rng.randint(0, 1))]
        rng.shuffle(tokens)
        return " ".join(tokens)

    for i, (word, human) in enumerate(zip(words, labels)):
        if rng.random() >= 0.45:
            continue
        senses = [human == (rng.random() < 0.8)]
        if rng.random() < 0.25:
            senses.append(not senses[0])
        for k, is_person in enumerate(senses):
            synsets.append({
                "id": f"syn{i}.n.0{k + 1}",
                "lemmas": [word],
                "definition": definition(is_person == (rng.random() < 0.8)),
                "hypernyms": ["person.n.01" if is_person
                              else rng.choice(["artifact.n.01", "object.n.01"])],
            })
    (res / "wordnet.jsonl").write_text(_jsonl(synsets), encoding="utf-8")

    # Embeddings: unit-variance noise plus a class centre, as raw vectors
    # of varying norm; 10% of golden words have none.
    human_c = nrng.randn(dim)
    other_c = nrng.randn(dim)
    prototypes = json.loads((MINI / "resources/prototypes.json").read_text(encoding="utf-8"))
    rows = []
    for word in prototypes["human"]:
        rows.append((word, 0.15 * (human_c + 0.3 * nrng.randn(dim))))
    for word in prototypes["nonhuman"]:
        rows.append((word, 0.15 * (other_c + 0.3 * nrng.randn(dim))))
    for word, human in zip(words, labels):
        # Signal strength varies per word; 15% of words sit near the other class.
        centre = human_c if human == (rng.random() >= 0.15) else other_c
        vec = rng.uniform(0.0, 0.6) * centre + nrng.randn(dim)
        vec = 0.15 * vec * np.exp(0.5 * nrng.randn())  # varying norms, as in trained vectors
        if rng.random() >= 0.1:
            rows.append((word, vec))
    lines = [f"{len(rows)} {dim}\n"]
    for word, vec in rows:
        lines.append(word + " " + " ".join(f"{x:.5f}" for x in vec) + "\n")
    (res / "embeddings.vec").write_text("".join(lines), encoding="utf-8")

    config = json.loads((MINI / "config.json").read_text(encoding="utf-8"))

    def mini_path(rel: str) -> str:
        return str(MINI / rel)

    for key in ("class_gold", "class_predicted", "class_mapping", "stoplist",
                "given_names", "marker_lexicon"):
        config[key] = mini_path(config[key])
    for source in config["lexicon_sources"]:
        source["path"] = mini_path(source["path"])
    config["corpora"] = {k: mini_path(v) for k, v in config["corpora"].items()}
    for model in config["models"]:
        model["response_annotations"] = mini_path(model["response_annotations"])
    h = config["hscorer"]
    h.update({
        "wordnet_snapshot": "resources/wordnet.jsonl",
        "embeddings": "resources/embeddings.vec",
        "golden_hn": "resources/golden_hn.txt",
        "golden_non_hn": "resources/golden_non_hn.txt",
        "indicators": mini_path(h["indicators"]),
        "prototypes": mini_path(h["prototypes"]),
        "suffixes": mini_path(h["suffixes"]),
    })
    # Shipped hyperparameters, except that GBT rounds are capped and the LR
    # tolerance is loosened: at the shipped 1e-6 the FISTA iteration count
    # swings 2.2k-5k between seeds, which would drown the GBT time.
    h["lr"] = {"tol": LR_TOL}
    h["gbt"] = {"n_estimators": rounds}
    config["output_dir"] = "out"
    (root / "config.json").write_text(_dumps(config), encoding="utf-8")
    return {
        "golden_hn": half,
        "golden_non_hn": n_nouns - half,
        "embedding_dim": dim,
        "features": 7 + dim,
        "embedded_words": len(rows),
        "wordnet_synsets": len(synsets),
        "gbt_rounds_cap": rounds,
        "instructions_total": sum(_mini_proportions().values()),
    }
