#!/usr/bin/env python3
"""Regenerate the bundled mini-corpus under data/mini/.

Everything the offline pipeline needs: lexical-source dumps, feature
resources, four annotated instruction corpora, pre-annotated mock-model
responses, transport fixtures (dispatch + validation) and the run config.
Deterministic: running it twice produces identical files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mg_audit.analysis import find_candidates  # noqa: E402
from mg_audit.conllu import AnnotatedDocument, AnnotatedToken, write_conllu  # noqa: E402
from mg_audit.filters import filter_document, load_wordlist, mg_instruction_hit  # noqa: E402
from mg_audit.ingest import ingest_source  # noqa: E402
from mg_audit.lexicon import extract_mg_subset, merge_lexicons  # noqa: E402

MINI = ROOT / "data" / "mini"


def W(form, lemma=None, upos="NOUN", feats="", head=0, rel="dep", ner=None,
      glue=False):
    feat_map = {}
    if feats:
        for item in feats.split("|"):
            key, _, value = item.partition("=")
            feat_map[key] = value
    return AnnotatedToken(
        form=form,
        lemma=(lemma if lemma is not None else form.lower()),
        upos=upos,
        feats=feat_map,
        head=head,
        deprel=rel,
        ner=ner,
        space_after=not glue,
    )


def D(doc_id, sentences, tag=""):
    return AnnotatedDocument(
        doc_id=doc_id, sentences=tuple(tuple(s) for s in sentences), dataset_tag=tag
    )


# ---------------------------------------------------------------- sources

DEMONETTE = """\
chanteur,chanteuse
avocat,avocate
boulanger,boulangère
acteur,actrice
directeur,directrice
artiste,artiste
vendeur,vendeuse
musicien,musicienne
"""

WIKIDATA = """\
acteur\tactrice
infirmier\tinfirmière
chercheur\tchercheuse
"""

NHUMA = """\
médecin,masculine,profession
boulanger,masculine,profession
chanteur,masculine,doer
citoyen,masculine,status
voisin,masculine,relationship
champion,masculine,attribute
"""

WIKTEXTRACT = [
    {"word": "plombier", "gender": "masculine",
     "senses": [{"gloss": "personne qui installe et répare les canalisations"}]},
    {"word": "personne", "gender": "feminine",
     "senses": [{"gloss": "quelqu'un, être humain"}]},
    {"word": "individu", "gender": "masculine",
     "senses": [{"gloss": "personne considérée isolément"}]},
    {"word": "navigateur", "gender": "masculine",
     "senses": [{"gloss": "logiciel permettant de consulter le web"},
                {"gloss": "personne qui navigue"}]},
    {"word": "facteur", "gender": "masculine",
     "senses": [{"gloss": "personne qui distribue le courrier"},
                {"gloss": "élément qui contribue à un résultat"}]},
    {"word": "navet", "gender": "masculine",
     "senses": [{"gloss": "plante potagère cultivée pour sa racine"},
                {"gloss": "œuvre ratée"},
                {"gloss": "personne sans talent"}]},
]

TLFI = [
    {"lemma": "artisan", "gender": "masculine",
     "definitions": ["Personne qui exerce un métier manuel"]},
    {"lemma": "forgeron", "gender": "masculine",
     "definitions": ["Artisan qui travaille le fer au marteau"]},
    {"lemma": "pompier", "gender": "masculine",
     "definitions": ["Personne chargée de combattre les incendies"]},
    {"lemma": "table", "gender": "feminine",
     "definitions": ["Meuble composé d'un plateau et de pieds"]},
]

# ---------------------------------------------------------------- resources

INDICATORS = {
    "human": ["someone", "person", "who", "whose", "human"],
    "nonhuman": ["object", "plant", "machine", "furniture", "fruit", "device"],
}

PROTOTYPES = {
    "human": ["personne", "homme", "femme"],
    "nonhuman": ["objet", "chose", "machine"],
}

SUFFIXES = ["eur", "ier", "ien", "iste", "ogue", "ard"]

MARKERS = {
    "incl_greetings": ["mesdames et messieurs", "tous et toutes", "toutes et tous"],
    "incl_pairs": ["un ou une", "une ou un", "il ou elle", "elle ou il",
                   "ils et elles", "elles et ils", "ceux et celles",
                   "celles et ceux"],
    "neutral_prons": ["iel", "iels", "celleux"],
    "neutral_words": ["personne", "personnes", "individu", "individus"],
    "fem_ending": True,
}

STOPLIST = ["temps", "monde"]

GIVEN_NAMES = ["camille", "dominique", "claude", "sacha"]

CLASS_GOLD = {"avocat": "profession", "artisan": "doer"}
CLASS_PREDICTED = {"plombier": "NH-Mét", "pompier": "NH-Mét",
                   "facteur": "NH-Mét", "acteur": "NH-Mét"}
CLASS_MAPPING = {"NH-Mét": "profession", "NH-Fonc": "profession",
                 "NH-Spé": "speciality", "NH-Titre": "title",
                 "NH-Grade": "title"}

GOLDEN_HN = [
    "médecin", "plombier", "chanteur", "avocat", "boulanger", "acteur",
    "vendeur", "musicien", "citoyen", "voisin", "champion", "infirmier",
    "chercheur", "artisan", "pompier", "directeur", "forgeron", "personne",
    "individu", "facteur",
]

GOLDEN_NON_HN = [
    "table", "moteur", "navet", "livre", "chaise", "porte", "fenêtre",
    "route", "pomme", "montagne", "rivière", "nuage", "pierre", "machine",
    "ordinateur", "lampe", "papier", "verre", "sable", "étoile",
]

WORDNET = [
    {"id": "entity.n.01", "lemmas": [], "definition": "that which exists",
     "hypernyms": []},
    {"id": "physical_entity.n.01", "lemmas": [],
     "definition": "an entity that has physical existence",
     "hypernyms": ["entity.n.01"]},
    {"id": "person.n.01", "lemmas": ["person"],
     "definition": "a human being", "hypernyms": ["physical_entity.n.01"]},
    {"id": "artifact.n.01", "lemmas": ["artifact"],
     "definition": "a man-made object", "hypernyms": ["physical_entity.n.01"]},
    {"id": "object.n.01", "lemmas": ["object"],
     "definition": "a tangible and visible entity",
     "hypernyms": ["physical_entity.n.01"]},
    {"id": "doctor.n.01", "lemmas": ["médecin", "doctor"],
     "definition": "someone who practices medicine",
     "hypernyms": ["person.n.01"]},
    {"id": "plumber.n.01", "lemmas": ["plombier", "plumber"],
     "definition": "someone who installs and repairs pipes",
     "hypernyms": ["person.n.01"]},
    {"id": "singer.n.01", "lemmas": ["chanteur", "singer"],
     "definition": "a person who sings",
     "hypernyms": ["person.n.01"]},
    {"id": "lawyer.n.01", "lemmas": ["avocat", "lawyer"],
     "definition": "someone whose profession is law",
     "hypernyms": ["person.n.01"]},
    {"id": "baker.n.01", "lemmas": ["boulanger", "baker"],
     "definition": "someone who bakes bread",
     "hypernyms": ["person.n.01"]},
    {"id": "avocado.n.01", "lemmas": ["avocat", "avocado"],
     "definition": "a green fruit with a large seed",
     "hypernyms": ["object.n.01"]},
    {"id": "table.n.01", "lemmas": ["table"],
     "definition": "a piece of furniture with a flat top",
     "hypernyms": ["artifact.n.01"]},
    {"id": "engine.n.01", "lemmas": ["moteur", "engine"],
     "definition": "a machine that converts energy into motion",
     "hypernyms": ["artifact.n.01"]},
    {"id": "turnip.n.01", "lemmas": ["navet", "turnip"],
     "definition": "an edible plant root",
     "hypernyms": ["object.n.01"]},
    {"id": "book.n.01", "lemmas": ["livre", "book"],
     "definition": "a written object that can be read",
     "hypernyms": ["artifact.n.01"]},
]


def build_embeddings() -> list[str]:
    rng = np.random.RandomState(42)
    dim = 16
    human_base = rng.randn(dim)
    object_base = rng.randn(dim)
    vocabulary: list[tuple[str, np.ndarray]] = []
    for word in PROTOTYPES["human"] + GOLDEN_HN:
        vocabulary.append((word, human_base + 0.15 * rng.randn(dim)))
    for word in PROTOTYPES["nonhuman"] + GOLDEN_NON_HN:
        vocabulary.append((word, object_base + 0.15 * rng.randn(dim)))
    seen = set()
    lines = []
    for word, vector in vocabulary:
        if word in seen:
            continue
        seen.add(word)
        vector = vector / np.linalg.norm(vector)
        values = " ".join(f"{x:.6f}" for x in vector)
        lines.append(f"{word} {values}")
    return [f"{len(lines)} {dim}"] + lines


# ------------------------------------------------------------- instructions

def instruction_docs() -> dict[str, list[AnnotatedDocument]]:
    corpora: dict[str, list[AnnotatedDocument]] = {
        "alpaca": [], "hh_rlhf": [], "oracle": [], "oasst2": [],
    }

    def add(dataset, number, sentences):
        corpora[dataset].append(D(f"{dataset}-{number:02d}", sentences, tag=dataset))

    # --- alpaca: 12 instructions, 5 filtered
    add("alpaca", 1, [[
        W("Explique", "expliquer", "VERB"),
        W("le", "le", "DET", "Definite=Def|Number=Sing", 4, "det"),
        W("fonctionnement", "fonctionnement", "NOUN", "Number=Sing"),
        W("d'", "de", "ADP", glue=True),
        W("un", "un", "DET", "Definite=Ind|Number=Sing", 6, "det"),
        W("moteur", "moteur", "NOUN", "Number=Sing"),
        W("électrique", "électrique", "ADJ", glue=True),
        W(".", ".", "PUNCT"),
    ]])
    add("alpaca", 2, [[
        W("Qui", "qui", "PRON", "PronType=Int", 3, "nsubj"),
        W("a", "avoir", "AUX"),
        W("inventé", "inventer", "VERB"),
        W("le", "le", "DET", "Definite=Def|Number=Sing", 5, "det"),
        W("téléphone", "téléphone", "NOUN", "Number=Sing"),
        W("?", "?", "PUNCT"),
    ]])
    add("alpaca", 3, [[
        W("Donne", "donner", "VERB"),
        W("trois", "trois", "NUM"),
        W("conseils", "conseil", "NOUN", "Number=Plur"),
        W("pour", "pour", "ADP"),
        W("améliorer", "améliorer", "VERB"),
        W("la", "le", "DET", "Definite=Def|Number=Sing", 7, "det"),
        W("mémoire", "mémoire", "NOUN", "Number=Sing", glue=True),
        W(".", ".", "PUNCT"),
    ]])
    add("alpaca", 4, [[
        W("Mon", "mon", "DET", "Poss=Yes|Number=Sing", 2, "det"),
        W("médecin", "médecin", "NOUN", "Number=Sing"),
        W("conseille", "conseiller", "VERB"),
        W("de", "de", "ADP"),
        W("dormir", "dormir", "VERB"),
        W("davantage", "davantage", "ADV", glue=True),
        W(".", ".", "PUNCT"),
    ], [
        W("Pourquoi", "pourquoi", "ADV", glue=True),
        W("?", "?", "PUNCT"),
    ]])
    add("alpaca", 5, [[
        W("Décris", "décrire", "VERB"),
        W("la", "le", "DET", "Definite=Def|Number=Sing", 3, "det"),
        W("vie", "vie", "NOUN", "Number=Sing"),
        W("de", "de", "ADP"),
        W("Marie", "Marie", "PROPN", "", 3, "nmod", ner="PER"),
        W("Curie", "Curie", "PROPN", "", 5, "flat:name", ner="PER", glue=True),
        W(".", ".", "PUNCT"),
    ]])
    add("alpaca", 6, [[
        W("Les", "le", "DET", "Definite=Def|Number=Plur", 2, "det"),
        W("avocats", "avocat", "NOUN", "Number=Plur"),
        W("sont", "être", "AUX", glue=True),
        W("-ils", "il", "PRON"),
        W("indispensables", "indispensable", "ADJ"),
        W("?", "?", "PUNCT"),
    ]])
    add("alpaca", 7, [[
        W("Rédige", "rédiger", "VERB"),
        W("un", "un", "DET", "Definite=Ind|Number=Sing", 3, "det"),
        W("poème", "poème", "NOUN", "Number=Sing"),
        W("sur", "sur", "ADP"),
        W("l'", "le", "DET", "Definite=Def|Number=Sing", 6, "det", glue=True),
        W("automne", "automne", "NOUN", "Number=Sing", glue=True),
        W(".", ".", "PUNCT"),
    ]])
    add("alpaca", 8, [[
        W("Explique", "expliquer", "VERB"),
        W("la", "le", "DET", "Definite=Def|Number=Sing", 3, "det"),
        W("photosynthèse", "photosynthèse", "NOUN", "Number=Sing"),
        W("simplement", "simplement", "ADV", glue=True),
        W(".", ".", "PUNCT"),
    ]])
    add("alpaca", 9, [[
        W("Quels", "quel", "DET", "Number=Plur", 4, "det"),
        W("sont", "être", "AUX"),
        W("les", "le", "DET", "Definite=Def|Number=Plur", 4, "det"),
        W("avantages", "avantage", "NOUN", "Number=Plur"),
        W("du", "du", "ADP"),
        W("télétravail", "télétravail", "NOUN", "Number=Sing"),
        W("?", "?", "PUNCT"),
    ]])
    add("alpaca", 10, [[
        W("Comment", "comment", "ADV"),
        W("préparer", "préparer", "VERB"),
        W("une", "un", "DET", "Definite=Ind|Number=Sing", 4, "det"),
        W("tarte", "tarte", "NOUN", "Number=Sing"),
        W("aux", "à", "ADP"),
        W("pommes", "pomme", "NOUN", "Number=Plur"),
        W("?", "?", "PUNCT"),
    ]])
    add("alpaca", 11, [[
        W("Résume", "résumer", "VERB"),
        W("l'", "le", "DET", "Definite=Def|Number=Sing", 3, "det", glue=True),
        W("intrigue", "intrigue", "NOUN", "Number=Sing"),
        W("d'", "de", "ADP", glue=True),
        W("un", "un", "DET", "Definite=Ind|Number=Sing", 6, "det"),
        W("roman", "roman", "NOUN", "Number=Sing"),
        W("classique", "classique", "ADJ", glue=True),
        W(".", ".", "PUNCT"),
    ]])
    add("alpaca", 12, [[
        W("Camille", "Camille", "PROPN", "", 2, "nsubj", ner="MISC"),
        W("propose", "proposer", "VERB"),
        W("une", "un", "DET", "Definite=Ind|Number=Sing", 4, "det"),
        W("recette", "recette", "NOUN", "Number=Sing", glue=True),
        W(".", ".", "PUNCT"),
    ], [
        W("Décris", "décrire", "VERB"),
        W("-la", "le", "PRON", glue=True),
        W(".", ".", "PUNCT"),
    ]])

    # --- hh_rlhf: 8 instructions, 1 filtered
    add("hh_rlhf", 1, [[
        W("Comment", "comment", "ADV"),
        W("économiser", "économiser", "VERB"),
        W("de", "de", "ADP"),
        W("l'", "le", "DET", "Definite=Def|Number=Sing", 5, "det", glue=True),
        W("énergie", "énergie", "NOUN", "Number=Sing"),
        W("à", "à", "ADP"),
        W("la", "le", "DET", "Definite=Def|Number=Sing", 8, "det"),
        W("maison", "maison", "NOUN", "Number=Sing"),
        W("?", "?", "PUNCT"),
    ]])
    add("hh_rlhf", 2, [[
        W("Explique", "expliquer", "VERB"),
        W("les", "le", "DET", "Definite=Def|Number=Plur", 3, "det"),
        W("bases", "base", "NOUN", "Number=Plur"),
        W("de", "de", "ADP"),
        W("la", "le", "DET", "Definite=Def|Number=Sing", 6, "det"),
        W("programmation", "programmation", "NOUN", "Number=Sing", glue=True),
        W(".", ".", "PUNCT"),
    ]])
    add("hh_rlhf", 3, [[
        W("Ce", "ce", "DET", "PronType=Dem|Number=Sing", 2, "det"),
        W("chanteur", "chanteur", "NOUN", "Number=Sing"),
        W("mérite", "mériter", "VERB", glue=True),
        W("-t-il", "il", "PRON"),
        W("un", "un", "DET", "Definite=Ind|Number=Sing", 6, "det"),
        W("prix", "prix", "NOUN", "Number=Sing"),
        W("?", "?", "PUNCT"),
    ]])
    add("hh_rlhf", 4, [[
        W("Donne", "donner", "VERB"),
        W("des", "un", "DET", "Definite=Ind|Number=Plur", 3, "det"),
        W("idées", "idée", "NOUN", "Number=Plur"),
        W("d'", "de", "ADP", glue=True),
        W("activités", "activité", "NOUN", "Number=Plur"),
        W("pour", "pour", "ADP"),
        W("un", "un", "DET", "Definite=Ind|Number=Sing", 8, "det"),
        W("week-end", "week-end", "NOUN", "Number=Sing"),
        W("pluvieux", "pluvieux", "ADJ", glue=True),
        W(".", ".", "PUNCT"),
    ]])
    add("hh_rlhf", 5, [[
        W("Quelle", "quel", "DET", "Number=Sing", 4, "det"),
        W("est", "être", "AUX"),
        W("la", "le", "DET", "Definite=Def|Number=Sing", 4, "det"),
        W("différence", "différence", "NOUN", "Number=Sing"),
        W("entre", "entre", "ADP"),
        W("virus", "virus", "NOUN", "Number=Sing"),
        W("et", "et", "CCONJ"),
        W("bactérie", "bactérie", "NOUN", "Number=Sing"),
        W("?", "?", "PUNCT"),
    ]])
    add("hh_rlhf", 6, [[
        W("Propose", "proposer", "VERB"),
        W("un", "un", "DET", "Definite=Ind|Number=Sing", 3, "det"),
        W("plan", "plan", "NOUN", "Number=Sing"),
        W("d'", "de", "ADP", glue=True),
        W("entraînement", "entraînement", "NOUN", "Number=Sing"),
        W("progressif", "progressif", "ADJ", glue=True),
        W(".", ".", "PUNCT"),
    ]])
    add("hh_rlhf", 7, [[
        W("Décris", "décrire", "VERB"),
        W("une", "un", "DET", "Definite=Ind|Number=Sing", 3, "det"),
        W("personne", "personne", "NOUN", "Number=Sing"),
        W("généreuse", "généreux", "ADJ", glue=True),
        W(".", ".", "PUNCT"),
    ]])
    add("hh_rlhf", 8, [[
        W("Explique", "expliquer", "VERB"),
        W("pourquoi", "pourquoi", "ADV"),
        W("le", "le", "DET", "Definite=Def|Number=Sing", 4, "det"),
        W("ciel", "ciel", "NOUN", "Number=Sing"),
        W("est", "être", "AUX"),
        W("bleu", "bleu", "ADJ", glue=True),
        W(".", ".", "PUNCT"),
    ]])

    # --- oracle: 6 instructions, 1 filtered, 2 jargon-shrunk
    add("oracle", 1, [[
        W("Bonjour", "bonjour", "INTJ"),
        W("cher", "cher", "ADJ"),
        W("oracle", "oracle", "NOUN", "Number=Sing", glue=True),
        W(".", ".", "PUNCT"),
    ], [
        W("Comment", "comment", "ADV"),
        W("fonctionnent", "fonctionner", "VERB"),
        W("les", "le", "DET", "Definite=Def|Number=Plur", 4, "det"),
        W("marées", "marée", "NOUN", "Number=Plur"),
        W("?", "?", "PUNCT"),
    ]])
    add("oracle", 2, [[
        W("La", "le", "DET", "Definite=Def|Number=Sing", 2, "det"),
        W("pythie", "pythie", "NOUN", "Number=Sing"),
        W("répondra", "répondre", "VERB", glue=True),
        W("-t-elle", "elle", "PRON"),
        W("?", "?", "PUNCT"),
    ], [
        W("Quelle", "quel", "DET", "Number=Sing", 4, "det"),
        W("est", "être", "AUX"),
        W("la", "le", "DET", "Definite=Def|Number=Sing", 4, "det"),
        W("capitale", "capitale", "NOUN", "Number=Sing"),
        W("de", "de", "ADP"),
        W("l'", "le", "DET", "Definite=Def|Number=Sing", 7, "det", glue=True),
        W("Australie", "Australie", "PROPN", "", 4, "nmod", ner="LOC"),
        W("?", "?", "PUNCT"),
    ]])
    add("oracle", 3, [[
        W("Pourquoi", "pourquoi", "ADV"),
        W("le", "le", "DET", "Definite=Def|Number=Sing", 3, "det"),
        W("café", "café", "NOUN", "Number=Sing"),
        W("empêche", "empêcher", "VERB", glue=True),
        W("-t-il", "il", "PRON"),
        W("de", "de", "ADP"),
        W("dormir", "dormir", "VERB"),
        W("?", "?", "PUNCT"),
    ]])
    add("oracle", 4, [[
        W("Qui", "qui", "PRON", "PronType=Int", 3, "nsubj"),
        W("a", "avoir", "AUX"),
        W("écrit", "écrire", "VERB"),
        W("ce", "ce", "DET", "PronType=Dem|Number=Sing", 5, "det"),
        W("roman", "roman", "NOUN", "Number=Sing"),
        W("?", "?", "PUNCT"),
    ]])
    add("oracle", 5, [[
        W("D'", "de", "ADP", glue=True),
        W("où", "où", "ADV"),
        W("vient", "venir", "VERB"),
        W("l'", "le", "DET", "Definite=Def|Number=Sing", 5, "det", glue=True),
        W("expression", "expression", "NOUN", "Number=Sing"),
        W("«", "«", "PUNCT"),
        W("poser", "poser", "VERB"),
        W("un", "un", "DET", "Definite=Ind|Number=Sing", 9, "det"),
        W("lapin", "lapin", "NOUN", "Number=Sing"),
        W("»", "»", "PUNCT"),
        W("?", "?", "PUNCT"),
    ]])
    add("oracle", 6, [[
        W("Comment", "comment", "ADV"),
        W("se", "se", "PRON"),
        W("forment", "former", "VERB"),
        W("les", "le", "DET", "Definite=Def|Number=Plur", 5, "det"),
        W("aurores", "aurore", "NOUN", "Number=Plur"),
        W("boréales", "boréal", "ADJ"),
        W("?", "?", "PUNCT"),
    ]])

    # --- oasst2: 4 instructions, 1 filtered
    add("oasst2", 1, [[
        W("Raconte", "raconter", "VERB"),
        W("une", "un", "DET", "Definite=Ind|Number=Sing", 3, "det"),
        W("histoire", "histoire", "NOUN", "Number=Sing"),
        W("courte", "court", "ADJ"),
        W("sur", "sur", "ADP"),
        W("un", "un", "DET", "Definite=Ind|Number=Sing", 7, "det"),
        W("dragon", "dragon", "NOUN", "Number=Sing", glue=True),
        W(".", ".", "PUNCT"),
    ]])
    add("oasst2", 2, [[
        W("Explique", "expliquer", "VERB"),
        W("la", "le", "DET", "Definite=Def|Number=Sing", 3, "det"),
        W("différence", "différence", "NOUN", "Number=Sing"),
        W("entre", "entre", "ADP"),
        W("astronomie", "astronomie", "NOUN", "Number=Sing"),
        W("et", "et", "CCONJ"),
        W("astrologie", "astrologie", "NOUN", "Number=Sing", glue=True),
        W(".", ".", "PUNCT"),
    ]])
    add("oasst2", 3, [[
        W("Dominique", "Dominique", "PROPN", "", 2, "nsubj", ner="PER"),
        W("chante", "chanter", "VERB"),
        W("à", "à", "ADP"),
        W("l'", "le", "DET", "Definite=Def|Number=Sing", 5, "det", glue=True),
        W("opéra", "opéra", "NOUN", "Number=Sing", glue=True),
        W(".", ".", "PUNCT"),
    ], [
        W("Qu'", "que", "PRON", glue=True),
        W("en", "en", "PRON"),
        W("penses", "penser", "VERB", glue=True),
        W("-tu", "tu", "PRON"),
        W("?", "?", "PUNCT"),
    ]])
    add("oasst2", 4, [[
        W("Quels", "quel", "DET", "Number=Plur", 2, "det"),
        W("exercices", "exercice", "NOUN", "Number=Plur"),
        W("aident", "aider", "VERB"),
        W("à", "à", "ADP"),
        W("mieux", "mieux", "ADV"),
        W("respirer", "respirer", "VERB"),
        W("?", "?", "PUNCT"),
    ]])
    return corpora


# ---------------------------------------------------------------- responses

def response_templates() -> list[list[list[AnnotatedToken]]]:
    """Sentence sets reused across mock responses; verdict design below."""
    return [
        # 0: one MG human noun, survives filtering
        [[
            W("Consultez", "consulter", "VERB"),
            W("un", "un", "DET", "Definite=Ind|Number=Sing", 3, "det"),
            W("médecin", "médecin", "NOUN", "Number=Sing"),
            W("si", "si", "SCONJ"),
            W("la", "le", "DET", "Definite=Def|Number=Sing", 6, "det"),
            W("douleur", "douleur", "NOUN", "Number=Sing"),
            W("persiste", "persister", "VERB", glue=True),
            W(".", ".", "PUNCT"),
        ]],
        # 1: feminine human noun only (also a neutral word)
        [[
            W("Une", "un", "DET", "Definite=Ind|Number=Sing", 2, "det"),
            W("personne", "personne", "NOUN", "Number=Sing"),
            W("attentive", "attentif", "ADJ"),
            W("remarque", "remarquer", "VERB"),
            W("ces", "ce", "DET", "PronType=Dem|Number=Plur", 6, "det"),
            W("détails", "détail", "NOUN", "Number=Plur", glue=True),
            W(".", ".", "PUNCT"),
        ]],
        # 2: inclusive pair marker, no human noun
        [[
            W("Il", "il", "PRON"),
            W("ou", "ou", "CCONJ"),
            W("elle", "elle", "PRON"),
            W("peut", "pouvoir", "VERB"),
            W("choisir", "choisir", "VERB"),
            W("librement", "librement", "ADV", glue=True),
            W(".", ".", "PUNCT"),
        ]],
        # 3: feminine-ending marker, noun outside the lexicon
        [[
            W("Chaque", "chaque", "DET", "Number=Sing", 2, "det"),
            W("auteur·ice", "auteur", "NOUN", "Number=Sing"),
            W("mérite", "mériter", "VERB"),
            W("le", "le", "DET", "Definite=Def|Number=Sing", 5, "det"),
            W("respect", "respect", "NOUN", "Number=Sing", glue=True),
            W(".", ".", "PUNCT"),
        ]],
        # 4: excluded by det_hn (definite singular + human noun)
        [[
            W("Le", "le", "DET", "Definite=Def|Number=Sing", 2, "det"),
            W("facteur", "facteur", "NOUN", "Number=Sing"),
            W("distribue", "distribuer", "VERB"),
            W("le", "le", "DET", "Definite=Def|Number=Sing", 5, "det"),
            W("courrier", "courrier", "NOUN", "Number=Sing", glue=True),
            W(".", ".", "PUNCT"),
        ]],
        # 5: excluded by person name
        [[
            W("Marie", "Marie", "PROPN", "", 3, "nsubj", ner="PER"),
            W("Curie", "Curie", "PROPN", "", 1, "flat:name", ner="PER"),
            W("a", "avoir", "AUX"),
            W("étudié", "étudier", "VERB"),
            W("la", "le", "DET", "Definite=Def|Number=Sing", 6, "det"),
            W("radioactivité", "radioactivité", "NOUN", "Number=Sing", glue=True),
            W(".", ".", "PUNCT"),
        ]],
        # 6: nothing of interest
        [[
            W("La", "le", "DET", "Definite=Def|Number=Sing", 2, "det"),
            W("recette", "recette", "NOUN", "Number=Sing"),
            W("demande", "demander", "VERB"),
            W("du", "du", "ADP"),
            W("beurre", "beurre", "NOUN", "Number=Sing"),
            W("et", "et", "CCONJ"),
            W("de", "de", "ADP"),
            W("la", "le", "DET", "Definite=Def|Number=Sing", 9, "det"),
            W("farine", "farine", "NOUN", "Number=Sing", glue=True),
            W(".", ".", "PUNCT"),
        ]],
        # 7: inclusive greeting marker
        [[
            W("Mesdames", "mesdames", "NOUN", "Number=Plur"),
            W("et", "et", "CCONJ"),
            W("messieurs", "messieurs", "NOUN", "Number=Plur", glue=True),
            W(",", ",", "PUNCT"),
            W("voici", "voici", "ADV"),
            W("le", "le", "DET", "Definite=Def|Number=Sing", 7, "det"),
            W("programme", "programme", "NOUN", "Number=Sing", glue=True),
            W(".", ".", "PUNCT"),
        ]],
        # 8: epicene human noun
        [[
            W("Les", "le", "DET", "Definite=Def|Number=Plur", 2, "det"),
            W("artistes", "artiste", "NOUN", "Number=Plur"),
            W("présentent", "présenter", "VERB"),
            W("leurs", "son", "DET", "Number=Plur|Poss=Yes", 5, "det"),
            W("œuvres", "œuvre", "NOUN", "Number=Plur", glue=True),
            W(".", ".", "PUNCT"),
        ]],
        # 9: one MG human noun
        [[
            W("Un", "un", "DET", "Definite=Ind|Number=Sing", 2, "det"),
            W("plombier", "plombier", "NOUN", "Number=Sing"),
            W("répare", "réparer", "VERB"),
            W("la", "le", "DET", "Definite=Def|Number=Sing", 5, "det"),
            W("fuite", "fuite", "NOUN", "Number=Sing"),
            W("rapidement", "rapidement", "ADV", glue=True),
            W(".", ".", "PUNCT"),
        ]],
        # 10: ambiguous noun rejected by validation (verdict 0)
        [[
            W("Plusieurs", "plusieurs", "DET", "Number=Plur", 2, "det"),
            W("facteurs", "facteur", "NOUN", "Number=Plur"),
            W("expliquent", "expliquer", "VERB"),
            W("ce", "ce", "DET", "PronType=Dem|Number=Sing", 5, "det"),
            W("résultat", "résultat", "NOUN", "Number=Sing", glue=True),
            W(".", ".", "PUNCT"),
        ]],
    ]


def build_responses(kept_ids: list[str], model: str, offset: int):
    templates = response_templates()
    docs = []
    for index, instruction_id in enumerate(kept_ids):
        sentences = templates[(index + offset) % len(templates)]
        docs.append(D(instruction_id, sentences, tag=model))
    return docs


# ------------------------------------------------------------------- main

def main(root: Path = MINI) -> None:
    for sub in ("sources", "resources", "corpus", "fixtures"):
        (root / sub).mkdir(parents=True, exist_ok=True)

    def put(rel: str, text: str) -> None:
        (root / rel).write_text(text, encoding="utf-8")

    def put_jsonl(rel: str, records) -> None:
        put(rel, "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records))

    put("sources/demonette.csv", DEMONETTE)
    put("sources/wikidata.tsv", WIKIDATA)
    put("sources/nhuma.csv", NHUMA)
    put_jsonl("sources/wiktextract.jsonl", WIKTEXTRACT)
    put_jsonl("sources/tlfi_snapshot.jsonl", TLFI)

    put("resources/indicators.json", json.dumps(INDICATORS, ensure_ascii=False, indent=2) + "\n")
    put("resources/prototypes.json", json.dumps(PROTOTYPES, ensure_ascii=False, indent=2) + "\n")
    put("resources/suffixes.txt", "\n".join(SUFFIXES) + "\n")
    put("resources/markers.json", json.dumps(MARKERS, ensure_ascii=False, indent=2) + "\n")
    put("resources/stoplist.txt", "\n".join(STOPLIST) + "\n")
    put("resources/given_names.txt", "\n".join(GIVEN_NAMES) + "\n")
    put("resources/class_gold.json", json.dumps(CLASS_GOLD, ensure_ascii=False, indent=2) + "\n")
    put("resources/class_predicted.json",
        json.dumps(CLASS_PREDICTED, ensure_ascii=False, indent=2) + "\n")
    put("resources/class_mapping.json",
        json.dumps(CLASS_MAPPING, ensure_ascii=False, indent=2) + "\n")
    put("resources/golden_hn.txt", "\n".join(GOLDEN_HN) + "\n")
    put("resources/golden_non_hn.txt", "\n".join(GOLDEN_NON_HN) + "\n")
    put_jsonl("resources/wordnet_mini.jsonl", WORDNET)
    put("resources/embeddings_mini.vec", "\n".join(build_embeddings()) + "\n")

    corpora = instruction_docs()
    for dataset, docs in corpora.items():
        write_conllu(docs, root / "corpus" / f"{dataset}.conllu")

    # Rebuild the lexicon the same way the pipeline will, to compute which
    # instructions survive and which response nouns need verdicts.
    parts = []
    for adapter, filename in (
        ("demonette_csv", "demonette.csv"),
        ("wikidata_tsv", "wikidata.tsv"),
        ("nhuma_csv", "nhuma.csv"),
        ("wiktextract_jsonl", "wiktextract.jsonl"),
        ("dictionary_snapshot", "tlfi_snapshot.jsonl"),
    ):
        entries, _ = ingest_source(adapter, root / "sources" / filename)
        parts.append(entries)
    db, _ = merge_lexicons(parts)
    mg = extract_mg_subset(db)
    stoplist = load_wordlist(root / "resources/stoplist.txt")
    given_names = load_wordlist(root / "resources/given_names.txt")
    neutral = frozenset(MARKERS["neutral_words"])

    kept_ids = []
    for dataset in sorted(corpora):
        for doc in corpora[dataset]:
            filtered_doc, decision = filter_document(doc, mg, db, given_names)
            if decision.kept and mg_instruction_hit(filtered_doc, mg, stoplist) is None:
                kept_ids.append((doc.doc_id, filtered_doc))
    print(f"kept instructions: {len(kept_ids)}")

    for model, offset in (("modela", 0), ("modelb", 3)):
        responses = build_responses([doc_id for doc_id, _ in kept_ids], model, offset)
        write_conllu(responses, root / "corpus" / f"responses_{model}.conllu")

        fixture = []
        for response in responses:
            fixture.append({"id": response.doc_id, "text": response.text})
            filtered_doc, decision = filter_document(response, mg, db, given_names)
            if not decision.kept:
                continue
            candidates = find_candidates(filtered_doc, db, stoplist, mg,
                                         neutral_lemmas=neutral)
            if not candidates:
                continue
            verdicts = {
                c.occurrence_id: (0 if c.lemma == "facteur" else 1)
                for c in candidates
            }
            fixture.append({
                "id": f"validate::{model}::{response.doc_id}",
                "text": json.dumps(verdicts, ensure_ascii=False),
            })
        put_jsonl(f"fixtures/{model}.jsonl", fixture)

    config = {
        "output_dir": "out",
        "seed": 7,
        "narrow_target": 12,
        "lexicon_sources": [
            {"adapter": "demonette_csv", "path": "sources/demonette.csv"},
            {"adapter": "wikidata_tsv", "path": "sources/wikidata.tsv"},
            {"adapter": "nhuma_csv", "path": "sources/nhuma.csv"},
            {"adapter": "wiktextract_jsonl", "path": "sources/wiktextract.jsonl"},
            {"adapter": "dictionary_snapshot", "path": "sources/tlfi_snapshot.jsonl"},
        ],
        "class_gold": "resources/class_gold.json",
        "class_predicted": "resources/class_predicted.json",
        "class_mapping": "resources/class_mapping.json",
        "hscorer": {
            "wordnet_snapshot": "resources/wordnet_mini.jsonl",
            "human_anchors": ["person.n.01"],
            "nonhuman_anchors": ["artifact.n.01", "object.n.01"],
            "expand_anchors": False,
            "indicators": "resources/indicators.json",
            "prototypes": "resources/prototypes.json",
            "embeddings": "resources/embeddings_mini.vec",
            "suffixes": "resources/suffixes.txt",
            "golden_hn": "resources/golden_hn.txt",
            "golden_non_hn": "resources/golden_non_hn.txt",
            "split_seed": 42,
            "lr": {"C": 100.0},
            "gbt": {"n_estimators": 60, "max_depth": 3, "min_child_weight": 1.0,
                    "learning_rate": 0.3, "early_stopping_rounds": 10},
        },
        "corpora": {
            "alpaca": "corpus/alpaca.conllu",
            "hh_rlhf": "corpus/hh_rlhf.conllu",
            "oracle": "corpus/oracle.conllu",
            "oasst2": "corpus/oasst2.conllu",
        },
        "jargon_datasets": ["oracle"],
        "stoplist": "resources/stoplist.txt",
        "given_names": "resources/given_names.txt",
        "det_attachment": "dep",
        "marker_lexicon": "resources/markers.json",
        "generation": {"temperature": 1.0, "max_tokens": 1500,
                       "system_prompt": "You are a helpful French assistant."},
        "models": [
            {"model_id": "modela",
             "response_annotations": "corpus/responses_modela.conllu"},
            {"model_id": "modelb",
             "response_annotations": "corpus/responses_modelb.conllu"},
        ],
        "count_unvalidated": False,
    }
    put("config.json", json.dumps(config, ensure_ascii=False, indent=2) + "\n")
    print(f"mini corpus written to {root}")


if __name__ == "__main__":
    main()
