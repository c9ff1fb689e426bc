"""Score candidate nouns and gate them through the full-agreement ensemble.

Loads the mini feature resources, prints the seven scalar scores for a few
words, trains the two classifier members on the bundled golden sets and
shows how only unanimous positives enter the database.
"""

from pathlib import Path

import numpy as np

from mg_audit.ensemble import ensemble_classify, train_member
from mg_audit.features import FeatureResources, feature_matrix
from mg_audit.filters import load_wordlist
from mg_audit.resources import (
    EmbeddingTable,
    IndicatorLexicon,
    PrototypeLexicon,
    SuffixSet,
)
from mg_audit.wordnet import WordNetSnapshot

MINI = Path(__file__).resolve().parent.parent / "data" / "mini"
RES = MINI / "resources"

resources = FeatureResources(
    wordnet=WordNetSnapshot.load_jsonl(
        RES / "wordnet_mini.jsonl",
        human_anchors={"person.n.01"},
        nonhuman_anchors={"artifact.n.01", "object.n.01"},
    ),
    indicators=IndicatorLexicon.load_json(RES / "indicators.json"),
    prototypes=PrototypeLexicon.load_json(RES / "prototypes.json"),
    embeddings=EmbeddingTable.load_text(RES / "embeddings_mini.vec"),
    suffixes=SuffixSet.load_text(RES / "suffixes.txt"),
)

# Each feature row is [h_s, n_s, h_d, n_d, h_f, n_f, s, embedding].
print("word        h_s   n_s   h_d   n_d    h_f    n_f  sfx")
words = ["médecin", "plombier", "avocat", "table", "moteur", "navet"]
for word, row in zip(words, feature_matrix(words, resources)):
    h_s, n_s, h_d, n_d, h_f, n_f, s = row[:7]
    print(f"{word:10s} {h_s:5.2f} {n_s:5.2f} {h_d:5.2f} {n_d:5.2f}"
          f" {h_f:6.2f} {n_f:6.2f} {int(s):4d}")

positives = sorted(load_wordlist(RES / "golden_hn.txt"))
negatives = sorted(load_wordlist(RES / "golden_non_hn.txt"))
X = feature_matrix(positives + negatives, resources)
y = np.array([1] * len(positives) + [0] * len(negatives))

lr = train_member("logistic_regression", X, y, split_seed=42)
gbt = train_member(
    "gradient_boosted_trees", X, y,
    hyperparams={"n_estimators": 60, "max_depth": 3, "min_child_weight": 1.0,
                 "learning_rate": 0.3, "early_stopping_rounds": 10},
    split_seed=42,
)
print(f"\nLR validation accuracy:  {lr.validation_accuracy:.3f}")
print(f"GBT validation accuracy: {gbt.validation_accuracy:.3f}")

# Candidate nouns from a source dump pass only on full agreement.
print("\nensemble gate (unanimous vote required):")
candidates = ["boulanger", "avocat", "table", "navet"]
for word, x in zip(candidates, feature_matrix(candidates, resources)):
    verdict = ensemble_classify(x, [lr, gbt])
    votes = " ".join(f"{k}={int(v)}" for k, v in verdict.votes.items())
    print(f"  {word:10s} -> {'HN' if verdict.accepted else 'not HN':6s} ({votes})")
