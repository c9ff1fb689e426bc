import dataclasses
import json
import re

import pytest

from mg_audit.markers import (
    DEFAULT_MARKER_LEXICON,
    MARKER_FAMILIES,
    MarkerLexicon,
    detect_markers,
)

LEX = DEFAULT_MARKER_LEXICON

# One positive example per family, with the expected matched substring.
POSITIVE_EXAMPLES = [
    ("Mesdames et messieurs, bonsoir.", "incl_greetings", "Mesdames et messieurs"),
    ("Merci à tous et toutes.", "incl_greetings", "tous et toutes"),
    ("il ou elle veut dire que les équipes sont équilibrées.", "incl_pairs", "il ou elle"),
    ("Choisissez un ou une partenaire.", "incl_pairs", "un ou une"),
    ("Demandez à iel avant de partir.", "neutral_prons", "iel"),
    ("C'est à celleux qui attendent.", "neutral_prons", "celleux"),
    ("Chaque auteur·ice présente son travail.", "fem_ending", "auteur·ice"),
    ("Chaque auteur(ice) présente son travail.", "fem_ending", "auteur(ice)"),
    ("Chaque auteurICE présente son travail.", "fem_ending", "auteurICE"),
    ("La comparaison avec les autres utilisateur·ices est néfaste.", "fem_ending",
     "utilisateur·ices"),
    ("Une personne attend dehors.", "neutral_words", "personne"),
    ("Chaque individu compte.", "neutral_words", "individu"),
]

# Fifty ordinary sentences without any marker.
CONTROL_CORPUS = [
    "Le chat dort sur le canapé.",
    "La réunion commence à neuf heures.",
    "Nous avons visité le musée hier.",
    "Il pleut depuis ce matin.",
    "Le train arrive en retard.",
    "Elle prépare une tarte aux pommes.",
    "Les résultats seront publiés demain.",
    "Ce livre contient douze chapitres.",
    "Le moteur fait un bruit étrange.",
    "Nous partons en vacances la semaine prochaine.",
    "L'ordinateur redémarre automatiquement.",
    "La bibliothèque ferme à dix-huit heures.",
    "Un orage a traversé la région.",
    "Le pain sort du four.",
    "Les feuilles tombent en automne.",
    "La rivière traverse la vallée.",
    "Ce film a reçu de bonnes critiques.",
    "Le magasin ouvre ses portes à huit heures.",
    "Une lettre est arrivée ce matin.",
    "Les travaux dureront trois mois.",
    "Le téléphone sonne sans arrêt.",
    "La recette demande deux œufs.",
    "Il manque une pièce au puzzle.",
    "Le jardin fleurit au printemps.",
    "Les prix augmentent chaque année.",
    "La voiture est garée devant la maison.",
    "Ce quartier est très calme la nuit.",
    "Le projet avance selon le calendrier.",
    "Une panne a interrompu le service.",
    "Les fenêtres donnent sur la cour.",
    "Le document fait vingt pages.",
    "La soupe refroidit sur la table.",
    "Ils ont repeint la façade en bleu.",
    "Le sentier monte vers le sommet.",
    "Une cloche sonne au loin.",
    "Les étoiles brillent ce soir.",
    "Le marché a lieu le samedi.",
    "La porte grince un peu.",
    "Ce fromage vient des Alpes.",
    "Le courrier part à midi.",
    "Les ponts sont fermés à cause du vent.",
    "La lampe éclaire tout le salon.",
    "Un avion passe au-dessus des toits.",
    "Le spectacle dure deux heures.",
    "Les légumes poussent dans la serre.",
    "La route longe la côte.",
    "Ce tableau date du siècle dernier.",
    "Le robinet fuit depuis lundi.",
    "Une odeur de café remplit la cuisine.",
    "Les vagues effacent les traces sur le sable.",
]


class TestPositiveExamples:
    @pytest.mark.parametrize("text,family,needle", POSITIVE_EXAMPLES)
    def test_detected_with_correct_family(self, text, family, needle):
        hits = detect_markers(text, LEX)
        spans = hits[family]
        assert spans, f"{needle!r} not detected as {family}"
        assert any(text[s:e] == needle for s, e in spans), (
            f"expected {needle!r} in {[text[s:e] for s, e in spans]}"
        )


class TestControlCorpus:
    def test_no_hits_on_50_clean_sentences(self):
        assert len(CONTROL_CORPUS) == 50
        for sentence in CONTROL_CORPUS:
            hits = detect_markers(sentence, LEX)
            fired = {f: s for f, s in hits.items() if s}
            assert not fired, f"false positives in {sentence!r}: {fired}"


class TestPatternEdges:
    def test_ciel_does_not_contain_iel(self):
        assert detect_markers("Le ciel est bleu.", LEX)["neutral_prons"] == []

    def test_acronym_not_fem_ending(self):
        # needs >= 2 trailing capitals AND a >= 3-letter lowercase stem
        for text in ("la SNCF annonce", "le TGV part", "laTeX?"):
            assert detect_markers(text, LEX)["fem_ending"] == [], text

    def test_plural_paren_s_not_fem_ending(self):
        assert detect_markers("le(s) document(s)", LEX)["fem_ending"] == []

    def test_capitalized_phrase_matches(self):
        hits = detect_markers("Il ou elle décidera.", LEX)
        assert hits["incl_pairs"]

    def test_spans_index_into_text(self):
        text = "Bonjour, des utilisateur·ices sont là."
        spans = detect_markers(text, LEX)["fem_ending"]
        assert [text[s:e] for s, e in spans] == ["utilisateur·ices"]

    def test_families_disjoint_per_family_spans(self):
        text = "Mesdames et messieurs, il ou elle parle aux utilisateur·ices."
        hits = detect_markers(text, LEX)
        for family in MARKER_FAMILIES:
            spans = hits[family]
            assert spans == sorted(set(spans))
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 <= s2, f"overlapping {family} spans {spans}"

    def test_appending_clean_text_adds_nothing(self):
        base = "il ou elle veut dire quelque chose"
        baseline = detect_markers(base, LEX)
        extended = detect_markers(base + " et la route longe la côte", LEX)
        for family in MARKER_FAMILIES:
            assert len(extended[family]) == len(baseline[family])

    @pytest.mark.parametrize("family, entry", [("neutral_words", ""), ("incl_pairs", "  ")])
    def test_blank_entry_is_refused(self, family, entry):
        # Its pattern would match the empty string, so every text would count.
        with pytest.raises(ValueError, match=f"^{family}: blank entry {entry!r}$"):
            dataclasses.replace(LEX, **{family: (*getattr(LEX, family), entry)})


class TestNeutralLemmas:
    def test_lowercased_words_computed_once(self):
        lex = dataclasses.replace(LEX, neutral_words=("Personne", "INDIVIDU", "individu"))
        assert lex.neutral_lemmas == frozenset({"personne", "individu"})
        assert lex.neutral_lemmas is lex.neutral_lemmas
        assert LEX.neutral_lemmas == frozenset({"personne", "personnes", "individu", "individus"})

    def test_not_part_of_equality_or_repr(self, tmp_path):
        path = tmp_path / "markers.json"
        path.write_text(json.dumps({"neutral_words": ["Personne"]}), encoding="utf-8")
        loaded = MarkerLexicon.load_json(path)
        assert loaded.neutral_lemmas == frozenset({"personne"})
        assert loaded == MarkerLexicon((), (), (), ("Personne",))
        assert "neutral_lemmas" not in repr(loaded)
        with pytest.raises(dataclasses.FrozenInstanceError):
            loaded.neutral_lemmas = frozenset()


class TestLoadJson:
    """A marker file whose keys or values do not fit is refused, naming the
    file, the key and the value, instead of loading a lexicon that counts
    other markers. The message follows the file's path."""

    @pytest.mark.parametrize(
        "content, message",
        [({"neutral_word": ["personne"]}, ": unknown key(s) ['neutral_word']"),
         ({"neutral_prons": "iel"}, ".neutral_prons: expected a list, got 'iel'"),
         ({"fem_ending": "false"}, ".fem_ending: expected bool, got 'false'"),
         ({"neutral_words": ["personne", ""]}, ": neutral_words: blank entry ''"),
         ({"incl_pairs": ["il ou elle", "  "]}, ": incl_pairs: blank entry '  '")],
        ids=["misspelled-key", "string-for-list", "string-for-bool", "empty-word",
             "blank-pair"],
    )
    def test_bad_input_is_refused(self, tmp_path, content, message):
        path = tmp_path / "markers.json"
        path.write_text(json.dumps(content), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
            MarkerLexicon.load_json(path)
