"""WordNet consumed as a pre-converted JSONL snapshot.

One record per line: {"id": ..., "lemmas": [...], "definition": ...,
"hypernyms": [...]}. Anchor sets mark which synsets count as human or
non-human when scoring hypernym paths; they can be given literally or
expanded to all descendants of a few root ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .ioutil import numbered_jsonl


@dataclass(frozen=True)
class Synset:
    id: str
    lemmas: tuple[str, ...]
    definition: str
    hypernyms: tuple[str, ...]


@dataclass
class WordNetSnapshot:
    synsets: dict[str, Synset]
    human_synsets: frozenset[str] = frozenset()
    nonhuman_synsets: frozenset[str] = frozenset()
    _lemma_index: dict[str, list[str]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for synset in self.synsets.values():
            for hyper in synset.hypernyms:
                if hyper not in self.synsets:
                    raise ValueError(f"{synset.id} references unknown hypernym {hyper}")
        self._assert_acyclic()
        index: dict[str, list[str]] = {}
        for sid in sorted(self.synsets):
            for lemma in self.synsets[sid].lemmas:
                index.setdefault(lemma.lower(), []).append(sid)
        self._lemma_index.clear()
        self._lemma_index.update(index)

    def _assert_acyclic(self) -> None:
        state: dict[str, int] = {}  # 1 = on stack, 2 = done

        def visit(sid: str) -> None:
            state[sid] = 1
            for hyper in self.synsets[sid].hypernyms:
                mark = state.get(hyper)
                if mark == 1:
                    raise ValueError(f"hypernym cycle through {hyper}")
                if mark is None:
                    visit(hyper)
            state[sid] = 2

        for sid in self.synsets:
            if sid not in state:
                visit(sid)

    def synsets_of(self, lemma: str) -> list[Synset]:
        return [self.synsets[sid] for sid in self._lemma_index.get(lemma.lower(), [])]

    def hypernym_paths(self, synset_id: str) -> list[list[str]]:
        """All root-bound paths starting at the synset (synset included)."""
        synset = self.synsets[synset_id]
        if not synset.hypernyms:
            return [[synset_id]]
        paths = []
        for hyper in synset.hypernyms:
            for tail in self.hypernym_paths(hyper):
                paths.append([synset_id] + tail)
        return paths

    def descendants(self, root_ids: set[str] | frozenset[str]) -> frozenset[str]:
        """Roots plus every synset that reaches a root through hypernym edges."""
        children: dict[str, list[str]] = {}
        for synset in self.synsets.values():
            for hyper in synset.hypernyms:
                children.setdefault(hyper, []).append(synset.id)
        result = set(root_ids)
        stack = list(result)
        while stack:
            for child in children.get(stack.pop(), ()):
                if child not in result:
                    result.add(child)
                    stack.append(child)
        return frozenset(result)

    @classmethod
    def load_jsonl(
        cls,
        path: str | Path,
        human_anchors: set[str] | frozenset[str] = frozenset(),
        nonhuman_anchors: set[str] | frozenset[str] = frozenset(),
        expand_anchors: bool = False,
    ) -> "WordNetSnapshot":
        synsets = {}
        for number, record in numbered_jsonl(path):
            if not (isinstance(record, dict) and isinstance(record.get("id"), str)
                    and isinstance(record.get("definition", ""), str)
                    and all(isinstance(v, list) and all(isinstance(s, str) for s in v)
                            for v in (record.get("lemmas", []), record.get("hypernyms", [])))):
                raise ValueError(f"{path}: line {number}: expected a string id and definition "
                                 f"and lists of strings under lemmas and hypernyms, got {record!r}")
            synset = Synset(record["id"], tuple(record.get("lemmas", [])),
                            record.get("definition", ""), tuple(record.get("hypernyms", [])))
            synsets[synset.id] = synset
        snapshot = cls(synsets=synsets)
        if expand_anchors:
            human_anchors = snapshot.descendants(human_anchors)
            nonhuman_anchors = snapshot.descendants(nonhuman_anchors)
        snapshot.human_synsets = frozenset(human_anchors)
        snapshot.nonhuman_synsets = frozenset(nonhuman_anchors)
        return snapshot
