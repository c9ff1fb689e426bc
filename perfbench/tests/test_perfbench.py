"""Tests for the benchmark itself: generators, tracer arithmetic, fake provider.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
import tracer  # noqa: E402
from provider import ProviderProcess, content_key  # noqa: E402


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestGenerator:
    def test_audit_same_seed_same_bytes(self, tmp_path):
        a = gen.build_audit(tmp_path / "a", 3, 300, 40, 100)
        b = gen.build_audit(tmp_path / "b", 3, 300, 40, 100)
        assert a == b
        assert _tree(tmp_path / "a") == _tree(tmp_path / "b")

    def test_audit_other_seed_other_corpus(self, tmp_path):
        gen.build_audit(tmp_path / "a", 3, 300, 40, 100)
        gen.build_audit(tmp_path / "b", 4, 300, 40, 100)
        corpus = "corpus/alpaca.conllu"
        assert _tree(tmp_path / "a")[corpus] != _tree(tmp_path / "b")[corpus]

    def test_audit_records_what_it_generated(self, tmp_path):
        stats = gen.build_audit(tmp_path / "a", 3, 300, 40, 100)
        assert stats["instructions_total"] == 300
        assert stats["narrowed"] == 40
        assert stats["responses"] == 40 * len(gen.MODELS)
        assert 0 < stats["distinct_text_share"] <= 1
        assert stats["lexicon_source_records"] > 100
        for key in ("mean_tokens_per_instruction", "mean_tokens_per_response", "golden_set"):
            assert stats[key] > 0

    def test_routes_cover_every_validation_fixture(self, tmp_path):
        stats = gen.build_audit(tmp_path / "a", 3, 300, 40, 100)
        routes = json.loads((tmp_path / "a" / "routes.json").read_text(encoding="utf-8"))
        fixtures = sum(
            line.count('"validate::')
            for m in gen.MODELS
            for line in open(tmp_path / "a" / "fixtures" / f"{m}.jsonl", encoding="utf-8")
        )
        assert fixtures == stats["validation_calls"]
        assert 0 < len(routes[gen.VALIDATOR_ID]) <= fixtures

    def test_train_same_seed_same_bytes(self, tmp_path):
        a = gen.build_train(tmp_path / "a", 5, 200, 12, 2)
        b = gen.build_train(tmp_path / "b", 5, 200, 12, 2)
        assert a == b
        assert a["features"] == 19
        assert _tree(tmp_path / "a") == _tree(tmp_path / "b")


def _span(name, start, end, parent):
    return tracer.Span(name, start, parent, end=end)


class TestSelfTime:
    def test_nested_tree(self):
        spans = [
            _span("root", 0.0, 10.0, -1),
            _span("a", 1.0, 4.0, 0),
            _span("a.child", 2.0, 3.0, 1),
            _span("b", 5.0, 6.5, 0),
        ]
        assert tracer.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])

    def test_overlapping_children_count_once(self):
        spans = [
            _span("root", 0.0, 10.0, -1),
            _span("t1", 1.0, 4.0, 0),
            _span("t2", 3.0, 7.0, 0),
            _span("late", 9.0, 12.0, 0),
        ]
        assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_covered_clips_to_parent(self):
        assert tracer.covered(2.0, 5.0, [(0.0, 3.0), (4.0, 9.0)]) == pytest.approx(2.0)

    def test_wrapped_calls_nest(self):
        t = tracer.Tracer()
        inner = t.wrap("inner", lambda: 7)
        outer = t.wrap("outer", lambda: inner() + 1)
        root = t.wrap("root", lambda: outer() + inner())
        assert root() == 15
        names = [(s.name, s.parent) for s in t.spans]
        assert names == [("root", -1), ("outer", 0), ("inner", 1), ("inner", 0)]
        selfs = tracer.self_times(t.spans)
        total = t.spans[0].end - t.spans[0].start
        assert sum(selfs) == pytest.approx(total)


class TestTargets:
    def test_missing_target_is_an_error(self):
        t = tracer.Tracer()
        with pytest.raises(tracer.TraceTargetError):
            t.install((("x", "mg_audit.stages", "no_such_function", None),))
        with pytest.raises(tracer.TraceTargetError):
            t.install((("x", "mg_audit.transport", "MockTransport.no_such_method", None),))

    def test_every_target_resolves_and_uninstall_restores(self):
        import mg_audit.lexicon
        import mg_audit.stages

        before = (mg_audit.stages.read_conllu, mg_audit.lexicon.HumanNounDB.__dict__["load_jsonl"])
        t = tracer.Tracer()
        t.install()
        try:
            assert mg_audit.stages.read_conllu is not before[0]
            assert isinstance(mg_audit.lexicon.HumanNounDB.__dict__["load_jsonl"], classmethod)
        finally:
            t.uninstall()
        after = (mg_audit.stages.read_conllu, mg_audit.lexicon.HumanNounDB.__dict__["load_jsonl"])
        assert after == before


class TestTracedMiniRun:
    def test_stage_spans_cover_the_run_and_counts_match(self, tmp_path):
        from mg_audit import stages
        from mg_audit.config import load_config

        config = load_config(gen.MINI / "config.json")
        config.output_dir = tmp_path
        t = tracer.Tracer()
        t.install()
        try:
            stages.run_all(config, mock_transport=gen.MINI / "fixtures")
        finally:
            t.uninstall()
        layers = tracer.summarize(t.spans, [m.model_id for m in config.models])
        roots = [s for s in t.spans if s.parent < 0]
        assert [s.name for s in roots] == ["stages." + s.replace("-", "_") for s in stages.STAGES]
        stage_sum = sum(v for k, v in layers.items() if k.startswith("stages."))
        assert stage_sum == pytest.approx(sum(s.end - s.start for s in roots))
        assert layers["lexicon.loads"] == 8
        assert layers["transport.fixture_loads_per_model"] == 2.0
        assert layers["filters.filter_document_calls"] > 0
        assert layers["boosting.rounds"] > 0 and layers["logistic.iterations"] > 0


class TestProvider:
    def test_round_trip_through_http_transport(self, tmp_path, monkeypatch):
        from mg_audit.transport import (
            AuthenticationError,
            GenerationConfig,
            HttpChatTransport,
            ProviderConfig,
            TransportError,
        )

        routes = tmp_path / "routes.json"
        routes.write_text(json.dumps({"m1": {content_key("Bonjour ?"): "Salut."}}))
        provider = ProviderProcess(routes, seed=1, token="secret", workdir=tmp_path)
        try:
            url = f"http://127.0.0.1:{provider.port}/v1/chat/completions"
            transport = HttpChatTransport(ProviderConfig(url, "PERFBENCH_TEST_KEY", "m1"))
            messages = [{"role": "system", "content": "s"}, {"role": "user", "content": "Bonjour ?"}]
            config = GenerationConfig(model_id="m1")

            monkeypatch.setenv("PERFBENCH_TEST_KEY", "secret")
            assert transport.complete("r1", messages, config).text == "Salut."
            with pytest.raises(TransportError):
                transport.complete("r2", [{"role": "user", "content": "?"}], config)
            monkeypatch.setenv("PERFBENCH_TEST_KEY", "wrong")
            with pytest.raises(AuthenticationError):
                transport.complete("r3", messages, config)
            assert provider.requests() == 3
        finally:
            provider.stop()
        assert provider.proc.poll() is not None
