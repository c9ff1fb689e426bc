import json
import logging
import random
import sys
import threading
import time

import pytest

from mg_audit.agreement import cohen_kappa
from mg_audit.dispatch import ChatExchange, ExchangeStore, RetryPolicy, dispatch
from mg_audit.transport import (
    AuthenticationError,
    GenerationConfig,
    HttpChatTransport,
    MockTransport,
    ProviderConfig,
    TransportError,
    TransportResult,
)
from mg_audit.validation import (
    VALIDATION_MAX_TOKENS,
    VALIDATION_TEMPERATURE,
    build_validation_prompt,
    occurrence_ids,
    parse_validation_response,
)


class EchoTransport:
    def complete(self, request_id, messages, config):
        return TransportResult(text=f"echo:{request_id}")


class FlakyTransport:
    """Fails a fixed number of times per id, then succeeds."""

    def __init__(self, failures=2):
        self.failures = failures
        self.attempts = {}

    def complete(self, request_id, messages, config):
        seen = self.attempts.get(request_id, 0)
        self.attempts[request_id] = seen + 1
        if seen < self.failures:
            raise TransportError("rate limited")
        return TransportResult(text="finally")


def fast_retry(max_attempts=3):
    return RetryPolicy(max_attempts=max_attempts, initial_backoff=0.0,
                       sleep=lambda _: None)


CONFIG = GenerationConfig(model_id="m")


class TestDispatch:
    def test_three_instructions_echo(self, tmp_path):
        store = ExchangeStore(tmp_path / "ex.jsonl")
        instructions = [("i1", "a"), ("i2", "b"), ("i3", "c")]
        exchanges = dispatch(instructions, CONFIG, EchoTransport(), store, fast_retry())
        assert [e.status for e in exchanges] == ["ok", "ok", "ok"]
        assert [e.response_text for e in exchanges] == ["echo:i1", "echo:i2", "echo:i3"]

    def test_retry_then_success_counts_attempts(self, tmp_path):
        store = ExchangeStore(tmp_path / "ex.jsonl")
        exchanges = dispatch(
            [("i1", "a")], CONFIG, FlakyTransport(failures=2), store, fast_retry()
        )
        assert exchanges[0].status == "ok"
        assert exchanges[0].attempt_count == 3

    def test_exhausted_retries_record_error(self, tmp_path):
        store = ExchangeStore(tmp_path / "ex.jsonl")
        exchanges = dispatch(
            [("i1", "a")], CONFIG, FlakyTransport(failures=99), store, fast_retry()
        )
        assert exchanges[0].status == "error"
        assert exchanges[0].response_text == ""
        assert exchanges[0].attempt_count == 3

    def test_resume_skips_completed(self, tmp_path):
        store = ExchangeStore(tmp_path / "ex.jsonl")
        transport = EchoTransport()
        dispatch([("i1", "a")], CONFIG, transport, store, fast_retry())

        class CountingTransport(EchoTransport):
            calls = 0

            def complete(self, request_id, messages, config):
                CountingTransport.calls += 1
                return super().complete(request_id, messages, config)

        counting = CountingTransport()
        exchanges = dispatch(
            [("i1", "a"), ("i2", "b")], CONFIG, counting, store, fast_retry()
        )
        assert CountingTransport.calls == 1  # only i2 dispatched
        assert {e.instruction_id for e in exchanges} == {"i1", "i2"}

    def test_resume_retries_errors(self, tmp_path):
        store = ExchangeStore(tmp_path / "ex.jsonl")
        dispatch([("i1", "a")], CONFIG, FlakyTransport(failures=99), store, fast_retry())
        assert store.load()["i1"].status == "error"
        dispatch([("i1", "a")], CONFIG, EchoTransport(), store, fast_retry())
        assert store.load()["i1"].status == "ok"

    def test_store_content_independent_of_interruption(self, tmp_path):
        instructions = [(f"i{n}", f"t{n}") for n in range(6)]
        full_store = ExchangeStore(tmp_path / "full.jsonl")
        dispatch(instructions, CONFIG, EchoTransport(), full_store, fast_retry())

        # interrupted after 3, then resumed
        part_store = ExchangeStore(tmp_path / "part.jsonl")
        dispatch(instructions[:3], CONFIG, EchoTransport(), part_store, fast_retry())
        dispatch(instructions, CONFIG, EchoTransport(), part_store, fast_retry())

        full = {k: v.response_text for k, v in full_store.load().items()}
        part = {k: v.response_text for k, v in part_store.load().items()}
        assert full == part

    def test_auth_error_is_fatal(self, tmp_path):
        class AuthFail:
            def complete(self, request_id, messages, config):
                raise AuthenticationError("bad key")

        store = ExchangeStore(tmp_path / "ex.jsonl")
        with pytest.raises(AuthenticationError):
            dispatch([("i1", "a")], CONFIG, AuthFail(), store, fast_retry())

    def test_empty_instruction_list_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            dispatch([], CONFIG, EchoTransport(), ExchangeStore(tmp_path / "x"), fast_retry())

    def test_changed_request_is_sent_again(self, tmp_path):
        store = ExchangeStore(tmp_path / "ex.jsonl")
        dispatch([("i1", "a"), ("i2", "b")], CONFIG, EchoTransport(), store, fast_retry())

        counting = FlakyTransport(failures=0)
        cooler = GenerationConfig(model_id="m", temperature=0.3)
        dispatch([("i1", "a"), ("i2", "b")], cooler, counting, store, fast_retry())
        assert sorted(counting.attempts) == ["i1", "i2"]
        assert {e.request["temperature"] for e in store.load().values()} == {0.3}

        counting = FlakyTransport(failures=0)
        dispatch([("i1", "a"), ("i2", "b, reworded")], cooler, counting, store, fast_retry())
        assert sorted(counting.attempts) == ["i2"]
        assert store.load()["i2"].request["messages"][-1]["content"] == "b, reworded"

    def test_exchange_invariant(self):
        with pytest.raises(ValueError):
            ChatExchange(
                instruction_id="i", model_id="m", request={}, response_text="",
                status="ok", started_at=0, finished_at=0, attempt_count=1,
            )


class TestExchangeStore:
    def test_torn_final_line_dropped_with_warning(self, tmp_path, caplog):
        store = ExchangeStore(tmp_path / "ex.jsonl")
        dispatch([("i1", "a"), ("i2", "b")], CONFIG, EchoTransport(), store, fast_retry())
        with open(store.path, "a", encoding="utf-8") as fp:
            fp.write('{"instruction_id": "i3", "model_id": "m", "requ')
        with caplog.at_level(logging.WARNING, logger="mg_audit.dispatch"):
            assert sorted(store.load()) == ["i1", "i2"]
        assert "torn final line" in caplog.text
        # the torn bytes are gone, so the next append starts a clean line
        dispatch([("i3", "c")], CONFIG, EchoTransport(), store, fast_retry())
        assert sorted(store.load()) == ["i1", "i2", "i3"]

    def test_complete_record_without_newline_is_torn(self, tmp_path):
        store = ExchangeStore(tmp_path / "ex.jsonl")
        dispatch([("i1", "a"), ("i2", "b")], CONFIG, EchoTransport(), store, fast_retry())
        store.path.write_bytes(store.path.read_bytes()[:-1])
        assert sorted(store.load()) == ["i1"]

    def test_malformed_middle_line_raises(self, tmp_path):
        store = ExchangeStore(tmp_path / "ex.jsonl")
        dispatch([("i1", "a")], CONFIG, EchoTransport(), store, fast_retry())
        good = store.path.read_text(encoding="utf-8")
        store.path.write_text(good + '{"instruction_id": "i2", "mod\n' + good,
                              encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            store.load()


    @pytest.mark.parametrize("abort_at", [None, 3])
    def test_one_handle_per_dispatch_flushed_per_record(self, tmp_path, monkeypatch, abort_at):
        store = ExchangeStore(tmp_path / "ex.jsonl")
        dispatch([("i0", "a")], CONFIG, EchoTransport(), store, fast_retry())
        handles = []

        def recording_open(path, mode="r", *args, **kwargs):
            handles.append(open(path, mode, *args, **kwargs))
            return handles[-1]

        monkeypatch.setattr("mg_audit.dispatch.open", recording_open, raising=False)
        on_disk = []

        class PeekingTransport:
            def complete(self, request_id, messages, config):
                on_disk.append(store.path.read_text(encoding="utf-8").count("\n"))
                if len(on_disk) == abort_at:
                    raise AuthenticationError("bad key")
                return TransportResult(text=f"echo:{request_id}")

        instructions = [(f"i{n}", "a") for n in range(6)]
        if abort_at is None:
            dispatch(instructions, CONFIG, PeekingTransport(), store, fast_retry())
        else:
            with pytest.raises(AuthenticationError):
                dispatch(instructions, CONFIG, PeekingTransport(), store, fast_retry())
        # one read for load, one append handle; each record is on disk
        # before the next call starts, and every handle is closed
        assert [fp.mode for fp in handles] == ["rb", "a"]
        assert all(fp.closed for fp in handles)
        assert on_disk == [1, 2, 3, 4, 5][: abort_at or 5]
        assert len(store.load()) == (abort_at or 6)


class SleepyTransport:
    """Sleeps a seeded 10-40 ms per call and counts calls in flight.

    Ids ending in 0 fail their first attempt. With ``max_in_flight=None``
    dispatch runs it inline.
    """

    def __init__(self, max_in_flight):
        self.max_in_flight = max_in_flight
        self.active = 0
        self.peak = 0
        self.attempts = {}
        self.succeeded = set()
        self._lock = threading.Lock()

    def complete(self, request_id, messages, config):
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
            seen = self.attempts.get(request_id, 0)
            self.attempts[request_id] = seen + 1
        try:
            time.sleep(random.Random(request_id).uniform(0.01, 0.04))
            if request_id.endswith("0") and seen == 0:
                raise TransportError("busy")
            with self._lock:
                self.succeeded.add(request_id)
            return TransportResult(text=f"{messages[-1]['content']}:{request_id}")
        finally:
            with self._lock:
                self.active -= 1


def _content(exchanges):
    return [
        (e.instruction_id, e.request, e.response_text, e.status, e.attempt_count, e.error)
        for e in exchanges
    ]


def _run_in_thread(target, timeout=20.0):
    """Run `target` on a daemon thread; returns (finished, raised)."""
    outcome = {}

    def body():
        try:
            target()
        except BaseException as err:  # noqa: BLE001 - handed back to the test
            outcome["raised"] = err

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    thread.join(timeout)
    return not thread.is_alive(), outcome.get("raised")


class TestConcurrentDispatch:
    INSTRUCTIONS = [(f"i{n:02d}", f"t{n}") for n in range(30, 0, -1)]

    def test_bounded_in_flight_and_same_content_as_serial(self, tmp_path):
        serial_store = ExchangeStore(tmp_path / "serial.jsonl")
        serial = dispatch(self.INSTRUCTIONS, CONFIG, SleepyTransport(None),
                          serial_store, fast_retry())

        transport = SleepyTransport(max_in_flight=4)
        store = ExchangeStore(tmp_path / "concurrent.jsonl")
        concurrent = dispatch(self.INSTRUCTIONS, CONFIG, transport, store, fast_retry())

        assert 1 < transport.peak <= 4
        assert [e.instruction_id for e in concurrent] == sorted(i for i, _ in self.INSTRUCTIONS)
        assert _content(concurrent) == _content(serial)
        assert _content(sorted(store.load().values(), key=lambda e: e.instruction_id)) == (
            _content(serial)
        )
        assert sum(e.attempt_count for e in concurrent) == 33  # i10, i20, i30 retried

    def test_single_slot_runs_one_call_at_a_time(self, tmp_path):
        transport = SleepyTransport(max_in_flight=1)
        dispatch(self.INSTRUCTIONS[:6], CONFIG, transport,
                 ExchangeStore(tmp_path / "ex.jsonl"), fast_retry())
        assert transport.peak == 1

    def test_auth_error_propagates_without_hanging(self, tmp_path):
        class AuthFailsOnce(SleepyTransport):
            def complete(self, request_id, messages, config):
                if request_id == "i27":
                    raise AuthenticationError("bad key")
                return super().complete(request_id, messages, config)

        transport = AuthFailsOnce(max_in_flight=4)
        store = ExchangeStore(tmp_path / "ex.jsonl")
        finished, raised = _run_in_thread(
            lambda: dispatch(self.INSTRUCTIONS, CONFIG, transport, store, fast_retry())
        )
        assert finished
        assert isinstance(raised, AuthenticationError)
        # calls queued behind the failure were cancelled, never sent
        assert len(transport.attempts) < len(self.INSTRUCTIONS) - 1
        # every call that did finish is stored, so a resume skips it
        assert transport.succeeded
        assert set(store.load()) == transport.succeeded


class RecordingLock:
    """Wraps the throttle's lock; records each request start while held."""

    def __init__(self, transport):
        self._inner = transport._throttle_lock
        self._transport = transport
        self.starts = []

    def __enter__(self):
        self._inner.__enter__()

    def __exit__(self, *exc):
        self.starts.append(self._transport._last_request)
        return self._inner.__exit__(*exc)


class TestHttpThrottle:
    def test_request_starts_spaced_under_concurrency(self, tmp_path, monkeypatch):
        interval = 0.03

        class Reply:
            def __init__(self, request):
                self.body = json.loads(request.data)

            def __enter__(self):
                time.sleep(0.05)
                return self

            def __exit__(self, *exc):
                return False

            def read(self):
                user = self.body["messages"][-1]["content"]
                return json.dumps({"choices": [{"finish_reason": "stop",
                                   "message": {"content": user.upper()}}]}).encode()

        monkeypatch.setenv("MG_AUDIT_TEST_KEY", "secret")
        monkeypatch.setattr("urllib.request.urlopen", lambda request, timeout: Reply(request))
        transport = HttpChatTransport(ProviderConfig(
            "http://127.0.0.1:9/v1/chat/completions", "MG_AUDIT_TEST_KEY", "m",
            min_request_interval=interval,
        ))
        lock = transport._throttle_lock = RecordingLock(transport)
        store = ExchangeStore(tmp_path / "ex.jsonl")
        instructions = [(f"i{n:02d}", f"t{n:02d}") for n in range(16)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more thread switches inside the throttle
        try:
            finished, raised = _run_in_thread(
                lambda: dispatch(instructions, CONFIG, transport, store, fast_retry())
            )
        finally:
            sys.setswitchinterval(switch)

        assert finished and raised is None
        assert sorted(e.response_text for e in store.load().values()) == [
            f"T{n:02d}" for n in range(16)
        ]
        assert len(lock.starts) == 16
        gaps = [b - a for a, b in zip(lock.starts, lock.starts[1:])]
        assert min(gaps) >= interval


class TestMockTransport:
    def test_reads_fixture(self, tmp_path):
        fixture = tmp_path / "fx.jsonl"
        fixture.write_text(
            json.dumps({"id": "i1", "text": "Bonjour"}) + "\n", encoding="utf-8"
        )
        transport = MockTransport(fixture)
        assert transport.complete("i1", [], CONFIG).text == "Bonjour"
        with pytest.raises(TransportError):
            transport.complete("missing", [], CONFIG)


class TestOccurrenceIds:
    def test_repeats_suffixed_from_2(self):
        assert occurrence_ids(["facteurs", "facteurs"]) == ["facteurs", "facteurs_2"]

    def test_single_noun_unsuffixed(self):
        assert occurrence_ids(["président"]) == ["président"]

    def test_distinct_nouns_in_order(self):
        assert occurrence_ids(["président", "citoyens", "mesures"]) == [
            "président",
            "citoyens",
            "mesures",
        ]

    def test_third_occurrence(self):
        assert occurrence_ids(["x", "x", "x"]) == ["x", "x_2", "x_3"]


class TestValidationPrompt:
    def test_template_contains_contract_lines(self):
        system, user = build_validation_prompt("Du texte.", ["mot"])
        assert system == (
            "You are an assistant that validates human noun classifications in French texts."
        )
        assert user.startswith(
            "Given a text and nouns, for each noun, determine if it is a human noun in context."
        )
        assert "distinguished by ID ('noun_1', 'noun_2'...)" in user
        assert "Only respond in this format" in user
        assert user.rstrip().endswith("Output:")

    def test_in_context_examples_verbatim(self):
        _, user = build_validation_prompt("T", ["n"])
        assert "Nouns: facteurs, facteurs_2" in user
        assert 'Output: { "facteurs": 0, "facteurs_2": 1 }' in user
        assert 'Output: { "président": 1, "citoyens": 1, "mesures": 0 }' in user
        assert 'Output: { "esprits": 0, "fantômes": 0, "enfant": 1 }' in user

    def test_text_and_ids_slotted(self):
        _, user = build_validation_prompt(
            "Les facteurs et les facteurs.", ["facteurs", "facteurs"]
        )
        assert "Text: Les facteurs et les facteurs." in user
        assert user.rstrip().endswith("Nouns: facteurs, facteurs_2\nOutput:")

    def test_empty_nouns_rejected(self):
        with pytest.raises(ValueError):
            build_validation_prompt("texte", [])

    def test_decoding_defaults(self):
        assert VALIDATION_TEMPERATURE == 0.0
        assert VALIDATION_MAX_TOKENS == 500


class TestParseValidation:
    def test_example_outputs(self):
        parsed = parse_validation_response(
            '{ "facteurs": 0, "facteurs_2": 1 }', ["facteurs", "facteurs_2"]
        )
        assert parsed.ok
        assert parsed.verdicts == {"facteurs": 0, "facteurs_2": 1}

    def test_three_entries(self):
        parsed = parse_validation_response(
            '{ "président": 1, "citoyens": 1, "mesures": 0 }',
            ["président", "citoyens", "mesures"],
        )
        assert parsed.verdicts == {"président": 1, "citoyens": 1, "mesures": 0}

    def test_not_json_flags_error(self):
        parsed = parse_validation_response("not json", ["a"])
        assert not parsed.ok
        assert parsed.verdicts == {}
        assert parsed.parse_error is not None

    def test_extraneous_ignored_with_warning(self):
        cases = (
            ('{"a": 1, "b": 0}', "a", {"a": 1}, "b"),
            # a brace inside a key must not hide the object
            ('{"chef{": 1, "médecin": 0}', "médecin", {"médecin": 0}, "chef{"),
        )
        for raw, expected, verdicts, extraneous in cases:
            parsed = parse_validation_response(raw, [expected])
            assert parsed.parse_error is None
            assert parsed.verdicts == verdicts
            assert parsed.extraneous == [extraneous]

    def test_missing_listed(self):
        parsed = parse_validation_response('{"a": 1}', ["a", "b"])
        assert parsed.missing == ["b"]
        assert not parsed.ok

    def test_json_embedded_in_prose(self):
        raw = 'Voici ma réponse:\n```json\n{"a": 1}\n```\nMerci.'
        parsed = parse_validation_response(raw, ["a"])
        assert parsed.verdicts == {"a": 1}

    def test_round_trip_ids(self):
        nouns = ["facteurs", "mesures", "facteurs", "citoyens"]
        _, user = build_validation_prompt("t", nouns)
        ids = occurrence_ids(nouns)
        fake_response = json.dumps({i: 1 for i in ids}, ensure_ascii=False)
        parsed = parse_validation_response(fake_response, ids)
        assert parsed.ok
        assert list(parsed.verdicts) == ids


class TestCohenKappa:
    def test_identical_non_constant(self):
        result = cohen_kappa([1, 0, 1, 0, 1], [1, 0, 1, 0, 1])
        assert result.kappa == pytest.approx(1.0, abs=1e-9)

    def test_hand_computed_zero(self):
        result = cohen_kappa([1, 1, 0, 0], [1, 0, 0, 1])
        assert result.kappa == pytest.approx(0.0, abs=1e-9)
        assert result.confusion == ((1, 1), (1, 1))
        assert result.n_items == 4

    def test_constant_identical_defined_as_one(self):
        assert cohen_kappa([1, 1, 1], [1, 1, 1]).kappa == 1.0

    def test_symmetry_on_random_pairs(self):
        rng = random.Random(21)
        for _ in range(100):
            n = rng.randint(2, 40)
            a = [rng.randint(0, 1) for _ in range(n)]
            b = [rng.randint(0, 1) for _ in range(n)]
            ab = cohen_kappa(a, b).kappa
            ba = cohen_kappa(b, a).kappa
            assert abs(ab - ba) < 1e-9
            assert -1.0 - 1e-9 <= ab <= 1.0 + 1e-9

    def test_self_agreement_is_one(self):
        rng = random.Random(8)
        for _ in range(20):
            a = [rng.randint(0, 1) for _ in range(10)]
            if len(set(a)) < 2:
                continue
            assert cohen_kappa(a, a).kappa == pytest.approx(1.0, abs=1e-9)

    def test_length_mismatch_fatal(self):
        with pytest.raises(ValueError):
            cohen_kappa([1, 0], [1])

    def test_confusion_sums_to_n(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randint(1, 30)
            a = [rng.randint(0, 1) for _ in range(n)]
            b = [rng.randint(0, 1) for _ in range(n)]
            result = cohen_kappa(a, b)
            assert sum(sum(row) for row in result.confusion) == n
