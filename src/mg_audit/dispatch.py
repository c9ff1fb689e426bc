"""Batch dispatch of chat requests with retry, backoff, resume and
bounded concurrency.

Exchanges are appended to a JSONL store as they complete, so an
interrupted run can resume: an id whose latest stored exchange succeeded
with the request that would be sent now is skipped; failed ones, and ones
whose request changed, are sent again. The effective store content is the
latest record per instruction id.

A transport that declares ``max_in_flight`` gets up to that many calls in
flight at once on worker threads; the calling thread alone writes the
store. Transports without it (the offline mock) run inline.
"""

from __future__ import annotations

import json
import logging
import time
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO

from .ioutil import jsonl_line
from .transport import (
    AuthenticationError,
    ChatTransport,
    GenerationConfig,
    TransportError,
    build_messages,
)

logger = logging.getLogger(__name__)

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TRUNCATED = "truncated"
EMPTY_RESPONSE = "empty response text"  # error of a call that returned no text


@dataclass(frozen=True)
class ChatExchange:
    instruction_id: str
    model_id: str
    request: dict
    response_text: str
    status: str
    started_at: float
    finished_at: float
    attempt_count: int
    error: str | None = None

    def __post_init__(self) -> None:
        if (self.response_text == "") != (self.status == STATUS_ERROR):
            raise ValueError("response_text must be empty iff status is error")

    def to_dict(self) -> dict:
        return {
            "instruction_id": self.instruction_id,
            "model_id": self.model_id,
            "request": self.request,
            "response_text": self.response_text,
            "status": self.status,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempt_count": self.attempt_count,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "ChatExchange":
        return cls(**record)


class ExchangeStore:
    """Append-only JSONL store collapsing to the latest record per id."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fp: TextIO | None = None

    def load(self) -> dict[str, ChatExchange]:
        """Latest exchange per id.

        A final line that lacks its newline or does not parse is what a
        run killed mid-append leaves behind: it is logged, cut from the
        file so later appends start on a fresh line, and its call is sent
        again. A malformed line before the last one is corruption and
        raises.
        """
        exchanges: dict[str, ChatExchange] = {}
        if not self.path.exists():
            return exchanges
        intact = 0  # bytes up to the end of the last good line
        torn: str | None = None
        with open(self.path, "rb") as fp:
            for number, line in enumerate(fp, 1):
                if torn is not None:
                    raise ValueError(f"{self.path}: {torn}")
                if line.strip():
                    try:
                        if not line.endswith(b"\n"):
                            raise ValueError("no terminating newline")
                        exchange = ChatExchange.from_dict(json.loads(line))
                    except ValueError as err:
                        torn = f"malformed record on line {number}: {err}"
                        continue
                    exchanges[exchange.instruction_id] = exchange
                intact += len(line)
        if torn is not None:
            logger.warning("%s: dropping torn final line (%s)", self.path, torn)
            with open(self.path, "r+b") as fp:
                fp.truncate(intact)
        return exchanges

    @contextmanager
    def appending(self) -> Iterator["ExchangeStore"]:
        """Hold one append handle for `append`, closed when the block exits."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fp:
            self._fp = fp
            try:
                yield self
            finally:
                self._fp = None

    def append(self, exchange: ChatExchange) -> None:
        """Write one record inside `appending()`, flushed so that a killed run keeps it."""
        self._fp.write(jsonl_line(exchange.to_dict()))
        self._fp.flush()


@dataclass
class RetryPolicy:
    max_attempts: int = 3
    initial_backoff: float = 1.0
    backoff_factor: float = 2.0
    sleep: object = field(default=time.sleep, repr=False)
    clock: object = field(default=time.time, repr=False)


def _exchange(
    instruction_id: str,
    request: dict,
    config: GenerationConfig,
    transport: ChatTransport,
    retry: RetryPolicy,
) -> ChatExchange:
    """One request through the transport, retried with exponential backoff.

    Retryable failures back off up to the attempt cap, then the exchange
    is recorded with status=error. Authentication failures propagate.
    """
    started = float(retry.clock())  # type: ignore[operator]
    attempt = 0
    error: str | None = None
    result = None
    while attempt < retry.max_attempts:
        attempt += 1
        try:
            result = transport.complete(instruction_id, request["messages"], config)
            break
        except AuthenticationError:
            raise
        except TransportError as err:
            error = str(err)
            logger.warning(
                "attempt %d/%d failed for %s: %s",
                attempt, retry.max_attempts, instruction_id, err,
            )
            if attempt < retry.max_attempts:
                backoff = retry.initial_backoff * retry.backoff_factor ** (attempt - 1)
                retry.sleep(backoff)  # type: ignore[operator]

    if result is not None and result.text:
        text = result.text
        status = STATUS_TRUNCATED if result.truncated else STATUS_OK
        error = None
    else:
        text = ""
        status = STATUS_ERROR
        if result is not None:
            error = EMPTY_RESPONSE
    return ChatExchange(
        instruction_id=instruction_id,
        model_id=config.model_id,
        request=request,
        response_text=text,
        status=status,
        started_at=started,
        finished_at=float(retry.clock()),  # type: ignore[operator]
        attempt_count=attempt,
        error=error,
    )


def dispatch(
    instructions: list[tuple[str, str]],
    config: GenerationConfig,
    transport: ChatTransport,
    store: ExchangeStore,
    retry: RetryPolicy | None = None,
) -> list[ChatExchange]:
    """Send (instruction_id, text) pairs through the transport.

    One exchange per instruction, returned sorted by id. A stored
    exchange is reused only if it succeeded with the request that would
    be sent now. Each finished exchange is appended to the store as it
    completes, through one handle opened after the store is loaded, so the
    store's line order may follow completion order but its content does
    not. An AuthenticationError cancels the calls not yet started, stores
    every call that did finish, and propagates.
    """
    if not instructions:
        raise ValueError("instructions must be non-empty")
    retry = retry or RetryPolicy()
    stored = store.load()

    results: dict[str, ChatExchange] = {}
    pending: list[tuple[str, dict]] = []
    for instruction_id, text in instructions:
        request = {"messages": build_messages(text, config),
                   "temperature": config.temperature,
                   "max_tokens": config.max_tokens, "model": config.model_id}
        previous = stored.get(instruction_id)
        if (previous is not None and previous.status != STATUS_ERROR
                and previous.request == request):
            results[instruction_id] = previous
        else:
            pending.append((instruction_id, request))

    def record(exchange: ChatExchange) -> None:
        store.append(exchange)
        results[exchange.instruction_id] = exchange

    max_in_flight = getattr(transport, "max_in_flight", None)
    with store.appending():
        if max_in_flight is None:
            for instruction_id, request in pending:
                record(_exchange(instruction_id, request, config, transport, retry))
        elif pending:
            with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
                futures = [
                    pool.submit(_exchange, instruction_id, request, config, transport, retry)
                    for instruction_id, request in pending
                ]
                try:
                    for future in as_completed(futures):
                        record(future.result())
                except BaseException:
                    # Wait for the calls already sent and keep the ones that
                    # finished, so a resumed run does not send them again.
                    pool.shutdown(cancel_futures=True)
                    for future in futures:
                        if future.cancelled() or future.exception() is not None:
                            continue
                        if future.result().instruction_id not in results:
                            record(future.result())
                    raise

    return [results[iid] for iid, _ in sorted(instructions, key=lambda p: p[0])]
