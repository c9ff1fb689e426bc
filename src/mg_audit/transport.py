"""Chat-completion transports: a provider HTTP adapter and an offline mock.

All transports implement complete(request_id, messages, config) and return
a TransportResult. The mock reads a fixture JSONL mapping request ids to
response texts so the whole pipeline runs offline and deterministically.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

from .ioutil import read_jsonl


@dataclass(frozen=True)
class GenerationConfig:
    model_id: str
    temperature: float = 1.0
    max_tokens: int = 1500
    system_prompt: str = "You are a helpful French assistant."

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")


@dataclass(frozen=True)
class TransportResult:
    text: str
    truncated: bool = False


class TransportError(RuntimeError):
    """Retryable transport failure (timeouts, dropped connections, rate
    limits, 5xx, replies that are not JSON)."""


class AuthenticationError(RuntimeError):
    """Non-retryable credential failure."""


class ChatTransport(Protocol):
    def complete(
        self, request_id: str, messages: list[dict], config: GenerationConfig
    ) -> TransportResult: ...


class MockTransport:
    """Replays canned responses from a fixture JSONL file.

    Each line: {"id": ..., "text": ..., "truncated": false}. Unknown ids
    raise TransportError so tests can exercise the retry path.
    """

    def __init__(self, fixture_path: str | Path):
        self._responses = {
            record["id"]: TransportResult(
                text=record["text"], truncated=bool(record.get("truncated", False))
            )
            for record in read_jsonl(fixture_path)
        }

    def complete(
        self, request_id: str, messages: list[dict], config: GenerationConfig
    ) -> TransportResult:
        if request_id not in self._responses:
            raise TransportError(f"no fixture response for {request_id!r}")
        return self._responses[request_id]


@dataclass
class ProviderConfig:
    endpoint_url: str
    credential_env: str
    model_id: str
    min_request_interval: float = 0.0
    timeout: float = 60.0


class HttpChatTransport:
    """OpenAI-style chat-completions client with a per-provider rate limit.

    Safe to call from several threads: request starts stay at least
    ``min_request_interval`` apart, and ``max_in_flight`` tells dispatch
    how many calls to keep open at once.
    """

    max_in_flight = 8

    def __init__(self, provider: ProviderConfig):
        self.provider = provider
        self._last_request = 0.0
        self._throttle_lock = threading.Lock()

    def _throttle(self) -> None:
        with self._throttle_lock:
            wait = self.provider.min_request_interval - (time.monotonic() - self._last_request)
            if wait > 0:
                time.sleep(wait)
            self._last_request = time.monotonic()

    def complete(
        self, request_id: str, messages: list[dict], config: GenerationConfig
    ) -> TransportResult:
        token = os.environ.get(self.provider.credential_env, "")
        if not token:
            raise AuthenticationError(
                f"credential env var {self.provider.credential_env} is not set"
            )
        self._throttle()
        payload = json.dumps(
            {
                "model": self.provider.model_id,
                "messages": messages,
                "temperature": config.temperature,
                "max_tokens": config.max_tokens,
            }
        ).encode("utf-8")
        request = urllib.request.Request(
            self.provider.endpoint_url,
            data=payload,
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {token}",
            },
        )
        try:
            with urllib.request.urlopen(request, timeout=self.provider.timeout) as resp:
                raw = resp.read()
        except urllib.error.HTTPError as err:
            if err.code in (401, 403):
                raise AuthenticationError(f"authentication failed: HTTP {err.code}") from err
            raise TransportError(f"HTTP {err.code} from provider") from err
        except (OSError, http.client.HTTPException) as err:
            # Unreachable, timed out, closed without a reply, or cut short.
            reason = f"{type(err).__name__}: {err}"
            raise TransportError(f"provider request failed: {reason}") from err
        try:
            body = json.loads(raw.decode("utf-8"))
        except ValueError as err:
            raise TransportError(f"provider reply is not UTF-8 JSON: {err}") from err
        try:
            choice = body["choices"][0]
            text = choice["message"]["content"]
            truncated = choice.get("finish_reason") == "length"
        except (KeyError, IndexError, TypeError) as err:
            raise TransportError(f"malformed provider response: {body!r}") from err
        return TransportResult(text=text or "", truncated=truncated)


def build_messages(instruction: str, config: GenerationConfig) -> list[dict]:
    return [
        {"role": "system", "content": config.system_prompt},
        {"role": "user", "content": instruction},
    ]
