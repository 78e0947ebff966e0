"""Provider-agnostic LLM clients: live HTTP and seeded mock.

Every prompt-driven step in the pipeline talks to the one-method
`LlmClient` interface, so live runs, test doubles, and fully offline
mock runs are interchangeable at every call site.
"""

from __future__ import annotations

import abc
import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, TypeVar

from ._rng import DeterministicStream
from .config import DEFAULT_MAX_IN_FLIGHT, DEFAULT_RETRIES, DEFAULT_TIMEOUT_S

if TYPE_CHECKING:
    import requests

T = TypeVar("T")

logger = logging.getLogger(__name__)


class LlmError(RuntimeError):
    """Base class for LLM client failures."""


class LlmConfigError(LlmError):
    """The client is missing configuration (URL, model, or key)."""


class LlmTransportError(LlmError):
    """The request failed; a `retryable` one may be asked again, after `retry_after` s if the server named a wait."""

    def __init__(self, message: str, *, retryable: bool = False, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retryable = retryable
        self.retry_after = retry_after


@dataclass(frozen=True)
class LlmReply:
    """One completion; token counts are provider-reported when present."""

    text: str
    prompt_tokens: int | None = None
    completion_tokens: int | None = None


def approx_token_count(text: str) -> int:
    """ceil(UTF-8 bytes / 4): the fallback when no provider count exists."""
    return (len(text.encode("utf-8")) + 3) // 4


@dataclass
class TokenUsage:
    """Accumulates in/out token counts across the calls of one matrix cell."""

    tokens_in: int = 0
    tokens_out: int = 0
    approximate: bool = False

    def record(self, prompt: str, reply: LlmReply) -> None:
        if reply.prompt_tokens is not None:
            self.tokens_in += reply.prompt_tokens
        else:
            self.tokens_in += approx_token_count(prompt)
            self.approximate = True
        if reply.completion_tokens is not None:
            self.tokens_out += reply.completion_tokens
        else:
            self.tokens_out += approx_token_count(reply.text)
            self.approximate = True


def extract_json_object(raw: str) -> Any:
    """Parse the JSON object in a reply, tolerating markdown fences.

    Providers ignore structured-output hints often enough that the
    parser accepts a fenced or prose-wrapped object; anything else,
    a reply nested deeper than the recursion limit included, raises
    ValueError so the caller can retry.
    """
    text = raw.strip()
    if text.startswith("```"):
        text = re.sub(r"^```[a-zA-Z]*\s*", "", text)
        text = re.sub(r"\s*```$", "", text)
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        start, end = text.find("{"), text.rfind("}")
        if start != -1 and end > start:
            try:
                return json.loads(text[start : end + 1])
            except (json.JSONDecodeError, RecursionError):
                pass
        raise ValueError("reply does not contain a JSON object") from None


# The longest Retry-After a turn waits; a server asking for more fails the turn at once.
MAX_RETRY_AFTER_S = 60.0


# Replies that parsed, keyed by (schema title, prompt).
ReplyMemo = dict[tuple[str, str], LlmReply]


@dataclass(frozen=True)
class Asker:
    """How one run asks: the client, the retry policy, the reply memo and the template directory.

    `templates` is the directory whose prompt templates shadow the
    packaged ones (None: the packaged ones); the prompt builders read it.
    """

    client: LlmClient
    retries: int = DEFAULT_RETRIES
    sleep: Callable[[float], None] = time.sleep
    templates: Path | None = None
    memo: ReplyMemo | None = None

    def ask(self, prompt: str, schema: Mapping[str, Any], parse: Callable[[str], T], usage: TokenUsage) -> T:
        """One structured turn: ask, record usage, parse the reply text.

        The one retry loop: a retryable transport error or a ValueError (a
        reply `parse` rejects) asks again, up to `retries` more times,
        after 1, 2, 4 s, ... or the server's Retry-After; a Retry-After over
        MAX_RETRY_AFTER_S fails the turn at once. This is the one place
        that names a failed turn: every error it raises and every retry
        warning it logs starts with the schema's title ("LLM" without
        one), e.g. `cot_verdict request failed after 4 attempts: ...` or
        `batch_audit_response reply unparseable after 4 attempts: ...`.
        Any other client error (LlmError) propagates at once, unchanged.

        With a `memo`, a (schema title, prompt) pair reaches the client at
        most once: a reply that parsed is stored, and a later turn with the
        same pair records that reply's usage again and parses its text
        without a call. An unparseable reply or a client error is never
        stored, so the next turn with that pair asks the client anew.
        """
        memo = self.memo
        title = str(schema.get("title", "LLM"))
        key = (title, prompt)
        if memo is not None and key in memo:
            reply = memo[key]
            usage.record(prompt, reply)
            return parse(reply.text)

        attempts = 0
        while True:
            attempts += 1
            made = f"{attempts} attempt{'s' * (attempts > 1)}"
            wait = float(2 ** (attempts - 1))
            try:
                reply = self.client.complete(prompt, schema=schema)
                usage.record(prompt, reply)
                parsed = parse(reply.text)
            except LlmTransportError as exc:
                if not exc.retryable:
                    raise
                if attempts > self.retries:
                    raise LlmTransportError(f"{title} request failed after {made}: {exc}") from exc
                if exc.retry_after is not None:
                    if exc.retry_after > MAX_RETRY_AFTER_S:
                        raise LlmTransportError(
                            f"{title} request failed: server asked to retry after {exc.retry_after:g} s, "
                            f"over the {MAX_RETRY_AFTER_S:g} s cap: {exc}"
                        ) from exc
                    wait = exc.retry_after
                logger.warning("%s request failed (%s); asking again in %.0f s", title, exc, wait)
            except ValueError as exc:
                if attempts > self.retries:
                    raise ValueError(f"{title} reply unparseable after {made}: {exc}") from exc
                logger.warning("%s reply unparseable (%s); asking again in %.0f s", title, exc, wait)
            else:
                if memo is not None:
                    memo[key] = reply
                return parsed
            self.sleep(wait)


class LlmClient(abc.ABC):
    @abc.abstractmethod
    def complete(self, prompt: str, *, schema: Mapping[str, Any] | None = None) -> LlmReply:
        """Send one prompt; `schema` requests structured JSON output."""


class HttpChatClient(LlmClient):
    """Chat-completions client over plain HTTP.

    Configured from arguments or the LLM_BASE_URL / LLM_MODEL /
    LLM_API_KEY environment variables. A missing key fails at
    construction time, before any network traffic. Each `complete` makes
    one POST in one of `max_in_flight` slots; a failure raises a
    retryable or final LlmTransportError, and the `Asker` retries.
    """

    def __init__(
        self,
        base_url: str | None = None,
        model: str | None = None,
        api_key: str | None = None,
        *,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        timeout: float = DEFAULT_TIMEOUT_S,
        session: requests.Session | None = None,
    ) -> None:
        import requests

        base_url = base_url or os.environ.get("LLM_BASE_URL")
        model = model or os.environ.get("LLM_MODEL")
        api_key = api_key or os.environ.get("LLM_API_KEY")
        if not base_url:
            raise LlmConfigError("LLM_BASE_URL is not set")
        if not model:
            raise LlmConfigError("LLM_MODEL is not set")
        if not api_key:
            raise LlmConfigError("LLM_API_KEY is not set; refusing to start a live run")
        if max_in_flight < 1:
            raise LlmConfigError(f"max_in_flight must be >= 1, got {max_in_flight}")
        self._url = base_url.rstrip("/") + "/chat/completions"
        self._model = model
        self._api_key = api_key
        self._timeout = timeout
        self._session = session or requests.Session()
        self._gate = threading.Semaphore(max_in_flight)

    def complete(self, prompt: str, *, schema: Mapping[str, Any] | None = None) -> LlmReply:
        import requests

        body: dict[str, Any] = {
            "model": self._model,
            "messages": [{"role": "user", "content": prompt}],
        }
        if schema is not None:
            body["response_format"] = {
                "type": "json_schema",
                "json_schema": {"name": schema.get("title", "response"), "schema": dict(schema)},
            }
        headers = {"Authorization": f"Bearer {self._api_key}"}
        with self._gate:
            try:
                response = self._session.post(self._url, json=body, headers=headers, timeout=self._timeout)
                response.raise_for_status()
                payload = response.json()
            except (requests.RequestException, ValueError, RecursionError) as exc:
                raise _transport_error(exc) from exc
        return _read_reply(payload)


def _read_reply(payload: Any) -> LlmReply:
    """Decode a chat-completions body in one checked step.

    The text is `choices[0].message.content`, a string; `usage` is an
    object, null or absent (no counts), and each of its counts a
    non-negative integer or absent. Any other shape raises a retryable
    "malformed payload" LlmTransportError.
    """
    try:
        text = payload["choices"][0]["message"]["content"]
        usage = payload.get("usage")
        usage = {} if usage is None else usage
        counts = (usage.get("prompt_tokens"), usage.get("completion_tokens"))
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise LlmTransportError(f"malformed payload: {exc!r}", retryable=True) from exc
    if not isinstance(text, str):
        raise LlmTransportError(f"malformed payload: content is {text!r}", retryable=True)
    for count in counts:
        if count is not None and (isinstance(count, bool) or not isinstance(count, int) or count < 0):
            raise LlmTransportError(f"malformed payload: token count {count!r}", retryable=True)
    return LlmReply(text, *counts)


def _transport_error(exc: Exception) -> LlmTransportError:
    """Connection errors, timeouts, 5xx, 429 (with its numeric Retry-After) and undecodable bodies are retryable."""
    import requests

    if isinstance(exc, requests.HTTPError) and exc.response is not None:
        status = exc.response.status_code
        retry_after = exc.response.headers.get("Retry-After", "").strip()
        if status == 429 and retry_after.isascii() and retry_after.isdigit():
            return LlmTransportError(str(exc), retryable=True, retry_after=float(retry_after))
        if status == 429 or status >= 500:
            return LlmTransportError(str(exc), retryable=True)
    elif isinstance(exc, (requests.ConnectionError, requests.Timeout)):
        return LlmTransportError(str(exc), retryable=True)
    elif isinstance(exc, (ValueError, RecursionError)):
        return LlmTransportError(f"malformed payload: {exc}", retryable=True)
    return LlmTransportError(f"LLM request failed: {exc}")


_VERDICT_WEIGHTS = (("Valid", 40.0), ("Invalid", 35.0), ("Unverifiable", 25.0))
_PROBE_WEIGHTS = (("Agree", 40.0), ("Disagree", 30.0), ("Neutral", 30.0))
_RELEVANCE_WEIGHTS = (("Relevant", 75.0), ("Irrelevant", 25.0))
_SUPPORT_WEIGHTS = (
    ("Fully Supported", 35.0),
    ("Partially Supported", 25.0),
    ("Contradictory", 20.0),
    ("No Support", 20.0),
)

_PASSAGE_ID = re.compile(r"^\[(S\d+)\]", re.MULTILINE)
_PAPER_ID_LIST = re.compile(r"from papers: ([^)]*)\)")


class MockLlm(LlmClient):
    """Seeded offline double that answers every baseline prompt shape.

    Replies are a pure function of (seed, prompt text), drawn through
    the portable stream, so full runs are byte-reproducible. Dispatch
    is on the schema title each call site already supplies.
    """

    def __init__(self, seed: int) -> None:
        self._seed = seed

    def complete(self, prompt: str, *, schema: Mapping[str, Any] | None = None) -> LlmReply:
        title = (schema or {}).get("title")
        if title is None:
            raise LlmError("mock client requires a schema with a title")
        stream = DeterministicStream(self._seed, "mock-llm", prompt)
        if title in ("cot_verdict", "selfrag_verdict", "flare_final_verdict"):
            payload = self._verdict_payload(stream)
        elif title == "selfrag_critiques":
            payload = self._critiques_payload(stream, prompt)
        elif title == "flare_initial_verdict":
            payload = self._flare_initial_payload(stream, prompt)
        elif title == "ciber_probe_verdict":
            payload = self._probe_payload(stream)
        else:
            raise LlmError(f"mock client has no generator for schema title {title!r}")
        return LlmReply(text=json.dumps(payload, sort_keys=True))

    @staticmethod
    def _verdict_payload(stream: DeterministicStream) -> dict[str, Any]:
        verdict = stream.weighted_choice(_VERDICT_WEIGHTS)
        return {
            "verdict": verdict,
            "justification": f"mock reasoning toward {verdict}",
            "confidence": 50 + int(stream.random() * 50),
        }

    @staticmethod
    def _critiques_payload(stream: DeterministicStream, prompt: str) -> dict[str, Any]:
        critiques = []
        for passage_id in _PASSAGE_ID.findall(prompt):
            critiques.append(
                {
                    "passage_id": passage_id,
                    "relevance": stream.weighted_choice(_RELEVANCE_WEIGHTS),
                    "support": stream.weighted_choice(_SUPPORT_WEIGHTS),
                    "note": f"mock critique of {passage_id}",
                }
            )
        return {"critiques": critiques}

    @staticmethod
    def _flare_initial_payload(stream: DeterministicStream, prompt: str) -> dict[str, Any]:
        payload = MockLlm._verdict_payload(stream)
        match = _PAPER_ID_LIST.search(prompt)
        ids = [part.strip() for part in match.group(1).split(",")] if match else []
        ids = [part for part in ids if part]
        roll = stream.random()
        if roll < 0.35 and ids:
            request = stream.choice(ids)
        elif roll < 0.40:
            request = "P999"  # deliberately bogus: exercises the fallback path
        else:
            request = "None"
        payload["request_full_review"] = request
        return payload

    @staticmethod
    def _probe_payload(stream: DeterministicStream) -> dict[str, Any]:
        verdict = stream.weighted_choice(_PROBE_WEIGHTS)
        return {
            "verdict": verdict,
            "justification": f"mock probe answer {verdict}",
            "confidence": 40 + int(stream.random() * 60),
        }
