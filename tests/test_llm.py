"""Tests for the LLM client layer: HTTP transport, transcripts, mock."""

import json

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from claimaudit.llm import (
    Asker,
    HttpChatClient,
    LlmClient,
    LlmConfigError,
    LlmError,
    LlmReply,
    LlmTransportError,
    MAX_RETRY_AFTER_S,
    MockLlm,
    TokenUsage,
    approx_token_count,
    extract_json_object,
)

from json_strategies import ANY_JSON, or_any
from scripted_llm import ScriptedTranscript, ScriptMissError, prompt_fingerprint


class TestApproxTokenCount:
    def test_empty_string_is_zero(self):
        assert approx_token_count("") == 0

    def test_eight_bytes_is_two(self):
        assert approx_token_count("abcdefgh") == 2

    def test_rounds_up(self):
        assert approx_token_count("abcde") == 2

    def test_counts_utf8_bytes_not_codepoints(self):
        # U+00E9 is two UTF-8 bytes.
        assert approx_token_count("é" * 4) == 2


class TestTokenUsage:
    def test_provider_counts_pass_through_exactly(self):
        usage = TokenUsage()
        usage.record("irrelevant", LlmReply(text="x", prompt_tokens=7, completion_tokens=3))
        assert (usage.tokens_in, usage.tokens_out, usage.approximate) == (7, 3, False)

    def test_missing_counts_fall_back_to_approximation(self):
        usage = TokenUsage()
        usage.record("abcdefgh", LlmReply(text="abcd"))
        assert (usage.tokens_in, usage.tokens_out, usage.approximate) == (2, 1, True)

    def test_partial_counts_are_flagged_approximate(self):
        usage = TokenUsage()
        usage.record("abcdefgh", LlmReply(text="abcd", prompt_tokens=3))
        assert (usage.tokens_in, usage.tokens_out, usage.approximate) == (3, 1, True)

    def test_records_accumulate_and_one_approximate_turn_taints(self):
        usage = TokenUsage()
        usage.record("abcd", LlmReply(text="abcd"))
        usage.record("irrelevant", LlmReply(text="x", prompt_tokens=5, completion_tokens=5))
        assert (usage.tokens_in, usage.tokens_out, usage.approximate) == (6, 6, True)


class TestExtractJsonObject:
    def test_plain_object(self):
        assert extract_json_object('{"a": 1}') == {"a": 1}

    def test_fenced_object_with_language_tag(self):
        assert extract_json_object('```json\n{"a": 1}\n```') == {"a": 1}

    def test_prose_wrapped_object(self):
        assert extract_json_object('Sure! Here it is: {"a": 1} Hope that helps.') == {"a": 1}

    def test_garbage_raises_value_error(self):
        with pytest.raises(ValueError):
            extract_json_object("no json here")

    def test_truncated_object_raises(self):
        with pytest.raises(ValueError):
            extract_json_object('{"a": [1, 2')

    @pytest.mark.parametrize("raw", ["[1, 2]", '[{"a": 1}]', '"{}"', "null", "3"])
    def test_json_that_is_no_object_raises_without_a_fallback(self, raw):
        with pytest.raises(ValueError, match="^reply does not contain a JSON object$"):
            extract_json_object(raw)

    @pytest.mark.parametrize(
        "raw", ["[" * 100_000, '{"a": ' * 100_000 + "1" + "}" * 100_000], ids=["array", "object"]
    )
    def test_nesting_past_the_recursion_limit_raises_value_error(self, raw):
        with pytest.raises(ValueError, match="does not contain a JSON object"):
            extract_json_object(raw)


class TestAsker:
    def test_last_parse_error_names_the_attempts_made(self):
        transcript = ScriptedTranscript({prompt_fingerprint("p"): "word salad"})
        usage, sleeps = TokenUsage(), []
        message = "^t reply unparseable after 2 attempts: reply does not contain a JSON object$"
        with pytest.raises(ValueError, match=message) as info:
            Asker(transcript, retries=1, sleep=sleeps.append).ask("p", {"title": "t"}, dict, usage)
        assert isinstance(info.value.__cause__, ValueError)
        assert (sleeps, usage.tokens_out) == ([1.0], 2 * approx_token_count("word salad"))

    def test_memo_hit_records_the_reply_again_without_a_call(self):
        client = _Replies([LlmReply(text='{"a": 1}', prompt_tokens=5, completion_tokens=3)] * 2)
        usage, asker = TokenUsage(), Asker(client, retries=0, sleep=None, memo={})

        def ask(title):
            return asker.ask("p", {"title": title}, dict, usage)

        assert ask("t") == ask("t") == {"a": 1}
        assert (client.calls, usage.tokens_in, usage.tokens_out) == (1, 10, 6)
        ask("other")
        assert client.calls == 2

    def test_unparseable_reply_is_not_memoized(self):
        client = _Replies([LlmReply(text="word salad"), LlmReply(text='{"a": 1}')])
        usage, asker = TokenUsage(), Asker(client, retries=0, sleep=None, memo={})

        def ask():
            return asker.ask("p", {"title": "t"}, dict, usage)

        with pytest.raises(ValueError, match="unparseable after 1 attempt:"):
            ask()
        assert asker.memo == {}
        assert (ask(), client.calls) == ({"a": 1}, 2)


    @pytest.mark.parametrize("retries", [12, 1100])
    def test_backoff_doubles_up_to_the_cap_and_never_overflows(self, retries):
        client, sleeps = _Unavailable(), []
        with pytest.raises(LlmTransportError, match=f"^t request failed after {retries + 1} attempts: busy$"):
            Asker(client, retries=retries, sleep=sleeps.append).ask("p", {"title": "t"}, dict, TokenUsage())
        assert client.calls == retries + 1
        assert sleeps == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0] + [MAX_RETRY_AFTER_S] * (retries - 6)
        assert MAX_RETRY_AFTER_S == 60.0


class _Unavailable(LlmClient):
    """Fails every call with a retryable transport error."""

    def __init__(self):
        self.calls = 0

    def complete(self, prompt, *, schema=None):
        self.calls += 1
        raise LlmTransportError("busy", retryable=True)


class _Replies(LlmClient):
    """Answers each call with the next reply of a fixed list."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = 0

    def complete(self, prompt, *, schema=None):
        self.calls += 1
        return self.replies.pop(0)


class TestScriptedTranscript:
    def test_replays_by_fingerprint(self):
        prompt = "What is the stance?"
        transcript = ScriptedTranscript({prompt_fingerprint(prompt): "canned"})
        assert transcript.complete(prompt).text == "canned"

    def test_miss_raises_script_miss_error(self):
        transcript = ScriptedTranscript({})
        with pytest.raises(ScriptMissError):
            transcript.complete("never recorded")

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "transcript.json"
        path.write_text(json.dumps({prompt_fingerprint("p"): "r"}), encoding="utf-8")
        assert ScriptedTranscript.from_file(str(path)).complete("p").text == "r"

    def test_fingerprint_is_stable_hex(self):
        assert prompt_fingerprint("abc") == prompt_fingerprint("abc")
        assert len(prompt_fingerprint("abc")) == 16
        assert prompt_fingerprint("abc") != prompt_fingerprint("abd")


class _FakeResponse:
    def __init__(self, payload, status=200, headers=None):
        self._payload = payload
        self.status_code = status
        self.headers = headers or {}

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.HTTPError(f"status {self.status_code}", response=self)

    def json(self):
        return self._payload


class _FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _chat_payload(text, usage=None):
    payload = {"choices": [{"message": {"content": text}}]}
    if usage is not None:
        payload["usage"] = usage
    return payload


# A reply text that holds a JSON object, and the reader of its one value.
OK = '{"answer": "ok"}'


def _answer(payload):
    return payload["answer"]


def _client(session, **kwargs):
    return HttpChatClient(base_url="http://llm.test/v1/", model="test-model", api_key="k", session=session, **kwargs)


def _ask(session, sleeps, **kwargs):
    """One turn through an `Asker` over a fake session; the reply's answer."""
    return Asker(_client(session, **kwargs), sleep=sleeps.append).ask("p", {}, _answer, TokenUsage())


class TestHttpChatClient:
    def test_missing_base_url_fails_at_construction(self, monkeypatch):
        for var in ("LLM_BASE_URL", "LLM_MODEL", "LLM_API_KEY"):
            monkeypatch.delenv(var, raising=False)
        with pytest.raises(LlmConfigError, match="LLM_BASE_URL"):
            HttpChatClient()

    def test_missing_api_key_fails_before_any_network(self, monkeypatch):
        monkeypatch.delenv("LLM_API_KEY", raising=False)
        with pytest.raises(LlmConfigError, match="LLM_API_KEY"):
            HttpChatClient(base_url="http://llm.test", model="m")

    def test_env_fallback_is_used(self, monkeypatch):
        monkeypatch.setenv("LLM_BASE_URL", "http://llm.test")
        monkeypatch.setenv("LLM_MODEL", "m")
        monkeypatch.setenv("LLM_API_KEY", "k")
        HttpChatClient()  # constructs without error

    def test_success_returns_text_and_provider_counts(self):
        session = _FakeSession([_FakeResponse(_chat_payload("hi", {"prompt_tokens": 11, "completion_tokens": 5}))])
        reply = _client(session).complete("hello")
        assert reply == LlmReply(text="hi", prompt_tokens=11, completion_tokens=5)
        call = session.calls[0]
        assert call["url"] == "http://llm.test/v1/chat/completions"
        assert call["json"]["messages"] == [{"role": "user", "content": "hello"}]
        assert call["headers"]["Authorization"] == "Bearer k"
        assert "response_format" not in call["json"]

    @pytest.mark.parametrize(
        "payload", [_chat_payload(OK), {**_chat_payload(OK), "usage": None}], ids=["absent-usage", "null-usage"]
    )
    def test_reply_without_usage_counts_approximately(self, payload):
        usage, asker = TokenUsage(), Asker(_client(_FakeSession([_FakeResponse(payload)])), retries=0)
        assert asker.ask("hello", {}, _answer, usage) == "ok"
        assert (usage.tokens_in, usage.tokens_out, usage.approximate) == (
            approx_token_count("hello"), approx_token_count(OK), True
        )

    def test_schema_requests_structured_output(self):
        session = _FakeSession([_FakeResponse(_chat_payload("{}"))])
        _client(session).complete("p", schema={"title": "cot_verdict", "type": "object"})
        fmt = session.calls[0]["json"]["response_format"]
        assert fmt["type"] == "json_schema"
        assert fmt["json_schema"]["name"] == "cot_verdict"
        assert fmt["json_schema"]["schema"]["type"] == "object"

    def test_one_complete_is_one_post(self):
        session = _FakeSession([_FakeResponse({}, status=503)])
        with pytest.raises(LlmTransportError, match="status 503") as info:
            _client(session).complete("p")
        assert (len(session.calls), info.value.retryable, info.value.retry_after) == (1, True, None)

    def test_retries_with_exponential_backoff_then_succeeds(self):
        session = _FakeSession(
            [requests.ConnectionError("down"), _FakeResponse({}, status=500), _FakeResponse(_chat_payload(OK))]
        )
        sleeps = []
        assert _ask(session, sleeps) == "ok"
        assert sleeps == [1.0, 2.0]

    def test_exhausted_retries_raise_transport_error(self):
        session = _FakeSession([requests.ConnectionError("down")] * 4)
        sleeps = []
        with pytest.raises(LlmTransportError, match="after 4 attempts: down"):
            _ask(session, sleeps)
        assert sleeps == [1.0, 2.0, 4.0]

    @pytest.mark.parametrize(
        "payload",
        [
            {"weird": True},
            [],
            {"choices": [{"message": {"content": "x"}}], "usage": []},
            {"choices": [{"message": {"content": "x"}}], "usage": {"prompt_tokens": "12"}},
            {"choices": "x"},
        ],
        ids=["no-choices", "not-an-object", "list-usage", "string-count", "string-choices"],
    )
    def test_malformed_payload_counts_as_failure(self, payload):
        session = _FakeSession([_FakeResponse(payload)] * 4)
        with pytest.raises(LlmTransportError, match="after 4 attempts: malformed payload"):
            _ask(session, [])
        assert len(session.calls) == 4

    def test_body_nested_past_the_recursion_limit_is_a_malformed_payload(self):
        response = requests.Response()
        response.status_code, response._content, response.encoding = 200, b"[" * 100_000, "utf-8"
        session = _FakeSession([response] * 4)
        with pytest.raises(LlmTransportError, match="after 4 attempts: malformed payload: maximum recursion depth"):
            _ask(session, [])
        assert len(session.calls) == 4

    @pytest.mark.parametrize("status", [400, 401])
    def test_client_error_status_is_not_retried(self, status):
        session = _FakeSession([_FakeResponse({}, status=status)])
        sleeps = []
        with pytest.raises(LlmTransportError, match=f"^LLM request failed: status {status}$"):
            _ask(session, sleeps)
        assert len(session.calls) == 1
        assert sleeps == []

    def test_rate_limit_honours_numeric_retry_after(self):
        session = _FakeSession(
            [_FakeResponse({}, status=429, headers={"Retry-After": "7"}), _FakeResponse(_chat_payload(OK))]
        )
        sleeps = []
        assert _ask(session, sleeps) == "ok"
        assert sleeps == [7.0]

    def test_retry_after_over_the_cap_fails_the_turn_at_once(self):
        session = _FakeSession(
            [_FakeResponse({}, status=429, headers={"Retry-After": "86400"}), _FakeResponse(_chat_payload(OK))]
        )
        sleeps = []
        with pytest.raises(LlmTransportError, match="retry after 86400 s, over the 60 s cap") as info:
            _ask(session, sleeps)
        assert (len(session.calls), sleeps, info.value.retryable) == (1, [], False)

    def test_retry_after_at_the_cap_is_honoured(self):
        wait = f"{MAX_RETRY_AFTER_S:g}"
        session = _FakeSession(
            [_FakeResponse({}, status=429, headers={"Retry-After": wait}), _FakeResponse(_chat_payload(OK))]
        )
        sleeps = []
        assert _ask(session, sleeps) == "ok"
        assert sleeps == [MAX_RETRY_AFTER_S]

    def test_rate_limit_without_retry_after_backs_off(self):
        session = _FakeSession([_FakeResponse({}, status=429), _FakeResponse(_chat_payload(OK))])
        sleeps = []
        assert _ask(session, sleeps) == "ok"
        assert sleeps == [1.0]

    def test_server_error_is_retried(self):
        session = _FakeSession([_FakeResponse({}, status=503), _FakeResponse(_chat_payload(OK))])
        sleeps = []
        assert _ask(session, sleeps) == "ok"
        assert sleeps == [1.0]
        assert len(session.calls) == 2

    def test_one_budget_covers_transport_and_parse_failures(self):
        # Three 503s then an unparseable 200, four times over: a turn makes
        # retries + 1 = 4 POSTs in all, not 4 per parse attempt.
        session = _FakeSession(([_FakeResponse({}, status=503)] * 3 + [_FakeResponse(_chat_payload("prose"))]) * 4)
        sleeps = []
        asker = Asker(_client(session), sleep=sleeps.append)
        with pytest.raises(ValueError, match="^t reply unparseable after 4 attempts: "):
            asker.ask("p", {"title": "t"}, dict, TokenUsage())
        assert (len(session.calls), sleeps) == (4, [1.0, 2.0, 4.0])

    def test_backoff_leaves_the_in_flight_slot_free(self):
        session = _FakeSession([_FakeResponse({}, status=503)] * 2 + [_FakeResponse(_chat_payload(OK))])
        client = _client(session, max_in_flight=1)
        free = []

        def sleep(seconds):
            acquired = client._gate.acquire(blocking=False)
            if acquired:
                client._gate.release()
            free.append(acquired)

        assert Asker(client, sleep=sleep).ask("p", {}, _answer, TokenUsage()) == "ok"
        assert free == [True, True]


class _TextResponse(_FakeResponse):
    """A response whose body is the text `_payload`; `json()` raises ValueError on a body that is not JSON."""

    def json(self):
        return json.loads(self._payload)


_BODIES = st.one_of(
    st.builds(
        lambda text, usage: json.dumps(_chat_payload(text, usage)),
        or_any(st.text(max_size=8)),
        st.none() | st.fixed_dictionaries({"prompt_tokens": or_any(st.integers(0, 99)), "completion_tokens": ANY_JSON}),
    ),
    ANY_JSON.map(json.dumps),
    st.text(max_size=8),
)

_OUTCOMES = st.one_of(
    st.builds(
        _TextResponse,
        _BODIES,
        st.sampled_from([200, 400, 404, 429, 500, 503]),
        st.dictionaries(st.just("Retry-After"), st.integers(0, 120).map(str) | st.text(max_size=4), max_size=1),
    ),
    st.builds(requests.ConnectionError, st.just("down")),
    st.builds(requests.Timeout, st.just("slow")),
)


class TestDrawnTransport:
    @settings(max_examples=150, deadline=None)
    @given(outcomes=st.lists(_OUTCOMES, min_size=4, max_size=4), retries=st.integers(0, 3))
    def test_only_transport_or_parse_errors_escape(self, outcomes, retries):
        session, sleeps = _FakeSession(outcomes), []
        asker = Asker(_client(session), retries=retries, sleep=sleeps.append)
        try:
            asker.ask("p", {"title": "t"}, dict, TokenUsage())
        except (LlmTransportError, ValueError):
            pass
        assert len(session.calls) <= retries + 1
        assert all(0 <= wait <= MAX_RETRY_AFTER_S for wait in sleeps)


VERDICT_SCHEMA = {"title": "cot_verdict"}
CRITIQUES_SCHEMA = {"title": "selfrag_critiques"}
FLARE_SCHEMA = {"title": "flare_initial_verdict"}
PROBE_SCHEMA = {"title": "ciber_probe_verdict"}


class TestMockLlm:
    def test_same_seed_and_prompt_reproduce_bytes(self):
        first = MockLlm(7).complete("p", schema=VERDICT_SCHEMA)
        second = MockLlm(7).complete("p", schema=VERDICT_SCHEMA)
        assert first == second

    def test_different_prompts_usually_differ(self):
        replies = {MockLlm(7).complete(f"p{i}", schema=VERDICT_SCHEMA).text for i in range(20)}
        assert len(replies) > 1

    def test_requires_schema_title(self):
        with pytest.raises(LlmError):
            MockLlm(7).complete("p")
        with pytest.raises(LlmError):
            MockLlm(7).complete("p", schema={"title": "unknown_thing"})

    def test_verdict_payload_shape(self):
        for seed in range(40):
            payload = json.loads(MockLlm(seed).complete("p", schema=VERDICT_SCHEMA).text)
            assert payload["verdict"] in ("Valid", "Invalid", "Unverifiable")
            assert isinstance(payload["confidence"], int)
            assert 50 <= payload["confidence"] <= 100

    def test_verdicts_cover_all_three_outcomes(self):
        seen = {
            json.loads(MockLlm(seed).complete("p", schema=VERDICT_SCHEMA).text)["verdict"]
            for seed in range(200)
        }
        assert seen == {"Valid", "Invalid", "Unverifiable"}

    def test_critiques_cover_every_listed_passage(self):
        prompt = "claim\n[S1] (paper D1) a\n[S2] (paper D2) b\n[S3] (paper D1) c"
        payload = json.loads(MockLlm(3).complete(prompt, schema=CRITIQUES_SCHEMA).text)
        assert [c["passage_id"] for c in payload["critiques"]] == ["S1", "S2", "S3"]
        for critique in payload["critiques"]:
            assert critique["relevance"] in ("Relevant", "Irrelevant")
            assert critique["support"] in (
                "Fully Supported",
                "Partially Supported",
                "Contradictory",
                "No Support",
            )

    def test_flare_requests_cover_all_branches(self):
        prompt_base = "### EVIDENCE SNIPPETS (from papers: D1, D2) ###\n[S1] (paper D1) x"
        requests_seen = {
            json.loads(MockLlm(1).complete(f"{i} {prompt_base}", schema=FLARE_SCHEMA).text)[
                "request_full_review"
            ]
            for i in range(300)
        }
        assert "None" in requests_seen
        assert "P999" in requests_seen
        assert requests_seen & {"D1", "D2"}
        assert requests_seen <= {"None", "P999", "D1", "D2"}

    def test_probe_payload_shape(self):
        for seed in range(40):
            payload = json.loads(MockLlm(seed).complete("p", schema=PROBE_SCHEMA).text)
            assert payload["verdict"] in ("Agree", "Disagree", "Neutral")
            assert 40 <= payload["confidence"] <= 100
