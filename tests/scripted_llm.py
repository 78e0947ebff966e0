"""A test double that replays canned LLM responses keyed by prompt fingerprint."""

from __future__ import annotations

import json
from typing import Any, Mapping

from claimaudit._rng import fnv1a64
from claimaudit.llm import LlmClient, LlmError, LlmReply


class ScriptMissError(LlmError):
    """A scripted transcript has no entry for the requested prompt."""


def prompt_fingerprint(prompt: str) -> str:
    """Stable 16-hex-digit key for a prompt, used by scripted transcripts."""
    return format(fnv1a64(prompt), "016x")


class ScriptedTranscript(LlmClient):
    """Replays canned responses keyed by prompt fingerprint.

    The transcript file is a JSON object mapping fingerprints (as
    produced by `prompt_fingerprint`) to raw response strings.
    """

    def __init__(self, responses: Mapping[str, str]) -> None:
        self._responses = dict(responses)

    @classmethod
    def from_file(cls, path: str) -> "ScriptedTranscript":
        with open(path, encoding="utf-8") as handle:
            return cls(json.load(handle))

    def complete(self, prompt: str, *, schema: Mapping[str, Any] | None = None) -> LlmReply:
        key = prompt_fingerprint(prompt)
        if key not in self._responses:
            raise ScriptMissError(f"no scripted response for prompt fingerprint {key}")
        return LlmReply(text=self._responses[key])
