"""Fake-latency LLM client for measuring the live path offline.

Every call waits a fixed time, as a provider would, then answers with the
same bytes the package's mock path produces: baseline schemas go to
`MockLlm(seed)`, and the batch audit gets `mock_audit` rendered to the
wire format from the request rebuilt out of the prompt. A live run with
this client therefore writes the same records as a `mock=True` run on the
same corpus and seed. The client counts its calls by schema title; the
tracer, which wraps `complete`, also counts the distinct prompts.
"""

from __future__ import annotations

import json
import re
import time
from collections import Counter
from typing import Any, Mapping

from claimaudit.audit import AuditRequest, PaperToAudit, mock_audit, render_audit_response
from claimaudit.core import AnalysisDocument
from claimaudit.llm import LlmClient, LlmReply, MockLlm

BATCH_AUDIT_TITLE = "batch_audit_response"
_CLAIM = re.compile(r'### CLAIM TO VERIFY ###\n"(.*?)"\n\n### PAPERS TO AUDIT ###\n', re.DOTALL)


def request_from_prompt(prompt: str) -> AuditRequest:
    """Rebuild the audit request that `build_audit_prompt` rendered."""
    claim = _CLAIM.search(prompt)
    if claim is None:
        raise ValueError("prompt is not a batch audit prompt")
    papers, _ = json.JSONDecoder().raw_decode(prompt, claim.end())
    return AuditRequest(
        claim_text=claim.group(1),
        papers=tuple(
            PaperToAudit(
                paper_id=paper["paper_id"],
                analysis=AnalysisDocument.from_json(paper["paper_json_content"]),
                chunks=tuple(paper["evidence_text_chunks"]),
            )
            for paper in papers
        ),
    )


class FakeLatencyClient(LlmClient):
    """Sleeps `wait_s` per call, then answers like the seeded mock."""

    def __init__(self, seed: int, wait_s: float) -> None:
        self._seed = seed
        self._wait_s = wait_s
        self._mock = MockLlm(seed)
        self.calls: Counter[str] = Counter()
        self.waited_s = 0.0

    def complete(self, prompt: str, *, schema: Mapping[str, Any] | None = None) -> LlmReply:
        title = str((schema or {}).get("title"))
        self.calls[title] += 1
        if self._wait_s > 0:
            start = time.perf_counter()
            time.sleep(self._wait_s)
            self.waited_s += time.perf_counter() - start
        if title == BATCH_AUDIT_TITLE:
            return LlmReply(text=render_audit_response(mock_audit(request_from_prompt(prompt), self._seed)))
        return self._mock.complete(prompt, schema=schema)
