"""The record layer: verdict records, their files, metrics and the report.

Everything reported is recomputable from the VerdictRecords: metrics
never depend on state the records do not carry. All grouping and
floating-point reductions run in deterministic order so the same records
give the same report byte for byte. This module imports no runner, so
reading records and reporting on them loads none.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Hashable, Sequence

from ._files import JsonRecord, read_json_lines
from .core import Verdict, map_verdict
from .scoring import DocumentContribution, Tallies


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion counts; the positive class is Valid."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self) -> None:
        for name, value in (("tp", self.tp), ("fp", self.fp), ("fn", self.fn), ("tn", self.tn)):
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @classmethod
    def from_labels(cls, predicted: Sequence[Verdict], actual: Sequence[Verdict]) -> "ConfusionMatrix":
        if len(predicted) != len(actual):
            raise ValueError(f"label lists differ in length: {len(predicted)} vs {len(actual)}")
        tp = fp = fn = tn = 0
        for raw_pred, raw_act in zip(predicted, actual):
            pred = map_verdict(raw_pred) is Verdict.VALID
            act = map_verdict(raw_act) is Verdict.VALID
            if pred and act:
                tp += 1
            elif pred and not act:
                fp += 1
            elif not pred and act:
                fn += 1
            else:
                tn += 1
        return cls(tp=tp, fp=fp, fn=fn, tn=tn)


def _require_nonempty(cm: ConfusionMatrix) -> None:
    if cm.total == 0:
        raise ValueError("confusion matrix is empty")


def _class_f1(tp: int, fp: int, fn: int) -> float:
    # 2tp/(2tp+fp+fn); a class absent from predictions and actuals scores 0.
    denominator = 2 * tp + fp + fn
    return 0.0 if denominator == 0 else 2 * tp / denominator


def macro_f1(cm: ConfusionMatrix) -> float:
    """Unweighted mean of the Valid-class and Invalid-class F1 scores."""
    _require_nonempty(cm)
    f1_valid = _class_f1(cm.tp, cm.fp, cm.fn)
    f1_invalid = _class_f1(cm.tn, cm.fn, cm.fp)
    return (f1_valid + f1_invalid) / 2


def mcc(cm: ConfusionMatrix) -> float:
    """Matthews correlation; a zero denominator is defined as 0."""
    _require_nonempty(cm)
    numerator = cm.tp * cm.tn - cm.fp * cm.fn
    denominator = (cm.tp + cm.fp) * (cm.tp + cm.fn) * (cm.tn + cm.fp) * (cm.tn + cm.fn)
    if denominator == 0:
        return 0.0
    return numerator / math.sqrt(denominator)


def _check_label_pair(labels_a: Sequence[Hashable], labels_b: Sequence[Hashable]) -> None:
    if len(labels_a) != len(labels_b):
        raise ValueError(f"label lists differ in length: {len(labels_a)} vs {len(labels_b)}")
    if not labels_a:
        raise ValueError("label lists must be nonempty")


def _categories(labels_a: Sequence[Hashable], labels_b: Sequence[Hashable]) -> list[Hashable]:
    # Sorted so floating-point accumulation order is run-independent.
    return sorted(set(labels_a) | set(labels_b), key=str)


def cohen_kappa(labels_a: Sequence[Hashable], labels_b: Sequence[Hashable]) -> float:
    """Chance-corrected agreement with marginal-product expectation."""
    _check_label_pair(labels_a, labels_b)
    n = len(labels_a)
    p_observed = sum(1 for a, b in zip(labels_a, labels_b) if a == b) / n
    count_a = Counter(labels_a)
    count_b = Counter(labels_b)
    p_expected = sum((count_a[k] / n) * (count_b[k] / n) for k in _categories(labels_a, labels_b))
    if p_expected == 1.0:
        return 1.0 if p_observed == 1.0 else 0.0
    return (p_observed - p_expected) / (1.0 - p_expected)


def gwet_ac1(labels_a: Sequence[Hashable], labels_b: Sequence[Hashable]) -> float:
    """Gwet's chance-corrected agreement, stabler than kappa on skewed data."""
    _check_label_pair(labels_a, labels_b)
    n = len(labels_a)
    categories = _categories(labels_a, labels_b)
    p_observed = sum(1 for a, b in zip(labels_a, labels_b) if a == b) / n
    if len(categories) == 1:
        return 1.0 if p_observed == 1.0 else 0.0
    count_a = Counter(labels_a)
    count_b = Counter(labels_b)
    p_expected = sum(
        (pi_k := (count_a[k] / n + count_b[k] / n) / 2) * (1.0 - pi_k) for k in categories
    ) / (len(categories) - 1)
    return (p_observed - p_expected) / (1.0 - p_expected)


@dataclass(frozen=True, kw_only=True)
class VerdictRecord(JsonRecord):
    """One (claim, method, scenario) cell of the verify matrix.

    The defaults describe a cell without an answer, so a failure record
    needs only its key, ground truth, mode, doc count and `failure`.
    """

    claim_id: str
    method: str
    scenario: str
    verdict: Verdict | None = None
    ground_truth: Verdict
    hv: float | None = None
    tau: float | None = None
    tallies: Tallies | None = None
    contributions: tuple[DocumentContribution, ...] = ()
    n_evidence_docs: int = 0
    retrieval_mode: str | None = None
    tokens_in: int = 0
    tokens_out: int = 0
    tokens_approximate: bool = False
    failure: str | None = None

    def __post_init__(self) -> None:
        if (self.verdict is None) == (self.failure is None):
            raise ValueError(
                f"needs exactly one of verdict and failure, got verdict {self.verdict!r}, failure {self.failure!r}"
            )


def record_line(record: VerdictRecord) -> str:
    """One record as a stable JSON line (byte-identical for equal records)."""
    return json.dumps(record.to_json(), sort_keys=True, separators=(",", ":")) + "\n"


def dump_records(records: Sequence[VerdictRecord]) -> str:
    """Stable JSON-lines serialization: every `record_line`, in order."""
    return "".join(map(record_line, records))


def load_records(path: str | Path) -> list[VerdictRecord]:
    return read_json_lines(path, "verdict record", VerdictRecord.from_json)


@dataclass(frozen=True)
class CellMetrics(JsonRecord):
    """Aggregates for one (method, scenario) group of records."""

    method: str
    scenario: str
    n: int
    failures: int
    macro_f1: float | None
    mcc: float | None
    avg_tokens_in: float
    avg_tokens_out: float
    tokens_approximate: bool


def _cell_metrics(records: Sequence[VerdictRecord]) -> tuple[CellMetrics, ...]:
    """Group records by (method, scenario), in first-seen order, and compute each group's metrics."""
    groups: dict[tuple[str, str], list[VerdictRecord]] = {}
    for record in records:
        groups.setdefault((record.method, record.scenario), []).append(record)
    cells = []
    for (method, scenario), members in groups.items():
        scored = [record for record in members if record.failure is None]
        failures = len(members) - len(scored)
        if scored:
            cm = ConfusionMatrix.from_labels(
                [record.verdict for record in scored], [record.ground_truth for record in scored]
            )
            f1_value: float | None = macro_f1(cm)
            mcc_value: float | None = mcc(cm)
            avg_in = sum(record.tokens_in for record in scored) / len(scored)
            avg_out = sum(record.tokens_out for record in scored) / len(scored)
            approximate = any(record.tokens_approximate for record in scored)
        else:
            f1_value = mcc_value = None
            avg_in = avg_out = 0.0
            approximate = False
        cells.append(
            CellMetrics(
                method=method,
                scenario=scenario,
                n=len(scored),
                failures=failures,
                macro_f1=f1_value,
                mcc=mcc_value,
                avg_tokens_in=avg_in,
                avg_tokens_out=avg_out,
                tokens_approximate=approximate,
            )
        )
    return tuple(cells)


@dataclass(frozen=True)
class RunReport:
    """A run's records; their `cells` are computed on first read, so a caller that writes only records pays none."""

    records: tuple[VerdictRecord, ...] = ()

    @cached_property
    def cells(self) -> tuple[CellMetrics, ...]:
        return _cell_metrics(self.records)

    def to_json(self) -> dict[str, Any]:
        """The `report.json` payload: the cells alone, since `records.jsonl` holds the records."""
        return {"cells": [cell.to_json() for cell in self.cells]}


def build_report(records: Sequence[VerdictRecord]) -> RunReport:
    """The report of `records`, its cells computed by this call rather than on first read."""
    report = RunReport(records=tuple(records))
    report.cells  # read here, so computing the metrics is this call's work
    return report


def render_table(report: RunReport) -> str:
    """Plain-text grid: methods down, scenarios across, F1/MCC and "(k failed)" per cell."""
    methods = list(dict.fromkeys(cell.method for cell in report.cells))
    scenarios = list(dict.fromkeys(cell.scenario for cell in report.cells))
    by_key = {(cell.method, cell.scenario): cell for cell in report.cells}
    approximate = any(cell.tokens_approximate for cell in report.cells)

    header = ["method"] + scenarios + ["avg tokens in/out"]
    rows = [header]
    for method in methods:
        row = [method]
        method_cells = [by_key[(method, s)] for s in scenarios if (method, s) in by_key]
        for scenario in scenarios:
            cell = by_key.get((method, scenario))
            if cell is None:
                row.append("-")
                continue
            text = "-" if cell.macro_f1 is None else f"F1 {cell.macro_f1:.3f} MCC {cell.mcc:+.3f}"
            row.append(f"{text} ({cell.failures} failed)" if cell.failures else text)
        total_n = sum(cell.n for cell in method_cells)
        if total_n:
            avg_in = sum(cell.avg_tokens_in * cell.n for cell in method_cells) / total_n
            avg_out = sum(cell.avg_tokens_out * cell.n for cell in method_cells) / total_n
            row.append(f"{avg_in:.0f}/{avg_out:.0f}")
        else:
            row.append("-")
        rows.append(row)

    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(value.ljust(widths[i]) for i, value in enumerate(row)).rstrip() for row in rows]
    if approximate:
        lines.append("token counts are approximate (ceil(bytes/4))")
    return "\n".join(lines) + "\n"


def csv_rows(report: RunReport) -> list[str]:
    """Machine-readable rows, one per (method, scenario) cell."""
    lines = ["method,scenario,n,failures,macro_f1,mcc,avg_tokens_in,avg_tokens_out,tokens_approximate"]
    for cell in report.cells:
        f1_text = "" if cell.macro_f1 is None else f"{cell.macro_f1:.6f}"
        mcc_text = "" if cell.mcc is None else f"{cell.mcc:.6f}"
        lines.append(
            f"{cell.method},{cell.scenario},{cell.n},{cell.failures},"
            f"{f1_text},{mcc_text},{cell.avg_tokens_in:.2f},{cell.avg_tokens_out:.2f},"
            f"{str(cell.tokens_approximate).lower()}"
        )
    return lines
