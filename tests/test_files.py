"""File helper tests: atomic writes, the typed JSON readers and the JSON codec of the stored record types."""

import json
import re
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimaudit._files import json_array, json_optional, json_value, read_json_lines, write_atomic
from claimaudit.calibration import CalibrationRecord
from claimaudit.core import (
    ALL_CHECKS,
    AnalysisDocument,
    CheckSignal,
    Claim,
    ClaimType,
    GlobalIntegritySignals,
    RequiredStandard,
    Verdict,
)
from claimaudit.evaluation import CellMetrics, RunReport, VerdictRecord
from claimaudit.scoring import HvParams, Tallies, make_contribution
from claimaudit.threshold import RidgeModel


class TestWriteAtomic:
    def test_parts_are_written_in_order(self, tmp_path):
        write_atomic(tmp_path / "sub" / "out.txt", iter(["a", "", "bc\n"]))
        assert (tmp_path / "sub" / "out.txt").read_text(encoding="utf-8") == "abc\n"

    def test_a_part_that_raises_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_bytes(b"old bytes\n")

        def parts():
            yield "new first part\n"
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError, match="writer failed"):
            write_atomic(target, parts())
        assert target.read_bytes() == b"old bytes\n"
        assert [path.name for path in tmp_path.iterdir()] == ["out.txt"]

    def test_a_new_file_gets_the_mode_a_plain_open_gives(self, tmp_path):
        with open(tmp_path / "plain.txt", "w", encoding="utf-8") as handle:
            handle.write("plain\n")
        write_atomic(tmp_path / "atomic.txt", ["atomic\n"])
        assert (tmp_path / "atomic.txt").stat().st_mode == (tmp_path / "plain.txt").stat().st_mode

    def test_a_replaced_file_keeps_its_mode(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old\n", encoding="utf-8")
        target.chmod(0o640)
        write_atomic(target, ["new\n"])
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert target.read_text(encoding="utf-8") == "new\n"


class TestReadJsonLines:
    def test_a_line_nested_past_the_recursion_limit_is_named_by_path_and_line(self, tmp_path):
        path = tmp_path / "items.jsonl"
        path.write_text("[1]\n" + "[" * 100_000 + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: bad item: maximum recursion depth")):
            read_json_lines(path, "item", lambda value: value)


texts = st.text(max_size=12)
numbers = st.floats(allow_nan=False, allow_infinity=False)
unit = st.floats(0.0, 1.0)
nonnegative = st.floats(0.0, 1e6)
positive = st.floats(1e-6, 1e6)
optional_numbers = st.none() | numbers
labels = st.sampled_from([member.value for member in Verdict])

tallies = st.builds(Tallies, h_support=nonnegative, h_refute=nonnegative, h_neutral=nonnegative)
contributions = st.builds(
    make_contribution, doc_id=texts, stance=st.sampled_from((-1, 0, 1)), quality=unit, weight=unit
)
check_signals = st.one_of(
    st.builds(CheckSignal, is_applicable=st.just(True), objective_analysis=texts),
    st.just(CheckSignal(is_applicable=False, objective_analysis="N/A")),
)


@st.composite
def verdict_records(draw):
    answered = draw(st.booleans())
    return VerdictRecord(
        claim_id=draw(texts),
        method=draw(texts),
        scenario=draw(texts),
        verdict=draw(labels) if answered else None,
        ground_truth=draw(labels),
        hv=draw(optional_numbers),
        tau=draw(optional_numbers),
        tallies=draw(st.none() | tallies),
        contributions=tuple(draw(st.lists(contributions, max_size=3))),
        n_evidence_docs=draw(st.integers(0, 50)),
        retrieval_mode=draw(st.none() | texts),
        tokens_in=draw(st.integers(0, 10**6)),
        tokens_out=draw(st.integers(0, 10**6)),
        tokens_approximate=draw(st.booleans()),
        failure=None if answered else draw(texts),
    )


cell_metrics = st.builds(
    CellMetrics,
    method=texts,
    scenario=texts,
    n=st.integers(0, 100),
    failures=st.integers(0, 100),
    macro_f1=optional_numbers,
    mcc=optional_numbers,
    avg_tokens_in=numbers,
    avg_tokens_out=numbers,
    tokens_approximate=st.booleans(),
)

# One strategy per stored record type, keyed by the class it builds.
RECORDS = {
    CalibrationRecord: st.builds(
        CalibrationRecord,
        specificity=st.integers(),
        testability=st.integers(),
        required_standard=st.sampled_from(RequiredStandard),
        boldness_target=unit,
        tallies=tallies,
        human_verdict=st.sampled_from(("Support", "Contradict", "Uncertain")),
        confidence=st.integers(0, 100),
    ),
    Claim: st.builds(
        Claim,
        id=texts,
        text=texts.filter(bool),
        claim_type=st.sampled_from(ClaimType),
        topic=texts,
        specificity=st.integers(1, 10),
        testability=st.integers(1, 10),
        required_standard=st.sampled_from(RequiredStandard),
        probe_questions=st.tuples(texts, texts, texts),
        ground_truth=st.sampled_from((Verdict.VALID, Verdict.INVALID)),
    ),
    AnalysisDocument: st.builds(
        AnalysisDocument,
        global_integrity_signals=st.builds(GlobalIntegritySignals, texts, texts, texts),
        veritable_check_signals=st.fixed_dictionaries({check: check_signals for check in ALL_CHECKS}),
    ),
    VerdictRecord: verdict_records(),
    CellMetrics: cell_metrics,
    RunReport: st.builds(RunReport, cells=st.lists(cell_metrics, max_size=3).map(tuple)),
    HvParams: st.builds(HvParams, alpha=nonnegative, lambda_=positive),
    RidgeModel: st.builds(
        RidgeModel, weights=st.lists(numbers, max_size=5).map(tuple), intercept=numbers, gamma=positive
    ),
}
RECORD_IDS = [cls.__name__ for cls in RECORDS]


def _through_json_text(payload):
    return json.loads(json.dumps(payload))


class TestTypedReaders:
    @pytest.mark.parametrize(
        "value,message",
        [(["Valid"], "verdict: expected a string, got ['Valid']"), ("Maybe", "verdict: unknown 'Maybe'")],
    )
    def test_a_label_is_checked_as_a_string_before_the_lookup(self, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            json_value("verdict", value, str, among={"Valid": 1})
        assert json_value("verdict", "Valid", str, among={"Valid": 1}) == "Valid"

    def test_an_array_item_outside_the_known_set_is_named_by_its_position(self):
        assert json_array("ids", ["a", "b"], str, among={"a", "b"}) == ("a", "b")
        with pytest.raises(ValueError, match=re.escape("ids[1]: unknown 'c'")):
            json_array("ids", ["a", "c"], str, among={"a", "b"})

    def test_an_integer_too_large_for_a_float_is_named(self):
        with pytest.raises(ValueError, match="^confidence: expected a number, got an integer too large for one$"):
            json_value("confidence", 10**400, float)

    def test_only_null_reads_as_the_default(self):
        assert json_optional("note", None, str, default="") == ""
        assert json_optional("flag", None, str, default="None") == "None"
        assert json_optional("flag", "", str, default="None") == ""
        with pytest.raises(ValueError, match=re.escape("note: expected a string, got 5")):
            json_optional("note", 5, str, default="")


class TestRecordCodec:
    @pytest.mark.parametrize("cls", RECORDS, ids=RECORD_IDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_round_trip(self, cls, data):
        record = data.draw(RECORDS[cls])
        assert cls.from_json(_through_json_text(record.to_json())) == record

    @pytest.mark.parametrize("cls", RECORDS, ids=RECORD_IDS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_a_mistyped_field_is_named(self, cls, data):
        # A list is the wrong JSON type for every field but a tuple, and an
        # object is the wrong one for a tuple.
        payload = _through_json_text(data.draw(RECORDS[cls]).to_json())
        for key, value in payload.items():
            spoiled = {**payload, key: {} if isinstance(value, list) else []}
            with pytest.raises(ValueError, match=re.escape(key)):
                cls.from_json(spoiled)

    @pytest.mark.parametrize("cls", RECORDS, ids=RECORD_IDS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_a_missing_field_is_named(self, cls, data):
        payload = data.draw(RECORDS[cls]).to_json()
        for key in payload:
            with pytest.raises(ValueError, match=re.escape(key)):
                cls.from_json({other: value for other, value in payload.items() if other != key})

    def test_keys_follow_the_field_order_and_the_key_map(self):
        assert list(HvParams(alpha=0.25, lambda_=0.5).to_json()) == ["alpha", "lambda"]
        record = VerdictRecord(claim_id="K", method="m", scenario="s", ground_truth="Valid", failure="none")
        assert RunReport(records=(record,)).to_json() == {"cells": []}

    def test_a_nested_field_is_named_by_its_position(self):
        payload = _through_json_text(
            VerdictRecord(
                claim_id="K", method="audit", scenario="TY0", verdict="Valid", ground_truth="Valid",
                contributions=(make_contribution("D1", 1, 0.5, 1.0), make_contribution("D2", 1, 0.5, 1.0)),
            ).to_json()
        )
        payload["contributions"][1]["quality"] = "0.5"
        with pytest.raises(ValueError, match=re.escape("contributions[1]: quality: expected a number, got '0.5'")):
            VerdictRecord.from_json(payload)
