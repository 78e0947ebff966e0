"""File helper tests: atomic writes, the typed JSON readers and the JSON codec of the stored record types."""

import importlib
import json
import pkgutil
import re
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import claimaudit
from claimaudit._files import JsonRecord, json_array, json_optional, json_value, read_json_lines, write_atomic
from claimaudit.calibration import CalibrationRecord, load_calibration_records
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
from claimaudit.corpus import Document, EvidenceChunk
from claimaudit.records import CellMetrics, VerdictRecord, load_records
from claimaudit.scoring import DocumentContribution, HvParams, Tallies, make_contribution
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
verdicts = st.sampled_from(Verdict)

tallies = st.builds(Tallies, h_support=nonnegative, h_refute=nonnegative, h_neutral=nonnegative)
contributions = st.builds(
    make_contribution, doc_id=texts, stance=st.sampled_from((-1, 0, 1)), quality=unit, weight=unit
)
check_signals = st.one_of(
    st.builds(CheckSignal, is_applicable=st.just(True), objective_analysis=texts),
    st.just(CheckSignal(is_applicable=False, objective_analysis="N/A")),
)
analyses = st.builds(
    AnalysisDocument,
    global_integrity_signals=st.builds(GlobalIntegritySignals, texts, texts, texts),
    veritable_check_signals=st.fixed_dictionaries({check: check_signals for check in ALL_CHECKS}),
)
# A document's chunks carry the ordinals 0..n-1 in order.
documents = st.builds(
    Document,
    id=texts,
    title=texts,
    source_uri=texts,
    retracted=st.booleans(),
    analysis=analyses,
    chunks=st.lists(st.tuples(texts, texts), max_size=3).map(
        lambda chunks: tuple(EvidenceChunk(id=id_, ordinal=i, text=text) for i, (id_, text) in enumerate(chunks))
    ),
)


@st.composite
def verdict_records(draw):
    answered = draw(st.booleans())
    return VerdictRecord(
        claim_id=draw(texts),
        method=draw(texts),
        scenario=draw(texts),
        verdict=draw(verdicts) if answered else None,
        ground_truth=draw(verdicts),
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

# One strategy per record type, keyed by the class it builds.
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
    AnalysisDocument: analyses,
    Document: documents,
    EvidenceChunk: st.builds(EvidenceChunk, id=texts, ordinal=st.integers(0, 10**6), text=texts),
    GlobalIntegritySignals: st.builds(GlobalIntegritySignals, texts, texts, texts),
    CheckSignal: check_signals,
    VerdictRecord: verdict_records(),
    Tallies: tallies,
    DocumentContribution: contributions,
    CellMetrics: cell_metrics,
    HvParams: st.builds(HvParams, alpha=nonnegative, lambda_=positive),
    RidgeModel: st.builds(
        RidgeModel, weights=st.lists(numbers, max_size=5).map(tuple), intercept=numbers, gamma=positive
    ),
}


def _record_types():
    """Every `JsonRecord` subclass the package defines, found after importing each of its modules."""
    for module in pkgutil.iter_modules(claimaudit.__path__):
        importlib.import_module(f"claimaudit.{module.name}")
    found, pending = [], JsonRecord.__subclasses__()
    while pending:
        cls = pending.pop()
        pending += cls.__subclasses__()
        if cls.__module__.startswith("claimaudit."):
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


# Each codec test runs on every record type; one without a strategy in RECORDS fails.
RECORD_TYPES = _record_types()
RECORD_IDS = [cls.__name__ for cls in RECORD_TYPES]


def _through_json_text(payload):
    return json.loads(json.dumps(payload))


def _leaves(value, path):
    """(path, container, key or index) of every scalar inside the JSON value `value` at `path`."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        item_path = f"{path}[{key}]" if isinstance(value, list) else f"{path}: {key}" if path else key
        if isinstance(item, (dict, list)):
            yield from _leaves(item, item_path)
        else:
            yield item_path, value, key


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
    @pytest.mark.parametrize("cls", RECORD_TYPES, ids=RECORD_IDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_round_trip(self, cls, data):
        record = data.draw(RECORDS[cls])
        assert cls.from_json(_through_json_text(record.to_json())) == record

    @pytest.mark.parametrize("cls", RECORD_TYPES, ids=RECORD_IDS)
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

    @pytest.mark.parametrize("cls", RECORD_TYPES, ids=RECORD_IDS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_a_missing_field_is_named(self, cls, data):
        payload = data.draw(RECORDS[cls]).to_json()
        for key in payload:
            with pytest.raises(ValueError, match=re.escape(key)):
                cls.from_json({other: value for other, value in payload.items() if other != key})

    @pytest.mark.parametrize("cls", RECORD_TYPES, ids=RECORD_IDS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_an_unknown_key_is_named(self, cls, data):
        payload = data.draw(RECORDS[cls]).to_json()
        with pytest.raises(ValueError, match=re.escape("has unknown fields: ['extra']")):
            cls.from_json({**payload, "extra": None})

    @pytest.mark.parametrize("cls", RECORD_TYPES, ids=RECORD_IDS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_every_nested_leaf_is_named_by_its_path(self, cls, data):
        # A leaf is a JSON scalar; its path joins object keys with ": " and
        # appends list positions as "[i]". A list is the wrong type for
        # every leaf, and a leaf of an object can also be removed.
        payload = _through_json_text(data.draw(RECORDS[cls]).to_json())

        def assert_named(path):
            with pytest.raises(ValueError) as raised:
                cls.from_json(payload)
            assert re.search(f"(^| ){re.escape(path)}: ", str(raised.value)), (path, str(raised.value))

        for path, parent, key in list(_leaves(payload, "")):
            original = parent[key]
            parent[key] = []
            assert_named(path)
            if isinstance(parent, dict):
                del parent[key]
                assert_named(path)
            parent[key] = original

    @pytest.mark.parametrize(
        ("spoil", "message"),
        [
            (lambda a: a["global_integrity_signals"].update(extra="x"),
             "global_integrity_signals has unknown fields: ['extra']"),
            (lambda a: a["veritable_check_signals"].update(C12=a["veritable_check_signals"]["C1"]),
             "veritable_check_signals has unknown fields: ['C12']"),
            (lambda a: a["veritable_check_signals"]["C3"].update(extra="x"),
             "veritable_check_signals: C3 has unknown fields: ['extra']"),
        ],
        ids=["integrity-signals", "check-map", "check-signal"],
    )
    def test_an_unknown_nested_key_is_named_by_its_object(self, spoil, message):
        payload = _through_json_text(
            AnalysisDocument(
                global_integrity_signals=GlobalIntegritySignals("a", "b", "c"),
                veritable_check_signals={check: CheckSignal(True, "ok") for check in ALL_CHECKS},
            ).to_json()
        )
        spoil(payload)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AnalysisDocument.from_json(payload)

    @pytest.mark.parametrize(
        ("load", "record", "what"),
        [
            (
                load_records,
                VerdictRecord(claim_id="K", method="m", scenario="s", ground_truth=Verdict.VALID, failure="down"),
                "verdict record",
            ),
            (load_calibration_records, CalibrationRecord(
                specificity=5, testability=5, required_standard=RequiredStandard.ROBUST_STUDY, boldness_target=0.5,
                tallies=Tallies(1.0, 0.0, 0.0), human_verdict="Support", confidence=50,
            ), "calibration record"),
        ],
        ids=["verdict-record", "calibration-record"],
    )
    def test_a_stored_line_with_an_unknown_key_is_named_by_path_and_line(self, tmp_path, load, record, what):
        path = tmp_path / "lines.jsonl"
        lines = [record.to_json(), {**record.to_json(), "note": 1}]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        message = f"{path}:2: bad {what}: {type(record).__name__} has unknown fields: ['note']"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load(path)

    def test_keys_follow_the_field_order_and_the_key_map(self):
        assert list(HvParams(alpha=0.25, lambda_=0.5).to_json()) == ["alpha", "lambda"]

    def test_a_nested_field_is_named_by_its_position(self):
        payload = _through_json_text(
            VerdictRecord(
                claim_id="K", method="audit", scenario="TY0", verdict=Verdict.VALID, ground_truth=Verdict.VALID,
                contributions=(make_contribution("D1", 1, 0.5, 1.0), make_contribution("D2", 1, 0.5, 1.0)),
            ).to_json()
        )
        payload["contributions"][1]["quality"] = "0.5"
        with pytest.raises(ValueError, match=re.escape("contributions[1]: quality: expected a number, got '0.5'")):
            VerdictRecord.from_json(payload)
