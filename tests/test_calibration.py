"""Ridge closed form, grid search vs exhaustive oracle, flawed-audit simulator."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from claimaudit.core import ALL_CHECKS, CheckId, RequiredStandard
from claimaudit.calibration import (
    CalibrationRecord,
    Grid,
    default_grid,
    fit_boldness_model,
    grid_search,
    load_calibration_records,
    load_params,
    ridge_fit,
    save_params,
    simulate_flawed_audit,
)
from claimaudit.scoring import HvParams, Tallies
from claimaudit.threshold import ThresholdConfig, constant_boldness_model

from oracles import grid_search_bruteforce

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def random_record(rng: np.random.Generator) -> CalibrationRecord:
    standards = list(RequiredStandard)
    return CalibrationRecord(
        specificity=int(rng.integers(1, 11)),
        testability=int(rng.integers(1, 11)),
        required_standard=standards[int(rng.integers(0, 3))],
        boldness_target=float(rng.uniform(0, 1)),
        tallies=Tallies(
            h_support=float(rng.uniform(0, 3)),
            h_refute=float(rng.uniform(0, 3)),
            h_neutral=float(rng.uniform(0, 2)),
        ),
        human_verdict=("Support", "Contradict", "Uncertain")[int(rng.integers(0, 3))],
        confidence=int(rng.integers(0, 101)),
    )


class TestRidgeFit:
    def test_constant_targets_land_on_intercept(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(30, 5))
        y = np.full(30, 0.5)
        model = ridge_fit(X, y, gamma=1.0)
        assert model.intercept + float(np.dot(model.weights, X.mean(axis=0))) == pytest.approx(0.5, abs=1e-12)
        big = ridge_fit(X, y, gamma=1e8)
        assert np.linalg.norm(big.weights) < 1e-6

    def test_single_point_carries_no_slope(self):
        model = ridge_fit(np.array([[1.0]]), np.array([1.0]), gamma=1.0)
        assert model.weights == (0.0,)
        assert model.intercept == pytest.approx(1.0)

    def test_normal_equation_residual_bound_on_random_problems(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            p = int(rng.integers(1, 8))
            X = rng.normal(scale=rng.uniform(0.1, 5), size=(n, p))
            y = rng.normal(size=n)
            gamma = float(rng.uniform(1e-3, 10))
            model = ridge_fit(X, y, gamma)
            Xc = X - X.mean(axis=0)
            yc = y - y.mean()
            lhs = (Xc.T @ Xc + gamma * np.eye(p)) @ np.array(model.weights)
            rhs = Xc.T @ yc
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * (1 + np.linalg.norm(rhs))

    def test_gamma_to_zero_matches_exact_least_squares(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, p = 40, 5
            X = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            model = ridge_fit(X, y, gamma=1e-10)
            Xc = X - X.mean(axis=0)
            yc = y - y.mean()
            exact, *_ = np.linalg.lstsq(Xc, yc, rcond=None)
            np.testing.assert_allclose(model.weights, exact, atol=1e-6)

    def test_gamma_to_zero_interpolates_consistent_square_system(self):
        # Square full-rank X with affine targets: predictions must hit y.
        rng = np.random.default_rng(11)
        X = rng.normal(size=(5, 5))
        w_true = rng.normal(size=5)
        y = X @ w_true + 0.7
        model = ridge_fit(X, y, gamma=1e-12)
        preds = X @ np.array(model.weights) + model.intercept
        np.testing.assert_allclose(preds, y, atol=1e-6)

    def test_shrinkage_is_monotone_in_gamma(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(25, 4))
        y = rng.normal(size=25)
        norms = [
            float(np.linalg.norm(ridge_fit(X, y, gamma).weights))
            for gamma in (0.01, 0.1, 1.0, 10.0, 100.0)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_nan_inputs_rejected(self):
        with pytest.raises(ValueError, match="NaN|infinite"):
            ridge_fit(np.array([[np.nan]]), np.array([1.0]), gamma=1.0)


class TestGridSearch:
    def test_all_correct_cells_tie_break_to_smallest(self):
        record = CalibrationRecord(
            specificity=5, testability=5,
            required_standard=RequiredStandard.PLAUSIBLE_EVIDENCE,
            boldness_target=0.5,
            tallies=Tallies(h_support=5.0, h_refute=0.0, h_neutral=0.0),
            human_verdict="Support", confidence=80,
        )
        grid = Grid(alpha_values=(0.0, 0.5, 1.0), lambda_values=(0.1, 0.5))
        best = grid_search([record], grid, ThresholdConfig(), constant_boldness_model(0.5))
        assert best == (0.0, 0.1)

    def test_matches_bruteforce_oracle_on_random_sets(self):
        rng = np.random.default_rng(42)
        cfg = ThresholdConfig()
        for trial in range(30):
            records = [random_record(rng) for _ in range(20)]
            if all(r.human_verdict == "Uncertain" for r in records):
                continue
            ridge = fit_boldness_model(records, gamma=1.0)
            grid = Grid(
                alpha_values=tuple(sorted(set(round(float(v), 3) for v in rng.uniform(0, 2, size=5)))),
                lambda_values=tuple(sorted(set(round(float(v), 3) for v in rng.uniform(0.01, 2, size=5)))),
            )
            assert grid_search(records, grid, cfg, ridge) == grid_search_bruteforce(records, grid, cfg, ridge), (
                f"grid search diverged from the exhaustive oracle on trial {trial}"
            )

    def test_uncertain_only_records_raise(self):
        rng = np.random.default_rng(1)
        records = []
        while len(records) < 5:
            record = random_record(rng)
            if record.human_verdict == "Uncertain":
                records.append(record)
        with pytest.raises(ValueError, match="Uncertain"):
            grid_search(records, default_grid(), ThresholdConfig(), constant_boldness_model())

    def test_deterministic_for_fixed_inputs(self):
        rng = np.random.default_rng(9)
        records = [random_record(rng) for _ in range(25)]
        ridge = constant_boldness_model(0.4)
        cfg = ThresholdConfig()
        grid = Grid(alpha_values=(0.0, 0.3, 0.9), lambda_values=(0.05, 0.2, 0.8))
        first = grid_search(records, grid, cfg, ridge)
        assert all(grid_search(records, grid, cfg, ridge) == first for _ in range(3))

    def test_negative_alpha_in_the_grid_raises(self):
        records = [random_record(np.random.default_rng(4)) for _ in range(10)]
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            grid = Grid(alpha_values=(-0.5, 0.5), lambda_values=(0.1,))
            grid_search(records, grid, ThresholdConfig(), constant_boldness_model())

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            Grid(alpha_values=(0.5, 0.5), lambda_values=(0.1,))
        with pytest.raises(ValueError, match="> 0"):
            Grid(alpha_values=(0.0,), lambda_values=(0.0, 0.1))
        with pytest.raises(ValueError, match="nonempty"):
            Grid(alpha_values=(), lambda_values=(0.1,))

    def test_default_grid_shape(self):
        grid = default_grid()
        assert len(grid.alpha_values) == 41
        assert len(grid.lambda_values) == 40
        assert grid.alpha_values[0] == 0.0
        assert grid.lambda_values[0] == 0.05
        assert grid.alpha_values[-1] == 2.0
        assert grid.lambda_values[-1] == 2.0


class TestSimulateFlawedAudit:
    def test_identical_seed_gives_identical_vector(self):
        checks = set(ALL_CHECKS)
        first = simulate_flawed_audit(7, checks)
        second = simulate_flawed_audit(7, checks)
        assert first == second

    def test_failure_count_in_two_to_four(self):
        for seed in range(200):
            audit = simulate_flawed_audit(seed, set(ALL_CHECKS))
            fails = sum(1 for v in audit.scores.values() if v == 0.0)
            assert 2 <= fails <= 4
            assert set(audit.scores.values()) <= {0.0, 1.0}

    def test_under_two_applicable_all_fail(self):
        audit = simulate_flawed_audit(3, {CheckId.C6})
        assert audit.scores == {CheckId.C6: 0.0}

    def test_empty_applicable_set_gives_empty_vector(self):
        audit = simulate_flawed_audit(3, set())
        assert audit.scores == {}

    def test_only_applicable_checks_scored(self):
        subset = {CheckId.C2, CheckId.C5, CheckId.C8, CheckId.C9, CheckId.C11}
        for seed in range(50):
            audit = simulate_flawed_audit(seed, subset)
            assert set(audit.scores) == subset

    def test_failure_counts_vary_across_seeds(self):
        counts = {
            sum(1 for v in simulate_flawed_audit(seed, set(ALL_CHECKS)).scores.values() if v == 0.0)
            for seed in range(100)
        }
        assert counts == {2, 3, 4}


class TestRecordIo:
    def test_jsonl_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        records = [random_record(rng) for _ in range(10)]
        path = tmp_path / "calibration.jsonl"
        path.write_text("\n".join(json.dumps(r.to_json()) for r in records) + "\n", encoding="utf-8")
        loaded = load_calibration_records(path)
        assert loaded == records

    @pytest.mark.parametrize("line", ['{"specificity": 5}', "[1, 2]"], ids=["missing-fields", "not-an-object"])
    def test_bad_line_reports_line_number(self, tmp_path, line):
        path = tmp_path / "calibration.jsonl"
        path.write_text(f"\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="calibration.jsonl:2: bad calibration record"):
            load_calibration_records(path)

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("specificity", 7.9, "specificity: expected an integer, got 7.9"),
            ("testability", True, "testability: expected an integer, got True"),
            ("confidence", "80", "confidence: expected an integer, got '80'"),
            ("boldness_target", "0.5", "boldness_target: expected a number, got '0.5'"),
            ("human_verdict", 1, "human_verdict: expected a string, got 1"),
            ("required_standard", "Weak", "required_standard: expected one of"),
            ("tallies", {"h_support": True, "h_refute": 0.2, "h_neutral": 0.1},
             "tallies: h_support: expected a number, got True"),
        ],
    )
    def test_mistyped_field_is_named(self, tmp_path, field, value, message):
        line = random_record(np.random.default_rng(3)).to_json()
        line[field] = value
        path = tmp_path / "calibration.jsonl"
        path.write_text(json.dumps(line) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"calibration.jsonl:1: bad calibration record: {re.escape(message)}"):
            load_calibration_records(path)

    def test_shipped_calibration_records_load(self):
        assert len(load_calibration_records(FIXTURES / "calibration.jsonl")) == 60

    def test_params_file_round_trip(self, tmp_path):
        params = HvParams(alpha=0.65, lambda_=0.3)
        ridge = constant_boldness_model(0.45)
        path = tmp_path / "params.json"
        save_params(path, params, ridge)
        payload = json.loads(path.read_text())
        assert set(payload) == {"alpha", "lambda", "ridge"}
        loaded_params, loaded_ridge = load_params(path)
        assert loaded_params == params
        assert loaded_ridge == ridge

    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            ({"alpha": True}, "alpha: expected a number, got True"),
            ({"lambda": "0.2"}, "lambda: expected a number, got '0.2'"),
            ({"ridge": {"weights": "0.1", "intercept": 0.5, "gamma": 1.0}}, "weights: expected a list"),
            ({"ridge": {"weights": [0.1, None], "intercept": 0.5, "gamma": 1.0}}, "weights[1]: expected a number"),
            ({"ridge": {"weights": [0.1], "intercept": False, "gamma": 1.0}}, "intercept: expected a number"),
            ({"ridge": {"weights": [0.1], "intercept": 0.5, "gamma": "1"}}, "gamma: expected a number"),
        ],
        ids=["bool-alpha", "string-lambda", "string-weights", "null-weight", "bool-intercept", "string-gamma"],
    )
    def test_mistyped_params_value_is_named(self, tmp_path, edit, message):
        path = tmp_path / "params.json"
        save_params(path, HvParams(alpha=0.65, lambda_=0.3), constant_boldness_model(0.45))
        path.write_text(json.dumps({**json.loads(path.read_text()), **edit}), encoding="utf-8")
        with pytest.raises(ValueError, match=f"params.json: bad params: {re.escape(message)}"):
            load_params(path)

    def test_an_unknown_params_key_is_named(self, tmp_path):
        path = tmp_path / "params.json"
        save_params(path, HvParams(alpha=0.65, lambda_=0.3), constant_boldness_model(0.45))
        path.write_text(json.dumps({**json.loads(path.read_text()), "beta": 1.0}), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape("params.json: bad params: HvParams has unknown fields: ['beta']")):
            load_params(path)

    @pytest.mark.parametrize("payload", ["x", 5, None, [1]], ids=["string", "number", "null", "list"])
    def test_a_params_file_that_is_not_an_object_is_named(self, tmp_path, payload):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        message = f"params.json: bad params: params: expected an object, got {payload!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_params(path)

    def test_malformed_params_file_is_named(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(ValueError, match="params.json: bad params"):
            load_params(path)
