"""Metrics, feeder aggregation, comparison harness."""

import numpy as np
import pytest

from fedforecast.config import load_datasets, scenario_from_tree
from fedforecast.data import TimeSeries
from fedforecast.errors import (
    AlignmentError,
    ConfigError,
    InsufficientDataError,
    NumericError,
    ShapeError,
)
from fedforecast.evaluation import (
    COMPARISON_CSV_HEADER,
    aggregate_forecast,
    compute_metrics,
    run_comparison,
    run_methods,
)
from fedforecast.serialize import to_csv_text


def series(values, start=0):
    return TimeSeries(start_epoch_hours=start, values=np.asarray(values, dtype=float))


# ----------------------------------------------------------------- metrics


def test_perfect_forecast_zero_errors():
    m = compute_metrics([1.0, 2.0], [1.0, 2.0])
    assert (m.mae, m.rmse, m.mape, m.excluded_points) == (0.0, 0.0, 0.0, 0)


def test_hand_values():
    m = compute_metrics([0.0, 2.0], [1.0, 1.0])
    assert m.mae == pytest.approx(1.0)
    assert m.rmse == pytest.approx(1.0)
    assert m.mape == pytest.approx(100.0)
    assert m.excluded_points == 0


def test_mape_excludes_near_zero_actuals():
    m = compute_metrics([1.0, 1.0], [0.0, 2.0])
    assert m.excluded_points == 1
    assert m.mape == pytest.approx(50.0)


def test_mape_absent_when_all_actuals_zero():
    m = compute_metrics([1.0, 1.0], [0.0, 0.0])
    assert m.mape is None
    assert m.excluded_points == 2
    assert m.mae == pytest.approx(1.0)
    assert m.nrmse is None  # mean |actual| is 0 as well


def test_nrmse_normalizes_by_mean_abs_actual():
    m = compute_metrics([0.0, 4.0], [2.0, 2.0])
    assert m.nrmse == pytest.approx(1.0)  # rmse 2 over mean 2


def test_translation_leaves_mae_rmse_unchanged():
    rng = np.random.default_rng(0)
    pred = rng.normal(size=30)
    actual = rng.normal(size=30)
    base = compute_metrics(pred, actual)
    moved = compute_metrics(pred + 100.0, actual + 100.0)
    assert moved.mae == pytest.approx(base.mae)
    assert moved.rmse == pytest.approx(base.rmse)


def test_metrics_shape_checks():
    with pytest.raises(ShapeError):
        compute_metrics([1.0], [1.0, 2.0])
    with pytest.raises(InsufficientDataError):
        compute_metrics([], [])


# -------------------------------------------------------------- aggregation


def test_feeder_sum():
    out = aggregate_forecast(
        {"a": series([1.0, 2.0]), "b": series([3.0, 4.0])},
        {"a": "F0", "b": "F0"},
    )
    np.testing.assert_array_equal(out["F0"].values, [4.0, 6.0])


def test_single_client_feeder_identity():
    out = aggregate_forecast({"a": series([5.0, 6.0])}, {"a": "F1"})
    np.testing.assert_array_equal(out["F1"].values, [5.0, 6.0])


def test_feeders_kept_separate():
    out = aggregate_forecast(
        {"a": series([1.0]), "b": series([2.0]), "c": series([4.0])},
        {"a": "F0", "b": "F1", "c": "F1"},
    )
    np.testing.assert_array_equal(out["F0"].values, [1.0])
    np.testing.assert_array_equal(out["F1"].values, [6.0])


def test_misaligned_lengths_rejected():
    with pytest.raises(AlignmentError):
        aggregate_forecast(
            {"a": series([1.0, 2.0]), "b": series([1.0, 2.0, 3.0])},
            {"a": "F0", "b": "F0"},
        )


def test_misaligned_starts_rejected():
    with pytest.raises(AlignmentError):
        aggregate_forecast(
            {"a": series([1.0, 2.0], start=0), "b": series([1.0, 2.0], start=1)},
            {"a": "F0", "b": "F0"},
        )


def test_aggregate_triangle_inequality():
    # Feeder-level absolute error is never above the sum of member errors.
    rng = np.random.default_rng(1)
    pred = {f"c{i}": series(rng.uniform(0, 5, size=20)) for i in range(4)}
    actual = {f"c{i}": series(rng.uniform(0, 5, size=20)) for i in range(4)}
    feeders = {f"c{i}": "F0" for i in range(4)}
    agg_pred = aggregate_forecast(pred, feeders)["F0"].values
    agg_actual = aggregate_forecast(actual, feeders)["F0"].values
    feeder_err = np.abs(agg_pred - agg_actual)
    member_err = sum(np.abs(pred[c].values - actual[c].values) for c in pred)
    assert np.all(feeder_err <= member_err + 1e-12)


# ---------------------------------------------------------------- harness


def scenario(tmp_path, **overrides):
    tree = {
        "seed": 3,
        "output_dir": str(tmp_path),
        "population": {
            "n_clients": 4,
            "archetypes": 2,
            "days": 10,
            "seed": 3,
        },
        "model": {"kind": "linear", "lag": 8, "horizon": 1},
        "fl": {"rounds": 4, "optimizer": {"kind": "sgd", "lr": 0.05}},
        "cluster": {"mode": "global", "tau": 0.4, "warmup": 1, "k": 2},
        "methods": ["local_only", "fedavg"],
    }
    tree.update(overrides)
    return scenario_from_tree(tree)


def test_requested_methods_give_matching_rows(tmp_path):
    sc = scenario(tmp_path)
    table = run_comparison(load_datasets(sc), sc)
    assert [row.method for row in table.rows] == ["fedavg", "local_only"]


def test_centralized_pools_all_training_samples(tmp_path):
    sc = scenario(tmp_path, methods=["centralized", "local_only"])
    datasets = load_datasets(sc)
    outcomes = run_methods(datasets, sc)
    central = outcomes["centralized"].row
    local = outcomes["local_only"].row
    assert central.n_train_samples == local.n_train_samples  # both report the total
    assert central.bytes_up == central.bytes_down == 0
    assert local.bytes_up == local.bytes_down == 0


def test_fl_rows_meter_bytes(tmp_path):
    sc = scenario(tmp_path, methods=["fedavg", "ifca"])
    outcomes = run_methods(load_datasets(sc), sc)
    fedavg = outcomes["fedavg"].row
    ifca = outcomes["ifca"].row
    assert fedavg.bytes_up > 0
    assert fedavg.bytes_up == fedavg.bytes_down  # single model both ways
    assert ifca.bytes_down == 2 * ifca.bytes_up  # k=2 broadcast
    assert fedavg.bytes_total == fedavg.bytes_up + fedavg.bytes_down


def test_personalized_variant_differs_from_base(tmp_path):
    sc = scenario(tmp_path, methods=["fedavg", "fedavg_personalized"])
    outcomes = run_methods(load_datasets(sc), sc)
    base = outcomes["fedavg"]
    pers = outcomes["fedavg_personalized"]
    assert base.row.bytes_total == pers.row.bytes_total  # fine-tuning is local
    base_maes = [m.mae for m in base.per_client.values()]
    pers_maes = [m.mae for m in pers.per_client.values()]
    assert base_maes != pers_maes


def test_comparison_table_byte_deterministic(tmp_path):
    sc = scenario(
        tmp_path,
        methods=["fedavg", "hc", "ifca", "local_only", "centralized"],
    )
    datasets = load_datasets(sc)
    a = run_comparison(datasets, sc)
    b = run_comparison(load_datasets(sc), sc)
    text_a = to_csv_text(COMPARISON_CSV_HEADER, a.csv_rows())
    text_b = to_csv_text(COMPARISON_CSV_HEADER, b.csv_rows())
    assert text_a == text_b


def test_unknown_method_rejected(tmp_path):
    sc = scenario(tmp_path)
    with pytest.raises(ConfigError):
        run_methods(load_datasets(sc), sc, ["gossip"])


def test_fl_needs_two_clients(tmp_path):
    sc = scenario(
        tmp_path,
        population={"n_clients": 1, "archetypes": 1, "days": 10, "seed": 0},
        methods=["fedavg"],
    )
    with pytest.raises(ConfigError):
        run_methods(load_datasets(sc), sc)


@pytest.mark.parametrize("method", ["local_only", "centralized"])
def test_divergence_raises_naming_the_round(tmp_path, method):
    sc = scenario(
        tmp_path,
        fl={"rounds": 50, "optimizer": {"kind": "sgd", "lr": 1e4}},
        methods=[method],
    )
    who = r"client c\d+ " if method == "local_only" else ""
    with pytest.raises(NumericError, match=rf"round \d+: {who}"):
        run_methods(load_datasets(sc), sc)
