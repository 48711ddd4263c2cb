"""Metrics, feeder aggregation, comparison harness."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import check_personalization_against_reference
from fedforecast.config import load_datasets, scenario_from_tree
from fedforecast.data import ClientDataset, TimeSeries, save_csv
from fedforecast.errors import (
    AlignmentError,
    ConfigError,
    InsufficientDataError,
    NumericError,
    ShapeError,
)
from fedforecast.evaluation import (
    COMPARISON_CSV_HEADER,
    _Harness,
    compute_metrics,
    run_comparison,
    run_methods,
)
from fedforecast.serialize import to_csv_text


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


@pytest.mark.parametrize("kind, lr_scale", [("linear", 0.1), ("mlp", 50.0)])
def test_every_personalized_model_equals_the_reference(tmp_path, monkeypatch, kind, lr_scale):
    # Meters starting at different hours give the harness several stores;
    # lr_scale 50 makes personalization backtrack.
    checked = check_personalization_against_reference(monkeypatch)
    methods = ["fedavg_personalized", "hc_personalized", "ifca_personalized"]
    sc = scenario(
        tmp_path,
        model={"kind": kind, "lag": 8, "horizon": 1, "hidden": 4},
        personalization={"epochs": 3, "lr_scale": lr_scale},
        methods=methods,
    )
    datasets = []
    for ds, start in zip(load_datasets(sc), (0, 0, 24, 5)):
        series = TimeSeries(ds.series.start_epoch_hours + start, ds.series.values[start:])
        covariates = {name: cov[start:] for name, cov in ds.covariates.items()}
        datasets.append(replace(ds, series=series, covariates=covariates))
    assert sorted(run_methods(datasets, sc)) == methods
    assert checked == [ds.client_id for ds in datasets] * 3


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


# ------------------------------------------------------- feeder aggregation


def feeder_oracle(harness, method):
    """compute_metrics of each feeder's summed test forecasts (pred and
    actual), in feeder order."""
    models = harness.models_for(method)
    sums = {}
    for client in harness.eval_clients(method):
        pred, actual, _ = client.test_forecast(models[client.client_id])
        total = sums.setdefault(client.feeder_id, [0.0, 0.0])
        total[0] = total[0] + pred
        total[1] = total[1] + actual
    return [compute_metrics(*sums[feeder]) for feeder in sorted(sums)]


@pytest.mark.parametrize("method", ["local_only", "centralized", "fedavg"])
def test_feeder_row_averages_summed_feeder_forecasts(tmp_path, method):
    sc = scenario(
        tmp_path,
        population={"n_clients": 5, "archetypes": 2, "days": 10, "feeders": 2, "seed": 3},
        methods=[method],
    )
    harness = _Harness(load_datasets(sc), sc)
    row = harness.outcome(method).row
    feeders = feeder_oracle(harness, method)
    assert len(feeders) == 2
    for name in ("mae", "rmse", "mape", "nrmse"):
        want = np.mean([getattr(m, name) for m in feeders])
        assert getattr(row.feeder, name) == pytest.approx(want, rel=1e-12)
    assert row.feeder.excluded_points == sum(m.excluded_points for m in feeders)


def test_one_member_feeders_equal_their_client(tmp_path):
    sc = scenario(
        tmp_path,
        population={"n_clients": 4, "archetypes": 2, "days": 10, "feeders": 4, "seed": 3},
    )
    for outcome in run_methods(load_datasets(sc), sc).values():
        assert outcome.row.feeder == outcome.row.mean


def ingest(tmp_path, datasets, methods=("local_only", "fedavg")):
    """The datasets written as a meter CSV and read back, with a small
    scenario that ingests them (every client on feeder F0)."""
    path = str(tmp_path / "meters.csv")
    save_csv(datasets, path)
    sc = scenario_from_tree(
        {"output_dir": str(tmp_path), "ingest": {"path": path}, "model": {"lag": 8},
         "fl": {"rounds": 2}, "methods": list(methods)}
    )
    return load_datasets(sc), sc


def staggered(tmp_path, starts, ends=(0, 0, 0, 0)):
    """The harness scenario's clients, each cut to begin ``starts[i]`` hours
    later and end ``ends[i]`` hours earlier (values only, no covariates)."""
    cut = []
    for ds, start, end in zip(load_datasets(scenario(tmp_path)), starts, ends):
        values = ds.series.values[start : len(ds.series) - end]
        series = TimeSeries(ds.series.start_epoch_hours + start, values)
        cut.append(ClientDataset(ds.client_id, series))
    return cut


def shared_feeder_oracle(harness, method):
    """compute_metrics per feeder over the test samples whose timestamps
    every member of the feeder has, in feeder order; None for a feeder whose
    members share none."""
    models = harness.models_for(method)
    members = {}
    for client in harness.eval_clients(method):
        members.setdefault(client.feeder_id, []).append(
            client.test_forecast(models[client.client_id])
        )
    out = []
    for feeder in sorted(members):
        forecasts = members[feeder]
        shared = set(forecasts[0][2].tolist()).intersection(*(f[2].tolist() for f in forecasts))
        if not shared:
            out.append(None)
            continue
        pred = actual = 0.0
        for p, a, stamps in forecasts:
            rows = [i for i, t in enumerate(stamps.tolist()) if t in shared]
            pred, actual = pred + p[rows], actual + a[rows]
        out.append(compute_metrics(pred, actual))
    return out


@pytest.mark.parametrize("method", ["local_only", "centralized", "fedavg"])
def test_staggered_ingested_meters_score_the_feeder_on_shared_hours(tmp_path, method):
    meters = staggered(tmp_path, (0, 0, 24, 5), ends=(0, 7, 0, 3))
    datasets, sc = ingest(tmp_path, meters, [method])
    harness = _Harness(datasets, sc)
    windows = [c.test_forecast(harness.models_for(method)[c.client_id])[2]
               for c in harness.eval_clients(method)]
    assert len({w.size for w in windows}) > 1  # the test windows differ
    (feeder,) = shared_feeder_oracle(harness, method)
    assert harness.outcome(method).row.feeder == feeder


def test_feeder_whose_members_share_no_test_hour_is_left_out(tmp_path):
    base = load_datasets(scenario(tmp_path))
    moved = [replace(ds, feeder_id="F0") for ds in base[:2]]
    moved += [replace(ds, feeder_id="F1") for ds in base[2:3]]
    late = base[3].series
    moved.append(replace(base[3], feeder_id="F1",
                         series=TimeSeries(late.start_epoch_hours + 10_000, late.values)))
    sc = scenario(tmp_path, methods=["local_only"])
    harness = _Harness(moved, sc)
    f0, f1 = shared_feeder_oracle(harness, "local_only")
    assert f1 is None
    assert harness.outcome("local_only").row.feeder == f0


def test_no_feeder_sharing_a_test_hour_raises(tmp_path):
    base = load_datasets(scenario(tmp_path))
    apart = [
        replace(ds, series=TimeSeries(ds.series.start_epoch_hours + 1000 * i, ds.series.values))
        for i, ds in enumerate(base)
    ]
    with pytest.raises(AlignmentError) as err:
        run_methods(apart, scenario(tmp_path, methods=["local_only"]))
    assert str(err.value) == "no feeder has a test hour shared by all its members (feeders F0)"


# ------------------------------------------------------ ingested edge cases


def test_ingested_client_too_short_is_named(tmp_path):
    meters = staggered(tmp_path, (0, 0, 0, 235))  # the last keeps 5 hours
    datasets, sc = ingest(tmp_path, meters)
    with pytest.raises(InsufficientDataError) as err:
        run_methods(datasets, sc)
    assert str(err.value) == (
        f"client {meters[3].client_id}: 5 values yield -3 samples; need >= 3 to split"
    )


def test_ingested_constant_and_all_zero_meters_compare(tmp_path):
    meters = staggered(tmp_path, (0, 0, 0, 0))[:2]
    hours = len(meters[0].series)
    meters.append(ClientDataset("flat", TimeSeries(0, np.full(hours, 2.5))))
    meters.append(ClientDataset("pv", TimeSeries(0, np.zeros(hours))))
    datasets, sc = ingest(tmp_path, meters, ["local_only", "centralized", "fedavg"])
    for outcome in run_methods(datasets, sc).values():
        pv, flat = outcome.per_client["pv"], outcome.per_client["flat"]
        assert pv.mape is None and pv.nrmse is None
        assert pv.excluded_points > 0
        assert np.isfinite([pv.mae, flat.mae, flat.rmse, flat.mape]).all()
        assert outcome.row.mean.mape is not None  # the other meters have one
