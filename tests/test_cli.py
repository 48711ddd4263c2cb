"""Command-line interface: subcommands, outputs, exit codes, determinism."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fedforecast
from fedforecast.cli import execute
from fedforecast.data import CsvSchema, load_csv

PYPROJECT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml"
)


def write_config(tmp_path, extra="", n_clients=4, days=10, rounds=4, lr=0.05,
                 methods="[fedavg, local_only]"):
    out_dir = tmp_path / "out"
    path = tmp_path / "scenario.yaml"
    path.write_text(
        f"seed: 3\n"
        f"output_dir: {out_dir}\n"
        f"population:\n"
        f"  n_clients: {n_clients}\n"
        f"  archetypes: 2\n"
        f"  days: {days}\n"
        f"model:\n"
        f"  lag: 8\n"
        f"fl:\n"
        f"  rounds: {rounds}\n"
        f"  optimizer:\n"
        f"    lr: {lr}\n"
        f"cluster:\n"
        f"  tau: 0.5\n"
        f"  warmup: 1\n"
        f"  k: 2\n"
        f"methods: {methods}\n"
        + extra
    )
    return str(path), out_dir


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


# ---------------------------------------------------------------- generate


def test_generate_writes_loadable_dataset(tmp_path):
    config, out_dir = write_config(tmp_path)
    assert execute(["generate", "--config", config]) == 0
    schema = CsvSchema(
        covariates={"irradiance": "irradiance", "temperature": "temperature"}
    )
    datasets = load_csv(str(out_dir / "dataset.csv"), schema)
    assert len(datasets) == 4
    assert all(len(ds.series) == 10 * 24 for ds in datasets)


def test_generate_honors_out_flag(tmp_path):
    config, _ = write_config(tmp_path)
    alt = tmp_path / "elsewhere"
    assert execute(["generate", "--config", config, "--out", str(alt)]) == 0
    assert (alt / "dataset.csv").exists()


# --------------------------------------------------------------------- run


def test_run_writes_trace_and_result(tmp_path):
    config, out_dir = write_config(tmp_path)
    assert execute(["run", "--config", config, "--method", "fedavg"]) == 0
    csv_path = out_dir / "run_fedavg_seed3.csv"
    json_path = out_dir / "run_fedavg_seed3.json"
    assert csv_path.exists() and json_path.exists()
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "round,val_loss,bytes_up,bytes_down,n_participants,n_clusters"
    assert len(lines) == 1 + 4  # header + rounds
    assert '"method": "fedavg"' in json_path.read_text()


def test_run_seed_override_in_filenames(tmp_path):
    config, out_dir = write_config(tmp_path)
    assert execute(["run", "--config", config, "--method", "local_only",
                    "--seed", "11"]) == 0
    assert (out_dir / "run_local_only_seed11.csv").exists()


def test_run_rerun_byte_identical(tmp_path):
    config, out_dir = write_config(tmp_path)
    argv = ["run", "--config", config, "--method", "ifca"]
    assert execute(argv) == 0
    first_csv = read_bytes(out_dir / "run_ifca_seed3.csv")
    first_json = read_bytes(out_dir / "run_ifca_seed3.json")
    assert execute(argv) == 0
    assert read_bytes(out_dir / "run_ifca_seed3.csv") == first_csv
    assert read_bytes(out_dir / "run_ifca_seed3.json") == first_json


def test_missing_config_exits_one_with_diagnostic(tmp_path, capsys):
    assert execute(["run", "--config", str(tmp_path / "nope.yaml"),
                    "--method", "fedavg"]) == 1
    assert "nope.yaml" in capsys.readouterr().err


def test_bad_config_value_exits_one(tmp_path, capsys):
    config, _ = write_config(tmp_path, lr=-0.1)
    assert execute(["compare", "--config", config]) == 1
    assert "fl.optimizer.lr" in capsys.readouterr().err


def test_gapped_csv_ingestion_exits_two(tmp_path, capsys):
    data = tmp_path / "meters.csv"
    data.write_text(
        "timestamp,client_id,value_kw\n"
        "2024-01-01T00:00:00+00:00,c0,1\n"
        "2024-01-01T02:00:00+00:00,c0,2\n"
    )
    config = tmp_path / "scenario.yaml"
    config.write_text(
        f"seed: 0\noutput_dir: {tmp_path / 'out'}\n"
        f"ingest:\n  path: {data}\n"
        "methods: [local_only]\n"
    )
    assert execute(["run", "--config", str(config), "--method", "local_only"]) == 2
    assert "c0" in capsys.readouterr().err


def test_divergence_exits_three_naming_round(tmp_path, capsys):
    config, _ = write_config(tmp_path, rounds=400, lr=10.0, methods="[fedavg]")
    assert execute(["run", "--config", config, "--method", "fedavg"]) == 3
    err = capsys.readouterr().err
    assert "round" in err


# ----------------------------------------------------------------- compare


def test_compare_writes_both_tables(tmp_path):
    config, out_dir = write_config(tmp_path)
    assert execute(["compare", "--config", config]) == 0
    assert (out_dir / "comparison.csv").exists()
    assert (out_dir / "comparison.json").exists()
    lines = (out_dir / "comparison.csv").read_text().strip().split("\n")
    assert lines[0].startswith("seed,method,mean_mae")
    assert len(lines) == 1 + 2  # one seed, two methods


def test_compare_multiple_seeds_in_given_order(tmp_path):
    config, out_dir = write_config(tmp_path)
    assert execute(["compare", "--config", config, "--seeds", "5,2"]) == 0
    rows = (out_dir / "comparison.csv").read_text().strip().split("\n")[1:]
    assert [r.split(",")[0] for r in rows] == ["5", "5", "2", "2"]


def test_compare_rerun_byte_identical(tmp_path):
    config, out_dir = write_config(tmp_path)
    argv = ["compare", "--config", config, "--seeds", "4,9"]
    assert execute(argv) == 0
    csv_first = read_bytes(out_dir / "comparison.csv")
    json_first = read_bytes(out_dir / "comparison.json")
    assert execute(argv) == 0
    assert read_bytes(out_dir / "comparison.csv") == csv_first
    assert read_bytes(out_dir / "comparison.json") == json_first


# ------------------------------------------------------------------- sweep


def test_sweep_writes_per_point_tables_and_tradeoff(tmp_path):
    config, out_dir = write_config(
        tmp_path, extra="dp:\n  clip_norm: 1.0\n  sigma: 0.0\n"
    )
    assert execute(["sweep", "--config", config, "--param", "dp.sigma",
                    "--values", "0.0,0.5"]) == 0
    sweep_dir = out_dir / "sweep_dp_sigma"
    assert (sweep_dir / "0.0" / "comparison.csv").exists()
    assert (sweep_dir / "0.5" / "comparison.json").exists()
    tradeoff = (sweep_dir / "tradeoff.csv").read_text().strip().split("\n")
    assert tradeoff[0].startswith("param,value,method")
    assert len(tradeoff) == 1 + 2 * 2  # two points, two methods


def test_sweep_can_introduce_missing_block(tmp_path):
    # Sweeping a parameter whose block is absent from the file creates it.
    config, out_dir = write_config(tmp_path, methods="[local_only]")
    assert execute(["sweep", "--config", config, "--param",
                    "personalization.epochs", "--values", "1,2"]) == 0
    assert (out_dir / "sweep_personalization_epochs" / "tradeoff.csv").exists()


def test_sweep_takes_exponent_values(tmp_path):
    # YAML 1.1 reads 1e-3 as a string; the number field still takes it.
    config, out_dir = write_config(tmp_path, methods="[local_only]")
    assert execute(["sweep", "--config", config, "--param", "fl.optimizer.lr",
                    "--values", "1e-3,2e-2"]) == 0
    tradeoff = (out_dir / "sweep_fl_optimizer_lr" / "tradeoff.csv").read_text()
    assert [line.split(",")[1] for line in tradeoff.strip().split("\n")[1:]] == ["1e-3", "2e-2"]
    points = [(out_dir / "sweep_fl_optimizer_lr" / v / "comparison.csv").read_text()
              for v in ("1e-3", "2e-2")]
    assert points[0] != points[1]


def test_sweep_invalid_value_exits_one(tmp_path, capsys):
    config, _ = write_config(tmp_path)
    assert execute(["sweep", "--config", config, "--param", "fl.rounds",
                    "--values", "0"]) == 1
    assert "fl.rounds" in capsys.readouterr().err


# ------------------------------------------------------------------ hygiene


def test_outputs_confined_to_output_dir(tmp_path, monkeypatch):
    config, out_dir = write_config(tmp_path)
    scratch = tmp_path / "cwd"
    scratch.mkdir()
    monkeypatch.chdir(scratch)
    assert execute(["compare", "--config", config]) == 0
    assert os.listdir(scratch) == []
    assert sorted(os.listdir(out_dir)) == ["comparison.csv", "comparison.json"]


SUBCOMMANDS = ("generate", "run", "compare", "sweep")


def assert_help_lists_subcommands(proc):
    assert proc.returncode == 0, proc.stderr
    # argparse lists the subcommands as "{generate,run,...}" in the usage
    # line; a bare substring check would let "run" match the help texts.
    choices = re.search(r"\{([^}]*)\}", proc.stdout)
    assert choices, proc.stdout
    assert set(SUBCOMMANDS) <= set(choices.group(1).split(","))


def declared_console_script():
    """The ``module:attr`` target of the ``fedforecast`` console script."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert "fedforecast" in scripts
    module, _, attr = scripts["fedforecast"].partition(":")
    return module.strip(), attr.strip()


def test_console_script_installed():
    # Run the declared target through the wrapper setuptools writes for a
    # console script, so the check needs no installed ``fedforecast`` binary.
    module, attr = declared_console_script()
    wrapper = (
        f"import sys\n"
        f"from {module} import {attr.split('.')[0]}\n"
        f"sys.exit({attr}())\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(fedforecast.__file__))
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert_help_lists_subcommands(proc)


@pytest.mark.skipif(
    shutil.which("fedforecast") is None,
    reason="fedforecast console script not on PATH (package not pip-installed)",
)
def test_console_script_on_path():
    proc = subprocess.run(
        [shutil.which("fedforecast"), "--help"], capture_output=True, text=True
    )
    assert_help_lists_subcommands(proc)


def edit_config(config, old, new):
    path = Path(config)
    path.write_text(path.read_text().replace(old, new))


def test_output_dir_under_a_file_exits_one(tmp_path, capsys):
    config, out_dir = write_config(tmp_path)
    edit_config(config, f"output_dir: {out_dir}", f"output_dir: {config}/out")
    for argv in (["compare", "--config", config], ["generate", "--config", config]):
        assert execute(argv) == 1
        assert "error: cannot write" in capsys.readouterr().err


def ingest_config(tmp_path):
    """A config that reads meters from tmp_path/data/dataset.csv."""
    config, out_dir = write_config(tmp_path, n_clients=2, rounds=2, methods="[local_only]")
    assert execute(["generate", "--config", config, "--out", str(tmp_path / "data")]) == 0
    edit_config(
        config,
        "population:\n  n_clients: 2\n  archetypes: 2\n  days: 10\n",
        f"ingest:\n  path: {tmp_path / 'data' / 'dataset.csv'}\n",
    )
    return config, out_dir


def test_non_utf8_csv_exits_two_naming_the_line(tmp_path, capsys):
    config, _ = ingest_config(tmp_path)
    data = tmp_path / "data" / "dataset.csv"
    lines = data.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b",c", b",\xffc", 1)
    data.write_bytes(b"".join(lines))
    assert execute(["compare", "--config", config]) == 2
    assert capsys.readouterr().err == "error: line 3: text is not UTF-8 (invalid start byte)\n"


def test_sweep_rejects_values_that_escape_the_sweep_dir(tmp_path, capsys):
    config, _ = ingest_config(tmp_path)
    before = sorted(os.walk(tmp_path))
    for literal in ("../../data/dataset.csv", "..", ".", str(tmp_path / "data" / "dataset.csv")):
        argv = ["sweep", "--config", config, "--param", "ingest.path", "--values",
                f"{tmp_path / 'data' / 'dataset.csv'},{literal}"]
        assert execute(argv) == 1
        assert "would write outside" in capsys.readouterr().err
    assert sorted(os.walk(tmp_path)) == before  # rejected before anything was written


def test_sweep_accepts_nested_value_paths(tmp_path, monkeypatch):
    config, out_dir = ingest_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert execute(["sweep", "--config", config, "--param", "ingest.path",
                    "--values", "data/dataset.csv"]) == 0
    assert (out_dir / "sweep_ingest_path" / "data" / "dataset.csv" / "comparison.csv").exists()
