"""Experiment runner: config round-trips, record schema, CSV emission,
reproducibility, CLI surface."""

import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gmclab import expcli, radial, tailest
from gmclab.errors import ConfigInvalid

# a toy grid and radial config, small enough for unit tests
TOY = dict(gamma=1.0, n_bulk=4, n_bdy=8, N=2000, seed=3, radial_n_theta=8,
           radial_T=4.0)


def test_config_roundtrip():
    cfg = expcli.ExperimentConfig(experiment="max-law", gamma=1.3,
                                  N=1234, seed=99, t_grid=[1.0, 2.5, 10.0])
    back = expcli.ExperimentConfig.from_json(
        json.dumps(dataclasses.asdict(cfg)))
    assert back == cfg
    assert back.config_hash() == cfg.config_hash()


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        expcli.ExperimentConfig(experiment="nope")
    with pytest.raises(ConfigInvalid):
        expcli.ExperimentConfig(gamma=2.5)
    with pytest.raises(ConfigInvalid):
        expcli.ExperimentConfig.from_json('{"bad_key": 1}')
    with pytest.raises(ConfigInvalid):
        expcli.ExperimentConfig.from_json("not json")
    for bad in ({"radial_ds": 0.0}, {"radial_n_theta": 1},
                {"radial_T": -1.0}, {"p_moment": -1.0}, {"q_moment": -0.5},
                {"rho_list": []}, {"rho_list": [0.1]},
                {"rho_list": [0.1, 0.1]}, {"rho_list": [0.1, -0.2]}):
        with pytest.raises(ConfigInvalid):
            expcli.ExperimentConfig(**bad)


def test_run_reproducible(tmp_path):
    cfg = expcli.ExperimentConfig(experiment="max-law", N=200_000, seed=5,
                                  output_dir=str(tmp_path))
    rec1 = expcli.run(cfg)
    rec2 = expcli.run(cfg)
    assert rec1.metrics == rec2.metrics
    assert rec1.config_hash == rec2.config_hash
    # a different seed changes the draw
    cfg2 = dataclasses.replace(cfg, seed=6)
    rec3 = expcli.run(cfg2)
    assert rec3.metrics["ks_distance"] != rec1.metrics["ks_distance"]


def test_record_files_and_schema(tmp_path):
    cfg = expcli.ExperimentConfig(experiment="max-law", N=100_000, seed=1,
                                  output_dir=str(tmp_path))
    rec = expcli.run(cfg)
    out = os.path.dirname(rec.artifacts[0])
    with open(os.path.join(out, "record.json")) as fh:
        payload = json.load(fh)
    for key in ("config_hash", "experiment", "config", "metrics",
                "artifacts", "wall_time", "code_version", "passed"):
        assert key in payload
    assert payload["config"]["N"] == 100_000
    for val in payload["metrics"].values():
        assert isinstance(val, (int, float, bool))


def test_csv_roundtrip(tmp_path):
    val = 0.12345678901234567
    paths = expcli.emit_plotdata(
        {"survival_demo": [(1.5, val, 2e-3)],
         "diagnostic": [("series_a", 1.0, val, 0.0)],
         "empty": []},
        str(tmp_path))
    with open([p for p in paths if "survival_demo" in p][0]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "phat", "stderr"]
    assert float(rows[1][1]) == val  # 17 significant digits round-trip
    with open([p for p in paths if "diagnostic" in p][0]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["series", "x", "y", "yerr"]
    assert float(rows[1][2]) == val
    with open([p for p in paths if "empty" in p][0]) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1  # header only


def test_cli_exit_codes(tmp_path):
    rc = expcli.main(["max-law", "--seed", "5", "--out", str(tmp_path)])
    assert rc == 0
    # config file path
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dataclasses.asdict(expcli.ExperimentConfig(
        experiment="validate-kernels", N=1000))))
    rc = expcli.main(["validate-kernels", "--config", str(cfg_path),
                      "--out", str(tmp_path)])
    assert rc == 0
    # a bad radial or moment setting is a config error, not a traceback
    for experiment, bad in (("quotient-moments", '{"radial_n_theta": 1}'),
                            ("zeta-scaling", '{"p_moment": -1.0}'),
                            ("zeta-scaling", '{"rho_list": []}'),
                            ("zeta-scaling", '{"rho_list": [0.2]}')):
        cfg_path.write_text(bad)
        rc = expcli.main([experiment, "--config", str(cfg_path),
                          "--out", str(tmp_path)])
        assert rc == 2, bad


def test_cli_threads_flag(tmp_path, monkeypatch):
    monkeypatch.delenv("GMCLAB_THREADS", raising=False)
    rc = expcli.main(["validate-kernels", "--threads", "2",
                      "--out", str(tmp_path)])
    assert rc == 0
    assert os.environ["GMCLAB_THREADS"] == "2"


def test_module_entry_point_runs_without_warning():
    """``python -m gmclab`` reaches the command line, without the runpy
    warning that running the eagerly imported ``gmclab.expcli`` gives."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "gmclab", "--help"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_tail_fit_counts_skipped_stability_windows(tmp_path):
    """A t-grid that thins out above t = 40 leaves the upper sliding windows
    of the stability scan with too few curve points; each one is counted in
    record.json instead of vanishing silently."""
    t_grid = list(np.geomspace(3.0, 40.0, 60)) \
        + list(np.geomspace(50.0, 5000.0, 9))
    cfg = expcli.ExperimentConfig(experiment="tail-fit", n_bulk=4, n_bdy=8,
                                  N=4000, seed=3, t_grid=t_grid,
                                  output_dir=str(tmp_path))
    rec = expcli.run(cfg)
    out = os.path.dirname(rec.artifacts[0])
    with open(os.path.join(out, "record.json")) as fh:
        skipped = json.load(fh)["metrics"]["stability_windows_skipped"]
    with open(os.path.join(out, "fit_stability.csv")) as fh:
        fitted = len(list(csv.DictReader(fh)))
    assert 0 < skipped < 8
    assert skipped + fitted == 8  # the scan slides over 8 windows


def test_tail_fit_records_when_every_stability_window_is_skipped(tmp_path):
    """With 45 curve points over 3.2 decades no half-decade window of the
    scan holds enough points; the record is still written, without a
    stability range and with the plateau check failed."""
    cfg = expcli.ExperimentConfig(experiment="tail-fit", n_bulk=4, n_bdy=8,
                                  N=4000, seed=3,
                                  t_grid=list(np.geomspace(3.0, 5000.0, 45)),
                                  output_dir=str(tmp_path))
    rec = expcli.run(cfg)
    out = os.path.dirname(rec.artifacts[0])
    with open(os.path.join(out, "record.json")) as fh:
        written = json.load(fh)
    metrics = written["metrics"]
    assert metrics["stability_windows_skipped"] == 8
    assert metrics["plateau_contains_target"] is False
    assert "stability_min" not in metrics and "stability_max" not in metrics
    assert written["passed"] is False


def test_two_route_record_holds_the_tail_fit_metrics(tmp_path):
    """constant-two-route runs tail-fit's grid half on identical inputs and
    reports its metrics with the same helper, so its record agrees with the
    tail-fit record exactly on every tail-fit metric; criterion 06 reads its
    gamma = 1 exponent and plateau flag from the constant-two-route run."""
    fit, two = (expcli.run(expcli.ExperimentConfig(
        experiment=name, output_dir=str(tmp_path), **TOY)).metrics
        for name in ("tail-fit", "constant-two-route"))
    assert {"exponent", "plateau_contains_target"} <= fit.keys()
    assert {key: two[key] for key in fit} == fit


def test_grid_records_carry_the_exact_second_moment(tmp_path):
    """tail-fit records the exact E[M^2] and its diagonal share; perturbed-g
    records both for each kernel, and a constant g = c scales every
    covariance entry's exponential, so E[M^2] by exactly e^{gamma^2 c}."""
    fit = expcli.run(expcli.ExperimentConfig(
        experiment="tail-fit", output_dir=str(tmp_path), **TOY)).metrics
    cfg = expcli.ExperimentConfig(experiment="perturbed-g",
                                  output_dir=str(tmp_path), **TOY)
    pert = expcli.run(cfg).metrics
    for key in ("second_moment", "second_moment_diag_share"):
        assert pert[f"{key}_exact_kernel"] == fit[key]
    assert 0.0 < fit["second_moment_diag_share"] < 1.0
    assert pert["second_moment_perturbed_kernel"] == pytest.approx(
        np.exp(cfg.gamma ** 2 * cfg.g_const) * fit["second_moment"],
        rel=1e-12)
    assert pert["second_moment_diag_share_perturbed_kernel"] == \
        pytest.approx(fit["second_moment_diag_share"], rel=1e-12)


def test_quotient_moments_draws_the_radial_sample_once(tmp_path,
                                                        monkeypatch):
    """One ``sample_joint`` call feeds the eq-11 moment and both
    window diagnostics."""
    calls = []
    draw = radial.RadialSampler.sample_joint

    def counted(self, seed, n, want_truncated=True):
        calls.append((seed, n, want_truncated))
        return draw(self, seed, n, want_truncated)

    monkeypatch.setattr(radial.RadialSampler, "sample_joint", counted)
    rec = expcli.run(expcli.ExperimentConfig(
        experiment="quotient-moments", output_dir=str(tmp_path),
        **{**TOY, "N": 500}))
    assert calls == [(3, 500, True)]
    assert rec.metrics["inside_window_finite_predicted"]


def test_records_hold_the_capped_draw_counts(tmp_path):
    """tail-fit draws at most 20,000 calibration fields and zeta-scaling at
    most 30,000 grid fields per rho; a run with N above the cap records the
    count it drew, beside the configured N of the config echo."""
    for experiment, key, n, drawn in (
            ("tail-fit", "n_calibration_draws", 20_001, 20_000),
            ("tail-fit", "n_calibration_draws", 1_500, 1_500),
            ("zeta-scaling", "n_grid_draws", 30_001, 30_000)):
        rec = expcli.run(expcli.ExperimentConfig(
            experiment=experiment, output_dir=str(tmp_path),
            rho_list=[0.1, 0.2], **{**TOY, "N": n}))
        record = json.loads((tmp_path / f"{experiment}-{rec.config_hash}"
                             / "record.json").read_text())
        assert record["config"]["N"] == n
        assert record["metrics"][key] == drawn


@pytest.mark.parametrize("gamma", [0.8, 1.0, 1.2])
def test_inside_window_diagnostic_has_finite_variance(tmp_path, gamma):
    """The inside-window quotient moment's square moment is finite too, so
    its recorded stderr estimates a finite standard deviation."""
    m = expcli.run(expcli.ExperimentConfig(
        experiment="quotient-moments", output_dir=str(tmp_path),
        **{**TOY, "N": 500, "gamma": gamma})).metrics
    p_in, q_in = m["inside_window_p"], 1.0
    assert tailest.quotient_finite_predicted(p_in, q_in, gamma)
    assert tailest.quotient_finite_predicted(2 * p_in, 2 * q_in, gamma)
    assert m["inside_window_estimate_stderr"] > 0


def test_metrics_must_be_finite():
    rec = expcli.ResultRecord(
        config_hash="x", experiment="max-law", config={},
        metrics={"bad": float("nan")}, artifacts=[], wall_time=0.0,
        code_version="0", passed=True)
    with pytest.raises(Exception):
        rec.validate()
    rec_ok = dataclasses.replace(
        rec, metrics={"ok": 1.0, "tail_divergent_diag": float("inf")})
    rec_ok.validate()
