import json
import logging

import numpy as np
import pytest

from sqvi import runner
from sqvi.cli import main as cli_main
from sqvi.errors import ConfigError, UnknownKey
from sqvi.problems import build_problem
from sqvi.runner import parse_config, run_experiment

MINIMAL = {
    "problem": "translated_box",
    "solver": "ieg",
    "eta": 0.1,
    "alpha": 0.5,
    "b": 0.5,
    "schedule": "deterministic",
    "T": 100,
    "seed": 1,
}


def test_minimal_config_is_valid():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.T == 100 and cfg.solver == "ieg"


def test_rho_must_exceed_one_minus_q():
    bad = dict(MINIMAL, schedule="increasing", rho=0.3, eta=0.64, alpha=0.9, b=2.0)
    with pytest.raises(ConfigError, match="rho must exceed 1-q"):
        parse_config(json.dumps(bad))


def test_validate_rejects_schedules_the_run_cannot_evaluate():
    # out-of-range coupled game: no q, so a deterministic schedule without rho
    # has no inner budget at iteration 0
    coupled = {
        "problem": "coupled_sp",
        "problem_params": {"coupling": {"a_u": [1.0], "a_w": [1.0], "c": -0.5}},
        "solver": "ieg",
        "eta": 0.5,
        "alpha": 0.5,
        "b": 0.5,
        "schedule": "deterministic",
        "T": 5,
        "allow_out_of_range": True,
    }
    with pytest.raises(ConfigError, match="needs rho or q"):
        parse_config(json.dumps(coupled))
    # rho^(-2k) overflows a float for rho = 0.9 beyond k = 3368
    long_run = dict(MINIMAL, schedule="increasing", rho=0.9, eta=0.64, alpha=0.9, b=2.0, T=4000)
    with pytest.raises(ConfigError, match="iteration 3369"):
        parse_config(json.dumps(long_run))
    parse_config(json.dumps(dict(long_run, T=3369)))
    with pytest.raises(ConfigError, match="batch size"):
        parse_config(json.dumps(dict(MINIMAL, schedule="constant")))
    # a ratio above 1 would shrink the inner budgets
    with pytest.raises(ConfigError, match=r"rho must lie in \(0,1\)"):
        parse_config(json.dumps(dict(MINIMAL, rho=1.5)))
    # a fractional batch would run with its integer part
    with pytest.raises(ConfigError, match="integer batch size"):
        parse_config(json.dumps(dict(MINIMAL, schedule="constant", batch=2.5)))
    # a decay of zero or below would floor every inner budget to 1
    for decay in (-0.5, 0):
        with pytest.raises(ConfigError, match="decay > 0"):
            parse_config(json.dumps(dict(MINIMAL, schedule="damped", decay=decay)))


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", "a"),
        ("T", "10"),
        ("replicates", "2"),
        ("rho", "0.995"),
        ("report_epsilons", 5),
        ("report_epsilons", "abc"),
        ("floor", {"metric": "dist", "value": "x"}),
        ("floor", {"metric": "lower_subopt", "value": 1e-3}),  # the box records no lower_subopt
        ("metrics", 5),
        # JSON booleans are not numbers, though Python counts them as ints
        ("T", True),
        ("eta", True),
        ("seed", True),
    ],
)
def test_malformed_values_are_config_errors(tmp_path, capsys, key, value):
    text = json.dumps({**MINIMAL, "T": 3, key: value})
    with pytest.raises(ConfigError, match=key):
        parse_config(text)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert cli_main(["validate", str(cfg_path)]) == 1
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.count("config error:") == 2


def test_one_problem_build_per_run(tmp_path, monkeypatch):
    calls = []

    def counting_build(*args, **kwargs):
        calls.append(args)
        return build_problem(*args, **kwargs)

    monkeypatch.setattr(runner, "build_problem", counting_build)
    run_experiment(parse_config(json.dumps(dict(MINIMAL, T=3))), out_dir=str(tmp_path / "out"))
    assert len(calls) == 1


def test_unknown_key_strict_vs_lenient():
    cfg = dict(MINIMAL, tpyo=1)
    with pytest.raises(UnknownKey):
        parse_config(json.dumps(cfg), strict=True)
    parsed = parse_config(json.dumps(cfg), strict=False)
    assert parsed.problem == "translated_box"
    # "strict" is a command-line option, not a config key
    cfg = dict(MINIMAL, strict=True)
    with pytest.raises(UnknownKey):
        parse_config(json.dumps(cfg), strict=True)
    assert parse_config(json.dumps(cfg), strict=False).problem == "translated_box"


def test_missing_key_diagnostic():
    bad = {k: v for k, v in MINIMAL.items() if k != "eta"}
    with pytest.raises(ConfigError, match="eta"):
        parse_config(json.dumps(bad))


def test_unknown_metric_rejected():
    with pytest.raises(ConfigError, match="metric"):
        parse_config(json.dumps(dict(MINIMAL, metrics=["dist", "bogus"])))


COUPLED = {
    "problem": "coupled_sp",
    "problem_params": {"coupling": {"a_u": [1.0], "a_w": [1.0], "c": -0.5}},
    "solver": "ieg",
    "eta": 0.5,
    "alpha": 0.5,
    "b": 0.5,
    "schedule": "deterministic",
    "rho": 0.9,
    "T": 5,
    "allow_out_of_range": True,
}


@pytest.mark.parametrize(
    "base, metrics",
    [(COUPLED, ["residual", "lower_subopt"]), (COUPLED, ["dist"]), (MINIMAL, ["dist", "lower_subopt"])],
    ids=["coupled-lower_subopt", "coupled-dist", "box-lower_subopt"],
)
def test_metrics_the_problem_cannot_compute_are_config_errors(tmp_path, base, metrics):
    text = json.dumps(dict(base, metrics=metrics))
    with pytest.raises(ConfigError, match="not computable"):
        parse_config(text)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert cli_main(["validate", str(cfg_path)]) == 1
    parse_config(json.dumps(dict(base, metrics=["residual"])))


def test_preset_loads_table_values():
    cfg = parse_config(json.dumps({"preset": "table1-synthetic", "T": 5}))
    assert cfg.problem == "regression_game"
    assert cfg.eta == 1e-2 and cfg.alpha == 0.9 and cfg.b == 1.2
    assert cfg.schedule == "damped"
    assert cfg.allow_out_of_range


def test_run_writes_trace_with_t_rows(tmp_path):
    cfg = parse_config(json.dumps(MINIMAL))
    art = run_experiment(cfg, out_dir=str(tmp_path / "out"))
    lines = open(art.trace_paths[0]).read().strip().split("\n")
    assert lines[0] == "k,N_k,t_k,cum_samples,cum_inner,dist,residual,lower_subopt,wall_ms"
    assert len(lines) == 101
    # distance column trends monotonically down for the deterministic run
    dist = np.array([float(l.split(",")[5]) for l in lines[1:]])
    assert np.all(np.diff(dist) <= 1e-12)
    assert dist[-1] < 0.05 * dist[0]


def test_rerun_is_byte_identical(tmp_path):
    cfg = parse_config(
        json.dumps(
            {
                "problem": "translated_box",
                "problem_params": {"noise_level": 0.4},
                "solver": "ieg",
                "eta": 0.6,
                "alpha": 0.8,
                "b": 1.0,
                "schedule": "increasing",
                "rho": 0.9,
                "T": 25,
                "seed": 9,
                "replicates": 3,
            }
        )
    )
    a = run_experiment(cfg, out_dir=str(tmp_path / "a"))
    b = run_experiment(cfg, out_dir=str(tmp_path / "b"))
    for pa, pb in zip(a.trace_paths + (a.mean_path,), b.trace_paths + (b.mean_path,)):
        assert open(pa, "rb").read() == open(pb, "rb").read()


def test_mean_csv_is_elementwise_average(tmp_path):
    cfg = parse_config(
        json.dumps(
            {
                "problem": "translated_box",
                "problem_params": {"noise_level": 0.4},
                "solver": "ig",
                "eta": 0.6,
                "alpha": 0.8,
                "schedule": "increasing",
                "rho": 0.9,
                "T": 15,
                "seed": 2,
                "replicates": 4,
                "metrics": ["dist"],
            }
        )
    )
    art = run_experiment(cfg, out_dir=str(tmp_path / "m"))
    reps = [np.genfromtxt(p, delimiter=",", names=True) for p in art.trace_paths]
    mean = np.genfromtxt(art.mean_path, delimiter=",", names=True)
    np.testing.assert_allclose(
        mean["dist"], np.mean([r["dist"] for r in reps], axis=0), atol=1e-12
    )


def test_manifest_round_trip(tmp_path):
    shaped = {"floor": {"metric": "dist", "value": 1e-12}, "metrics": ["dist", "residual"], "report_epsilons": [1e-3]}
    cfg = parse_config(json.dumps(dict(MINIMAL, T=20, **shaped)))
    a = run_experiment(cfg, out_dir=str(tmp_path / "a"))
    manifest = open(a.manifest_path).read()
    written = json.loads(manifest)["config"]
    assert {key: written[key] for key in shaped} == shaped
    cfg2 = parse_config(manifest)
    assert cfg2 == cfg
    b = run_experiment(cfg2, out_dir=str(tmp_path / "b"))
    assert open(a.trace_paths[0], "rb").read() == open(b.trace_paths[0], "rb").read()


def test_wall_column_empty_by_default(tmp_path):
    cfg = parse_config(json.dumps(dict(MINIMAL, T=5)))
    art = run_experiment(cfg, out_dir=str(tmp_path / "w"))
    for line in open(art.trace_paths[0]).read().strip().split("\n")[1:]:
        assert line.endswith(",")
    assert "timing" not in json.load(open(art.summary_path))


def test_record_timing_writes_timing_to_summary(tmp_path):
    cfg = parse_config(json.dumps(dict(MINIMAL, T=5, replicates=2, record_timing=True)))
    art = run_experiment(cfg, out_dir=str(tmp_path / "t"))
    timing = json.load(open(art.summary_path))["timing"]
    assert timing["build_s"] >= 0.0 and len(timing["solve_s"]) == 2 and min(timing["solve_s"]) >= 0.0


def test_floor_and_epsilon_reporting(tmp_path):
    cfg = parse_config(
        json.dumps(
            dict(
                MINIMAL,
                eta=0.64,
                alpha=0.9,
                b=2.0,
                T=60,
                metrics=["dist"],
                floor={"metric": "dist", "value": 1e-8},
                report_epsilons=[1e-2, 1e-4],
            )
        )
    )
    art = run_experiment(cfg, out_dir=str(tmp_path / "f"))
    rows = open(art.trace_paths[0]).read().strip().split("\n")[1:]
    assert len(rows) < 60  # the floor stopped the run early
    assert float(rows[-1].split(",")[5]) <= 1e-8
    crossings = art.summary["epsilon_crossings"]
    assert crossings["0.01"]["outer_iterations"] >= 1
    assert crossings["0.0001"]["total_samples"] >= crossings["0.01"]["total_samples"]
    crossed = rows[crossings["0.01"]["outer_iterations"] - 1].split(",")
    assert crossings["0.01"]["cum_samples"] == int(crossed[3])


def test_summary_reports_inner_work(tmp_path):
    # scheduled work is the t_k column summed over both IEG projections;
    # consumed work is the last cum_inner, below it once FISTA stops early
    cfg = parse_config(
        json.dumps(
            {"preset": "table1-synthetic", "T": 6, "schedule": "deterministic", "rho": 0.5, "metrics": ["lower_subopt"]}
        )
    )
    art = run_experiment(cfg, out_dir=str(tmp_path / "w"))
    rows = open(art.trace_paths[0]).read().strip().split("\n")[1:]
    entry = art.summary["replicates"][0]
    assert entry["inner_scheduled"] == 2 * sum(int(r.split(",")[2]) for r in rows)
    assert entry["inner_consumed"] == int(rows[-1].split(",")[4])
    assert entry["inner_consumed"] < entry["inner_scheduled"]


@pytest.mark.parametrize(
    "schedule, rho", [("deterministic", None), ("increasing", None), ("increasing", 0.95), ("damped", None)]
)
def test_outputs_record_effective_rho(tmp_path, schedule, rho):
    # an omitted rho is max(1 - q + 0.05, 0.9); damped budgets have no rho
    cfg = parse_config(json.dumps(dict(MINIMAL, eta=0.64, alpha=0.9, b=2.0, T=2, schedule=schedule, rho=rho)))
    art = run_experiment(cfg, out_dir=str(tmp_path / "r"))
    q = cfg.validated.params.q
    expected = {"damped": None}.get(schedule, rho or max(1.0 - q + 0.05, 0.9))
    with open(art.manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["config"]["rho"] == rho
    assert manifest["derived"]["rho"] == art.summary["rho"] == expected
    assert open(art.trace_paths[0]).readline().strip() == runner.CSV_HEADER


def test_preset_run_end_to_end(tmp_path):
    cfg = parse_config(json.dumps({"preset": "table1-synthetic", "T": 3, "seed": 2}))
    art = run_experiment(cfg, out_dir=str(tmp_path / "p"))
    lines = open(art.trace_paths[0]).read().strip().split("\n")
    assert len(lines) == 4
    header = lines[0].split(",")
    first = lines[1].split(",")
    # dist, residual, and lower_subopt are all available on the game
    for col in ("dist", "residual", "lower_subopt"):
        assert first[header.index(col)] != ""


def test_cli_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(MINIMAL, T=5)))
    assert cli_main(["validate", str(cfg_path)]) == 0
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["validate", str(bad)]) == 1
    assert cli_main(["derive", "--L", "1", "--mu", "1", "--gamma", "0.1"]) == 0


def test_fitted_rate_ignores_rounding_noise(tmp_path):
    # dist falls 10x per iteration to 1.5e-12 at k=11, then sits at the
    # rounding level 2.8e-14; the fit must see the rate, not the plateau
    cfg = parse_config(json.dumps(dict(MINIMAL, eta=0.64, alpha=0.9, b=2.0, T=30)))
    fit = run_experiment(cfg, out_dir=str(tmp_path / "r")).summary["fitted_rates"]["dist"]
    assert abs(fit["slope_log10"] + 1.0) <= 0.05
    assert fit["r_squared"] >= 0.99


def test_bypassed_validation_logged_once_and_recorded(tmp_path, caplog, capsys):
    preset = json.dumps({"preset": "table1-synthetic", "T": 2, "replicates": 3})
    with caplog.at_level(logging.WARNING, logger="sqvi"):
        art = run_experiment(parse_config(preset), out_dir=str(tmp_path / "game"))
    bypassed = [r for r in caplog.records if "validation bypassed" in r.getMessage()]
    assert len(bypassed) == 1
    with open(art.manifest_path, encoding="utf-8") as fh:
        violations = json.load(fh)["derived"]["violations"]
    assert violations and any("no admissible step size" in v for v in violations)

    box = run_experiment(parse_config(json.dumps(dict(MINIMAL, T=3))), out_dir=str(tmp_path / "box"))
    with open(box.manifest_path, encoding="utf-8") as fh:
        assert json.load(fh)["derived"]["violations"] == []

    cfg_path = tmp_path / "preset.json"
    cfg_path.write_text(preset)
    capsys.readouterr()
    assert cli_main(["validate", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert all(v in out for v in violations)
