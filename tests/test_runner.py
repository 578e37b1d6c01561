import json
import logging
import re
import tracemalloc

import numpy as np
import pytest

from sqvi import diagnostics, runner
from sqvi.cli import main as cli_main
from sqvi.errors import ConfigError
from sqvi.problems import build_problem
from sqvi.runner import parse_config, run_experiment
from sqvi.solvers import _METRICS, IterationTrace, TraceRow, schedule_values

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
    # a value the named schedule has no field for would be dropped unseen
    with pytest.raises(ConfigError, match="'damped' takes no batch, rho"):
        parse_config(json.dumps(dict(MINIMAL, schedule="damped", rho=0.9, batch=7)))
    with pytest.raises(ConfigError, match="'increasing' takes no decay"):
        parse_config(json.dumps(dict(MINIMAL, schedule="increasing", rho=0.9, decay=0.5)))


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
        # numpy cannot seed a stream from a negative part
        ("seed", -1),
        ("seed", [1, -2]),
        # a truthy string would bypass the parameter checks or record timings
        ("allow_out_of_range", "false"),
        ("record_timing", "no"),
        # a non-string label or output directory would crash the run
        ("label", 5),
        ("out", 7),
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


def test_unknown_key_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown config key[(]s[)]: tpyo$"):
        parse_config(json.dumps(dict(MINIMAL, tpyo=1)))
    # "strict" is no key either, and each unknown key is named
    with pytest.raises(ConfigError, match="unknown config key[(]s[)]: schedul, strict$"):
        parse_config(json.dumps(dict(MINIMAL, strict=True, schedul="damped")))


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
    [
        (COUPLED, ["residual", "lower_subopt"]),
        (COUPLED, ["dist"]),
        (MINIMAL, ["dist", "lower_subopt"]),
        ({"preset": "table1-synthetic", "T": 3}, ["dist"]),
    ],
    ids=["coupled-lower_subopt", "coupled-dist", "box-lower_subopt", "game-dist"],
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


def _cell(value) -> str:
    # one cell as trace CSVs have always been written
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def test_csv_rows_keep_the_per_cell_format():
    # each row is one f-string and _fmt formats Python floats first; the
    # bytes must be those of the old cell-by-cell join
    values = [0.1, 1 / 3, -0.0, 5e-324, 1e300, float("nan"), float("inf"), float("-inf"), None, 7,
              np.float64(0.1), np.float64(-0.0), np.float64(np.nan), np.float64(-np.inf), np.float32(0.1),
              np.int64(-3), np.int32(12), True, np.bool_(False)]
    integers = [3, np.int64(4), np.int32(5), 2**70]
    rows = []
    for k, value in enumerate(values):
        ints = [integers[(k + i) % len(integers)] for i in range(5)]
        metrics = {"dist": value, "residual": values[-1 - k]}
        if k % 3:
            metrics["lower_subopt"] = values[(2 * k) % len(values)]
        rows.append(TraceRow(*ints, metrics=metrics, wall_ms=values[(3 * k) % len(values)]))
    expected = "".join(
        ",".join([str(r.k), str(r.n_k), str(r.t_k), str(r.cum_samples), str(r.cum_inner)]
                 + [_cell(r.metrics.get(m)) for m in _METRICS] + [_cell(r.wall_ms)])
        + "\n"
        for r in rows
    )
    trace = IterationTrace("p", "ieg", ("dist", "residual", "lower_subopt"), {}, rows)
    assert runner.trace_to_csv(trace) == runner.CSV_HEADER + "\n" + expected
    assert runner.trace_to_csv(IterationTrace("p", "ieg", ("dist",), {}, [])) == runner.CSV_HEADER + "\n"


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
    # %.17g round-trips, so each cell is exactly the 1-D mean of its replicates
    for k, cell in enumerate(mean["dist"]):
        assert cell == float(np.mean([r["dist"][k] for r in reps])), k


# noisy box runs that a dist floor of 0.05 stops after 16 to 19 iterations
RAGGED = {
    "problem": "translated_box",
    "problem_params": {"noise_level": 0.5},
    "solver": "ieg",
    "eta": 0.6,
    "alpha": 0.9,
    "b": 2.0,
    "schedule": "increasing",
    "rho": 0.9,
    "T": 60,
    "seed": 3,
    "replicates": 6,
    "metrics": ["dist"],
    "floor": {"metric": "dist", "value": 0.05},
    "report_epsilons": [0.1],
}


def test_mean_csv_cut_to_shortest_replicate(tmp_path):
    art = run_experiment(parse_config(json.dumps(RAGGED)), out_dir=str(tmp_path / "r"))
    reps = [np.genfromtxt(p, delimiter=",", names=True) for p in art.trace_paths]
    lengths = [r.shape[0] for r in reps]
    assert len(set(lengths)) > 1 and max(lengths) < RAGGED["T"]
    assert [entry["iterations"] for entry in art.summary["replicates"]] == lengths
    mean = np.genfromtxt(art.mean_path, delimiter=",", names=True)
    assert mean.shape[0] == min(lengths)
    for column in ("k", "N_k", "t_k", "cum_samples", "cum_inner"):
        np.testing.assert_array_equal(mean[column], reps[0][column][: min(lengths)])
    for k, cell in enumerate(mean["dist"]):
        assert cell == float(np.mean([r["dist"][k] for r in reps])), k
    # crossings are read from the first replicate
    first_k = int(np.argmax(reps[0]["dist"] <= 0.1))
    (crossing,) = art.summary["epsilon_crossings"].values()
    assert crossing["outer_iterations"] == first_k + 1


def _run_peak_bytes(cfg, out_dir) -> int:
    tracemalloc.start()
    try:
        run_experiment(cfg, out_dir=out_dir)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_keeps_a_few_floats_per_row_between_replicates(tmp_path):
    # a run keeps each finished replicate's metric series and summary entry,
    # not its trace: each further replicate raises the allocation peak by
    # about 80 bytes per row, where keeping its trace rows cost about 490
    base = dict(RAGGED, solver="ig", T=30, floor=None, report_epsilons=[])
    peaks = {
        reps: _run_peak_bytes(parse_config(json.dumps(dict(base, replicates=reps))), str(tmp_path / str(reps)))
        for reps in (5, 40)
    }
    per_row = (peaks[40] - peaks[5]) / (35 * base["T"])
    assert per_row < 160, peaks


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


def test_game_inner_work_pinned(tmp_path):
    # table1-synthetic, T=80, seed 1 under both solvers: a rewrite of the
    # projection arithmetic must not move FISTA's stopping points
    consumed = {}
    for solver in ("ieg", "ig"):
        cfg = parse_config(json.dumps({"preset": "table1-synthetic", "T": 80, "seed": 1, "solver": solver}))
        art = run_experiment(cfg, out_dir=str(tmp_path / solver))
        last = open(art.trace_paths[0]).read().strip().split("\n")[-1].split(",")
        consumed[solver] = (int(last[3]), int(last[4]))
    assert consumed == {"ieg": (160, 18627), "ig": (80, 9032)}


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
    # the game has residual and lower_subopt; it has no reference solution set, so no dist
    assert first[header.index("dist")] == ""
    for col in ("residual", "lower_subopt"):
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


def test_cli_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b'\xff\xfe{"a":1}')
    assert cli_main(["validate", str(cfg_path)]) == 1
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("config error:") == 2 and "Traceback" not in err


_NAN, _INF = float("nan"), float("inf")
_COUPLED = {"problem": "coupled_sp", "solver": "ieg", "eta": 0.5, "alpha": 0.5, "b": 0.5,
            "schedule": "deterministic", "T": 3, "allow_out_of_range": True}
_GAME = {"problem": "regression_game", "solver": "ieg", "eta": 0.01, "alpha": 0.9, "b": 1.2,
         "schedule": "deterministic", "T": 3, "allow_out_of_range": True}


@pytest.mark.parametrize(
    "cfg",
    [
        dict(MINIMAL, T=3, eta=_NAN, allow_out_of_range=True),
        dict(MINIMAL, T=3, problem_params={"noise_level": _NAN}),
        dict(MINIMAL, T=3, problem_params={"noise_level": _INF}),
        dict(MINIMAL, T=3, problem_params={"box": [-1.0, _INF]}),
        dict(_COUPLED, problem_params={"coupling": {"a_u": [1.0], "a_w": [1.0], "c": _NAN}}),
        dict(_COUPLED, problem_params={"w_box": [-_INF, 1.0]}),
        dict(_GAME, problem_params={"coupling": _NAN}),
        # a literal that overflows the floats reads as inf
        dict(MINIMAL, T=3, eta="OVERFLOW"),
    ],
    ids=["eta-nan", "noise-nan", "noise-inf", "box-inf", "coupling-c-nan", "w-box-neg-inf",
         "game-coupling-nan", "eta-1e999"],
)
def test_non_finite_config_numbers_are_config_errors(tmp_path, capsys, cfg):
    # json reads NaN, Infinity and 1e999 as floats; validate and run both reject them
    text = json.dumps(cfg).replace('"OVERFLOW"', "1e999")
    with pytest.raises(ConfigError, match="config numbers must be finite"):
        parse_config(text)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert cli_main(["validate", str(cfg_path)]) == 1
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("config error:") == 2 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_a_coupled_payoff_vector_of_the_wrong_length(tmp_path, capsys):
    cfg = {
        "problem": "coupled_sp",
        "problem_params": {"P": [[1.0]], "p": [0.0, 1.0]},
        "solver": "ieg",
        "eta": 0.5,
        "alpha": 0.5,
        "b": 0.5,
        "schedule": "deterministic",
        "T": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["validate", str(cfg_path)]) == 1
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("config error:") == 2 and "Traceback" not in err


@pytest.mark.parametrize(
    "L, mu, gamma",
    [
        ("0", "0", "0"),
        ("-1", "-2", "0.1"),
        ("1", "-0.5", "0"),
        ("1", "0.5", "-0.1"),
        ("nan", "0.5", "0"),
        ("1", "nan", "0"),
        ("1", "0.5", "nan"),
    ],
)
def test_cli_derive_rejects_invalid_constants(capsys, L, mu, gamma):
    assert cli_main(["derive", "--L", L, "--mu", mu, "--gamma", gamma]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("runtime error:") and captured.err.count("\n") == 1


def test_cli_derive_reports_an_eta_whose_beta_overflows(capsys):
    # (L eta)^2 overflows the floats; this used to end in an OverflowError traceback
    assert cli_main(["derive", "--L", "1", "--mu", "1", "--gamma", "0.1", "--eta", "1e300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: eta=1e+300 overflows beta") and "Traceback" not in err


@pytest.mark.parametrize(
    "text, cause",
    [
        (json.dumps(dict(MINIMAL, T=3, solver="sgd")), "solver must be 'ieg' or 'ig', got 'sgd'"),
        (json.dumps({"preset": "table9", "T": 3}), "unknown preset 'table9'"),
        ("[1, 2]", "config must be a JSON object"),
        (json.dumps(dict(MINIMAL, T=3, problem_params=[20])), "problem_params must be an object"),
        (json.dumps(dict(MINIMAL, T=3, schedule="cyclic")), "unknown schedule name 'cyclic'"),
    ],
    ids=["solver", "preset", "not-an-object", "problem-params", "schedule-name"],
)
def test_config_errors_name_their_cause(tmp_path, capsys, text, cause):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert cli_main(["validate", str(cfg_path)]) == 1
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and all(line.startswith(f"config error: {cause}") for line in lines), lines
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "eta, b, last",
    [
        # beta = 0.1 + sqrt(1 + eta^2 - 2 eta) = 0.6 at eta 0.5, so 1/(1 - beta) = 2.5
        ("0.5", "2.5", "b = 2.5 is not below 1/(1-beta) = 2.5"),
        # beta = 0.1 + sqrt(4) at eta 3
        ("3", "0.5", "beta is not below 1; no contraction at this eta"),
    ],
    ids=["b-at-bound", "beta-above-1"],
)
def test_cli_derive_reports_no_contraction(capsys, eta, b, last):
    argv = ["derive", "--L", "1", "--mu", "1", "--gamma", "0.1", "--eta", eta, "--b", b]
    assert cli_main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == last
    if "b =" in last:
        assert lines[-2].startswith("q (gradient, alpha=0.5) = ")
    assert not any(line.startswith("q (extra-gradient") for line in lines)


def test_validate_reports_the_scheduled_work(tmp_path, capsys):
    # the coupled-apd workload at T 400: t_k is 2.6e22 at k = 399, which no
    # run finishes; validate reports what the schedule allots and never runs it
    cfg = dict(_COUPLED, problem_params=_COUPLING, rho=0.9, T=400, metrics=["residual"])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["validate", str(cfg_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    parsed = parse_config(json.dumps(cfg))
    q = parsed.validated.params.q
    values = [schedule_values(parsed.solver_config().schedule, q, k) for k in range(400)]
    assert values[399][1] > 2.5e22
    inner, draws = sum(t for _, t in values), sum(n for n, _ in values)
    assert out[-4:] == [
        "scheduled work per replicate over T = 400 iterations (reported, not bounded):",
        f"  inner iterations: 2 x sum t_k = {2 * inner}",
        f"  residual metric's inner iterations: 10 x (t_0 + sum t_k) = {10 * (values[0][1] + inner)}, "
        "one solve per iterate",
        f"  operator draws: sum N_k = {draws} per phase, 2 phase(s)",
    ]


def test_validate_counts_the_residual_solves_the_run_makes(tmp_path, capsys, monkeypatch):
    # x0's residual solve gets 10 t_0 and x_{k+1}'s 10 t_k, and each runs
    # its whole budget on this map
    consumed = []

    def counting_project(*args, **kwargs):
        res = project(*args, **kwargs)
        consumed.append(res.inner_iterations)
        return res

    project = diagnostics.inexact_project
    monkeypatch.setattr(diagnostics, "inexact_project", counting_project)
    cfg = dict(_COUPLED, problem_params=_COUPLING, rho=0.9, T=6, metrics=["residual"])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["validate", str(cfg_path)]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines() if "residual metric" in line)
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert len(consumed) == 7
    assert int(re.search(r"= (\d+),", line).group(1)) == sum(consumed)


def test_validate_reports_closed_form_projections_run_no_inner_iterations(tmp_path, capsys):
    # the translated box has the residual metric, but in closed form
    cfg = dict(MINIMAL, T=3, solver="ig")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["validate", str(cfg_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    parsed = parse_config(json.dumps(cfg))
    inner = sum(schedule_values(parsed.solver_config().schedule, parsed.validated.params.q, k)[1] for k in range(3))
    assert out[-3:] == ["scheduled work per replicate over T = 3 iterations (reported, not bounded):",
                        f"  inner iterations: 1 x sum t_k = {inner} (closed form: none run)",
                        "  operator draws: sum N_k = 3 per phase, 1 phase(s)"]


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


def test_fitted_rate_reads_the_mean_csv_column(tmp_path, monkeypatch):
    # at 16 replicates a 1-D pairwise np.mean per row and an axis-0 mean over
    # the replicate list differ in the last bits on this run; the fit and
    # trace_mean.csv must both read the one mean
    seen = []
    fit = runner.fit_linear_rate

    def recording_fit(series, **kwargs):
        seen.append(series)
        return fit(series, **kwargs)

    monkeypatch.setattr(runner, "fit_linear_rate", recording_fit)
    cfg = {
        "problem": "translated_box",
        "problem_params": {"n": 5, "seed": 3, "noise_level": 0.5},
        "solver": "ieg",
        "eta": 0.6,
        "alpha": 0.9,
        "b": 2.0,
        "schedule": "increasing",
        "rho": 0.9,
        "T": 20,
        "seed": 3,
        "replicates": 16,
        "metrics": ["dist"],
    }
    art = run_experiment(parse_config(json.dumps(cfg)), out_dir=str(tmp_path / "r"))
    column = np.genfromtxt(art.mean_path, delimiter=",", names=True)["dist"]
    (series,) = seen
    assert series.tobytes() == column.tobytes()


_COUPLING = {"P": [[1.0]], "Q": [[1.0]], "R": [[1.0]], "coupling": {"a_u": [1.0], "a_w": [1.0], "c": -0.5}}
_GAME_PRESET = {"preset": "table1-synthetic", "solver": "ieg", "T": 3}


def _coupling_c(c):
    return dict(_COUPLING, coupling=dict(_COUPLING["coupling"], c=c))


@pytest.mark.parametrize(
    "cfg, cause",
    [
        (dict(MINIMAL, T=3, problem_params={"n": 0}), "n must be an integer >= 1"),
        (dict(_GAME_PRESET, problem_params={"players": 0}), "players must be an integer >= 1"),
        (dict(_GAME_PRESET, problem_params={"sigma": 0}), "sigma must be positive"),
        (dict(_COUPLED, problem_params={"P": [[1.0, 0.0]]}), r"P has shape \(1, 2\), expected a square matrix"),
        (dict(_COUPLED, problem_params={"u_box": [-1.0, 0.0, 1.0]}), "u_box must be two numbers lo <= hi"),
        (dict(_COUPLED, problem_params={"w_box": [1.0, -1.0]}), "w_box must be two numbers lo <= hi"),
        (dict(MINIMAL, T=3, eta=1e300, allow_out_of_range=True), "eta=1e[+]300 overflows beta"),
        # the shared set is the one point (-1, -1), which x0 = 0 cannot reach
        (dict(_COUPLED, problem_params=_coupling_c(-2.0)), "K[(]x0[)] is empty: its u-block row"),
        (dict(_COUPLED, problem_params=_coupling_c(-10.0)), "the shared set .* is empty"),
        (dict(_COUPLED, problem_params={"coupling": {"a_u": [0.0], "a_w": [0.0], "c": -1.0}}),
         "the shared set .* is empty"),
        (dict(MINIMAL, T=3, problem_params={"n": 2, "matrix": [[1.0]]}), r"matrix has shape \(1, 1\), expected"),
        (dict(MINIMAL, T=3, problem_params={"n": 2, "matrix": [[0.0, 1.0], [-1.0, 0.0]]}), "not strongly monotone"),
        (dict(MINIMAL, T=3, problem_params={"box": [1.0, 1.0]}), "box must have lo < hi"),
        (dict(_COUPLED, problem_params={"R": [[1.0, 2.0]]}), r"R has shape \(1, 2\), expected \(1,1\)"),
        (dict(_COUPLED, problem_params={"Q": [[-1.0]]}), "payoff is not concave in w"),
        (dict(_COUPLED, problem_params={"coupling": {"a_u": [1.0, 1.0], "a_w": [1.0], "c": 1.0}}),
         "coupling vectors do not match block dimensions"),
        (dict(_GAME_PRESET, problem_params={"source": "svm"}), "unknown game source 'svm'"),
        # a key sqvi does not know, at each level of the config
        (dict(MINIMAL, T=3, schedul="damped"), r"unknown config key\(s\): schedul$"),
        (dict(MINIMAL, T=3, problem_params={"slope": 0.1}),
         r"make_translated_box_qvi\(\) got an unexpected keyword argument 'slope'"),
        (dict(_GAME_PRESET, problem_params={"player": 2}), "unexpected keyword argument 'player'"),
        (dict(_COUPLED, problem_params={"couplng": _COUPLING["coupling"]}),
         r"coupled_sp\(\) got an unexpected keyword argument 'couplng'"),
        (dict(_COUPLED, problem_params=dict(_COUPLING, coupling=dict(_COUPLING["coupling"], d=1.0))),
         "unexpected keyword argument 'd'"),
        (dict(_COUPLED, problem_params={"coupling": {"a_u": [1.0], "a_w": [1.0]}}),
         "missing 1 required positional argument: 'c'"),
    ],
    ids=["box-n-0", "game-players-0", "game-sigma-0", "coupled-P-1x2", "u-box-3", "w-box-reversed",
         "eta-1e300", "coupled-K-x0-empty", "coupled-shared-empty", "coupled-zero-coupling",
         "box-matrix-shape", "box-not-strongly-monotone", "box-lo-not-below-hi", "coupled-R-shape",
         "coupled-Q-not-concave", "coupling-vector-shape", "game-unknown-source", "unknown-top-level-key",
         "box-unknown-param", "game-unknown-param", "coupled-unknown-param", "coupling-unknown-key",
         "coupling-without-c"],
)
def test_construction_errors_name_their_cause(tmp_path, capsys, cfg, cause):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["validate", str(cfg_path)]) == 1
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and all(line.startswith("config error:") for line in lines), lines
    assert all(re.search(cause, line) for line in lines), lines
    assert not (tmp_path / "out").exists()
