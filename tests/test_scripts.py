"""The experiment scripts run end to end at a tiny horizon."""
import importlib.util
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name, argv, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [name, *argv])
    return module.main()


@pytest.mark.parametrize(
    "argv",
    [
        ["--schedule", "deterministic"],
        ["--schedule", "increasing", "--rho", "0.9", "--noise", "0.5", "--replicates", "2"],
        # q is about 0.0022 here, so the default rho must be 1 - q/2, not 1 - q + 0.05
        ["--schedule", "increasing", "--eta", "0.09", "--alpha", "0.1"],
        ["--solver", "ig", "--schedule", "constant", "--batch", "4", "--noise", "0.5"],
    ],
)
def test_translated_box_script(argv, tmp_path, monkeypatch, capsys):
    out = tmp_path / "box"
    assert _run_script("run_translated_box", [*argv, "--n", "5", "--T", "4", "--out", str(out)], monkeypatch) == 0
    assert "beta=" in capsys.readouterr().out
    assert len(list(out.glob("trace_rep*.csv"))) == (2 if "--replicates" in argv else 1)
    assert json.loads((out / "manifest.json").read_text())["derived"]["violations"] == []


def _write_libsvm(path, rows=120, features=8):
    rng = np.random.default_rng(3)
    design = rng.standard_normal((rows, features))
    labels = design @ rng.standard_normal(features) + 0.1 * rng.standard_normal(rows)
    lines = (
        f"{label:.6g} " + " ".join(f"{j + 1}:{v:.6g}" for j, v in enumerate(row))
        for label, row in zip(labels, design)
    )
    path.write_text("\n".join(lines) + "\n")


def test_regression_game_script(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data.txt"
    _write_libsvm(data)
    runs = {
        "table1-synthetic": [],
        "table1-eunite2001": ["--dataset", str(data)],
        "table1-triazines": ["--dataset", str(data)],
    }
    for preset, extra in runs.items():
        out = tmp_path / preset
        argv = ["--preset", preset, *extra, "--T", "2", "--out", str(out)]
        assert _run_script("run_regression_game", argv, monkeypatch) == 0
        printed = capsys.readouterr().out
        for solver in ("ieg", "ig"):
            assert f"{solver}: final lower_subopt" in printed
            assert (out / solver / "trace_mean.csv").exists()
            manifest = json.loads((out / solver / "manifest.json").read_text())
            origin = "dataset" if extra else "synthetic"
            assert manifest["problem_manifest"]["name"].startswith(f"regression_game[{origin}(")


def test_replay_fista_script(monkeypatch, capsys):
    # replayed through this checkout twice over: once as recorded, once
    # imported again as another checkout, with bit-identical results
    root = str(SCRIPTS.parent)
    assert _run_script("replay_fista", ["--T", "2", "--rounds", "2", "--against", root], monkeypatch) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[2] == "results bit-identical: yes"
    pattern = r".+: (\d+) solves, (\d+) steps, (\d+) chunks screened, [\d.]+ s median"
    counts = [re.match(pattern, line) for line in lines[:2]]
    assert all(counts) and counts[0].groups() == counts[1].groups()
    solves, steps, screened = map(int, counts[0].groups())
    assert 0 < solves <= steps and screened <= steps


def test_replay_box_script(monkeypatch, capsys):
    # run through this checkout twice over: once as imported, once imported
    # again as another checkout, with bit-identical traces
    root = str(SCRIPTS.parent)
    argv = ["--replicates", "2", "--T", "3", "--rounds", "2", "--against", root]
    assert _run_script("replay_box", argv, monkeypatch) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and lines[4] == "traces bit-identical: yes"
    pattern = r".+: 2 replicates, [\d.]+ s run and [\d.]+ s CSV median per round \(([\d.]+) ([\d.]+)\)"
    assert all(re.fullmatch(pattern, line) for line in lines[:2])
    pattern = (r"(run|CSV) time this/other per replicate: [\d.]+ median over rounds "
               r"\([\d.]+-[\d.]+\), this faster in [012] of 2 rounds")
    assert [re.fullmatch(pattern, line).group(1) for line in lines[2:4]] == ["run", "CSV"]


def test_replay_box_reports_each_checkouts_final_dist(monkeypatch, capsys):
    # the other checkout samples at other seeds, so its traces differ
    spec = importlib.util.spec_from_file_location("replay_box", SCRIPTS / "replay_box.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    original = module.Tree.outputs

    def outputs(self):
        if self.name != "this":
            self.configs = [replace(config, seed=(99, rep)) for rep, config in enumerate(self.configs)]
        return original(self)

    monkeypatch.setattr(module.Tree, "outputs", outputs)
    root = str(SCRIPTS.parent)
    monkeypatch.setattr(sys, "argv", ["replay_box", "--replicates", "2", "--T", "3", "--rounds", "1", "--against", root])
    assert module.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7 and lines[4] == "traces bit-identical: no"
    dists = [re.fullmatch(r".+: mean final dist ([\d.e+-]+) over 2 replicates", line).group(1) for line in lines[5:]]
    assert lines[5].startswith("this: ") and lines[6].startswith(f"{root}: ") and dists[0] != dists[1]


def test_compare_outputs_against_its_own_checkout(monkeypatch, capsys):
    # each checkout runs in its own subprocess: once as this one, once as the
    # other; coupled-apd, which takes seconds, is left out
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPTS / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "WORKLOADS", {k: v for k, v in module.WORKLOADS.items() if k != "coupled-apd"})
    root = str(SCRIPTS.parent)
    monkeypatch.setattr(sys, "argv", ["compare_outputs", "--against", root, "--seeds", "11", "--replicates", "2"])
    assert module.main() == 0
    # game-fista: two runs of a trace, a mean, a manifest and a summary;
    # box-sampled: one run of two traces and those three
    assert capsys.readouterr().out.splitlines() == [f"this: 13 files, {root}: 13 files, 13 equal"]


def test_compare_outputs_names_the_file_and_column_that_moved(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPTS / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    this, other = tmp_path / "this", tmp_path / "other"
    for tree, cell in ((this, "0.5"), (other, "0.25")):
        (tree / "run").mkdir(parents=True)
        (tree / "run" / "trace_rep00.csv").write_text(f"k,N_k,dist\n0,1,{cell}\n")
        (tree / "run" / "manifest.json").write_text('{"a": 1}\n')
    (other / "run" / "summary.json").write_text("{}\n")
    assert module.compare(str(this), str(other), "other") == [
        "this: 2 files, other: 3 files, 1 equal",
        "run/trace_rep00.csv: dist: largest relative change 1",
        "run/summary.json: only in other",
    ]
