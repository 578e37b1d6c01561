"""The experiment scripts run end to end at a tiny horizon."""
import importlib.util
import json
import re
import sys
from pathlib import Path

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


def test_regression_game_script(tmp_path, monkeypatch, capsys):
    out = tmp_path / "game"
    assert _run_script("run_regression_game", ["--T", "2", "--out", str(out)], monkeypatch) == 0
    printed = capsys.readouterr().out
    for solver in ("ieg", "ig"):
        assert f"{solver}: final lower_subopt" in printed
        assert (out / solver / "trace_mean.csv").exists()


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
