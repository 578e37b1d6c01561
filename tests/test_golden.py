"""Golden traces: small runs of the three benchmark workloads at seed 11.

Each config of scripts/make_goldens.py runs through parse_config and
run_experiment, and its CSVs must match tests/golden/ with the same header,
every integer column exact and every float cell within 1e-12 relative. Its
manifest.json and a kept summary.json must match as parsed JSON: strings,
ints and the layout exact, floats within the same 1e-12 relative.
"""
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
INTEGER_COLUMNS = ("k", "N_k", "t_k", "cum_samples", "cum_inner")
REL_TOL = 1e-12

_spec = importlib.util.spec_from_file_location("make_goldens", ROOT / "scripts" / "make_goldens.py")
make_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_goldens)
CONFIGS = make_goldens.configs()


def _rows(text: str):
    lines = text.splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _same_float(got: str, want: str) -> bool:
    if got == "" or want == "":
        return got == want
    got, want = float(got), float(want)
    return abs(got - want) <= REL_TOL * abs(want)


def _assert_same_json(got, want, where: str):
    if isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= REL_TOL * abs(want), f"{where}: {got} vs {want}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _assert_same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_json(g, w, f"{where}[{i}]")
    else:  # str, int, bool, None
        assert type(got) is type(want) and got == want, f"{where}: {got!r} vs {want!r}"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_matches_golden(name, tmp_path):
    paths = [Path(p) for p in make_goldens.run_outputs(name, str(tmp_path / name))]
    assert sorted(p.name for p in paths) == sorted(p.name for p in (GOLDEN / name).iterdir())
    for path in paths:
        gold = GOLDEN / name / path.name
        if path.suffix == ".json":
            _assert_same_json(json.loads(path.read_text()), json.loads(gold.read_text()), f"{name}/{gold.name}")
            continue
        header, rows = _rows(path.read_text())
        gold_header, gold_rows = _rows(gold.read_text())
        assert header == gold_header
        assert len(rows) == len(gold_rows), gold.name
        columns = header.split(",")
        for row, gold_row in zip(rows, gold_rows):
            assert len(row) == len(columns)
            for column, got, want in zip(columns, row, gold_row):
                where = f"{name}/{gold.name} k={gold_row[0]} {column}"
                if column in INTEGER_COLUMNS:
                    assert got == want, where
                else:
                    assert _same_float(got, want), f"{where}: {got} vs {want}"


def test_sha256sums_list_every_golden():
    listed = {}
    for line in (GOLDEN / "SHA256SUMS").read_text().splitlines():
        digest, name = line.split("  ")
        listed[name] = digest
    on_disk = {str(p.relative_to(GOLDEN)): p for p in GOLDEN.glob("*/*")}
    assert listed.keys() == on_disk.keys()
    for name, path in on_disk.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == listed[name], name
