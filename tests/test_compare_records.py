"""The verdict rule of scripts/compare_records.py, on made-up outputs (no preset runs)."""

import importlib.util
import json
import re

import pytest

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location(
    "compare_records", REPO_ROOT / "scripts" / "compare_records.py"
)
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)

FINAL = {"train_loss": 0.5, "test_loss": 0.25, "test_accuracy": None}


def outputs(sequence=((0, True), (2, False)), final=FINAL, extra=None, **cells):
    """One run's outputs as ``run_outputs`` returns them: bytes per file, or an error line."""
    probes = "".join(
        json.dumps({"kind": "refresh", "t": t, "accepted": accepted}) + "\n"
        for t, accepted in sequence
    )
    summary = {"final": final, **(extra or {})}
    out = {
        "metrics": b'{"iteration": 1}\n',
        "probes": probes.encode(),
        "summary": json.dumps(summary).encode(),
        "diag": b'{"group": 0}\n',
        "diag hiulr": b'{"group": 1}\n',
    }
    out.update(cells)
    return out


def judge(a, b):
    cells, differing, failures = tool.compare(a, b)
    return cells, tool.verdict(differing, len(tool.CELLS), failures)


def test_identical_outputs():
    cells, line = judge(outputs(), outputs())
    assert line == "IDENTICAL"
    assert all(len(c) == 16 and "→" not in c for c in cells[:5])
    assert cells[5:] == ["2", "identical", "0"]


def test_bytes_only_difference_is_different_not_fail():
    cells, line = judge(outputs(), outputs(extra={"env": "x"}))
    assert line == "DIFFERENT: 1 of 5 files, sequences identical, final values within 1e-09"
    assert [("→" in c) for c in cells[:5]] == [False, False, True, False, False]


def test_last_bit_difference_is_within_the_rule():
    moved = {**FINAL, "test_loss": 0.25 * (1 + 1e-12)}
    cells, line = judge(outputs(), outputs(final=moved))
    assert line.startswith("DIFFERENT: 1 of 5 files")
    assert float(cells[-1]) == pytest.approx(1e-12, rel=1e-3)


def test_changed_sequence_fails():
    _, line = judge(outputs(), outputs(sequence=((0, True), (2, True))))
    assert line == "FAIL: accept/reject sequence differs"


def test_final_value_beyond_the_rule_fails():
    moved = {**FINAL, "train_loss": 0.5 * (1 + 1e-8)}
    _, line = judge(outputs(), outputs(final=moved))
    assert line.startswith("FAIL: final values differ by 1e-08")


def test_final_value_missing_on_one_side_fails():
    _, line = judge(outputs(), outputs(final={**FINAL, "test_accuracy": 0.5}))
    assert line == "FAIL: final values differ by inf"


def test_one_sided_error_fails_with_the_line_in_the_cell():
    error = "runtime error: rank 0 outside [1, 64]"
    b = outputs(metrics=error, probes=error, summary=error)
    cells, line = judge(outputs(), b)
    assert line == "FAIL: metrics, probes, summary failed"
    assert cells[0].endswith(f" → {error}")
    assert cells[5:] == ["-", "-", "-"]


def test_same_error_on_both_sides_counts_as_equal():
    error = "config error: phi must be an integer, got True"
    cells, line = judge(outputs(diag=error), outputs(diag=error))
    assert line == "IDENTICAL"
    assert cells[3] == error


def test_different_errors_fail():
    _, line = judge(outputs(diag="runtime error: a"), outputs(diag="runtime error: b"))
    assert line == "FAIL: diag failed"


def test_help_lists_only_the_two_checkouts_seeds_and_override(capsys):
    with pytest.raises(SystemExit):
        tool.main(["--help"])
    usage = capsys.readouterr().out
    assert "first checkout (the parent)" in usage and "second checkout (the change)" in usage
    options = set(re.findall(r"(?<![\w-])--?[a-z]+", usage))
    assert options == {"-h", "--help", "--seeds", "--override"}
