"""The output check accepts a real run and rejects corrupted output."""

import re

import pytest

import corpus
import run


@pytest.fixture
def small_short_notes(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus, "SHORT_NOTES", 30)
    monkeypatch.setattr(corpus, "PROVENANCE_NOTES", 10)
    wl = run.Workload("short_notes", 4, tmp_path)
    first = wl.run()
    first_eval = wl.evaluate()
    run.check_pass(wl, first, first_eval)
    return wl


def _shift_first_entity(ann_dir):
    """Move one predicted entity a character to the right."""
    def shift(m):
        return f"{m[1]}{int(m[2]) + 1} {int(m[3]) + 1}"

    for ann in sorted(ann_dir.glob("*.ann")):
        text = ann.read_text(encoding="utf-8")
        shifted, n = re.subn(r"^(T\d+\t\S+ )(\d+) (\d+)", shift, text, count=1, flags=re.M)
        if n:
            ann.write_text(shifted, encoding="utf-8")
            return
    raise AssertionError("no entity to corrupt")


def test_check_rejects_a_shifted_entity(small_short_notes):
    wl = small_short_notes
    _shift_first_entity(wl.work / "out")
    ev = wl.evaluate()
    assert ev.code == 0
    with pytest.raises(run.CheckFailed, match="expected"):
        run.check_eval(wl.work / "eval.json", wl.summary["expected"])


def test_check_rejects_a_missing_output_file(small_short_notes):
    wl = small_short_notes
    next((wl.work / "out").glob("*.ann")).unlink()
    ev = wl.evaluate()
    with pytest.raises(run.CheckFailed):
        run.check_pass(wl, run.Proc(0, 1.0, 1.0, 1.0, ""), ev)


def test_check_rejects_failed_documents(small_short_notes):
    wl = small_short_notes
    crashed = run.Proc(1, 1.0, 1.0, 1.0, "failed: note_00003.txt: boom\n")
    with pytest.raises(run.CheckFailed, match="run exit code 1: failed: note_00003"):
        run.check_pass(wl, crashed, run.Proc(0, 1.0, 1.0, 1.0, ""))
