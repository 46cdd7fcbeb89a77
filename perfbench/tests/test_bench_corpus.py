"""The generator: same seed, same bytes; edge-case notes always present."""

import pytest

import corpus


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_identical_files(tmp_path, workload):
    corpus.generate(workload, 7, tmp_path / "a")
    corpus.generate(workload, 7, tmp_path / "b")
    corpus.generate(workload, 8, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a != c


@pytest.mark.parametrize(
    "workload, phase", [("short_notes", "short"), ("short_notes", "prov"), ("long_notes", "context")]
)
def test_edge_case_notes_are_kept(tmp_path, workload, phase):
    corpus.generate(workload, 3, tmp_path)
    docs = tmp_path / phase
    assert (docs / f"{phase}_edge_empty.txt").read_text(encoding="utf-8") == ""
    assert (docs / f"{phase}_edge_blank.txt").read_text(encoding="utf-8").strip() == ""
    no_punct = (docs / f"{phase}_edge_no_final_punct.txt").read_text(encoding="utf-8")
    assert not no_punct.endswith((".", "\n"))
    assert (docs / f"{phase}_edge_date_first.txt").read_text(encoding="utf-8").startswith("12/03/2021")
    assert (docs / f"{phase}_edge_date_last.txt").read_text(encoding="utf-8").endswith("15/09/2021")
    assert (tmp_path / "corpus" / f"{phase}_edge_empty.ann").read_text(encoding="utf-8") == ""


def test_every_note_has_a_gold_file_matching_its_text(tmp_path):
    summary = corpus.generate("long_notes", 5, tmp_path)
    long = sorted((tmp_path / "long").glob("*.txt"))
    assert len(long) == len(corpus.LONG_NOTE_SIZES)
    assert long[0].read_text(encoding="utf-8").startswith("12/03/2021")
    assert long[-1].read_text(encoding="utf-8").endswith("15/09/2021")
    context = sorted((tmp_path / "context").glob("*.txt"))
    texts = sorted((tmp_path / "corpus").glob("*.txt"))
    assert {t.name for t in texts} == {t.name for t in long + context}
    assert len(texts) == summary["docs"]
    for txt in texts:
        text = txt.read_text(encoding="utf-8")
        for line in txt.with_suffix(".ann").read_text(encoding="utf-8").splitlines():
            _, label_span, surface = line.split("\t")
            _, start, end = label_span.split(" ")
            assert text[int(start):int(end)] == surface


def test_distractors_never_occur_in_the_vocabulary(tmp_path):
    corpus.generate("long_notes", 2, tmp_path)
    rows = (tmp_path / "dict1000.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 1_000
    vocab = corpus.load_vocabulary()
    text = " ".join(
        part if isinstance(part, str) else part[1]
        for parts in vocab.DOCUMENTS.values()
        for part in parts
    )
    real = {term for term, _, _ in vocab.DICTIONARY}
    distractors = [row.split(",")[0] for row in rows if row.split(",")[0] not in real]
    assert len(distractors) == 1_000 - len(real)
    assert not corpus._dictionary_matches(text, distractors)
