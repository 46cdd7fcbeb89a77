"""Check that writing provenance costs memory in proportion to the PROV-JSON.

The bundled demo corpus is copied 12 times into a temporary directory, and
``annopipe run`` runs the drug_ner_dict pipeline over it twice, each time as
a child of this script: once at ``--prov-level none`` and once at ``full``
with ``--prov-out``. The script exits 1 when the ``full`` run's peak RSS
exceeds the ``none`` run's by more than 4 times the size of the PROV-JSON it
wrote: the trace, the graph and the written text should cost a small multiple
of the file, not copies of it. A ratio holds across machines and Python
versions better than a fixed size would.

A child's peak RSS is never below its parent's at the time it is spawned, so
this script imports nothing of annopipe and parses nothing before spawning.

    PYTHONPATH=src python3 scripts/prov_memory.py
"""

from __future__ import annotations

import importlib.util
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

COPIES = 12
MAX_RATIO = 4.0
MB = 1024 * 1024


def peak_rss(argv: list[str], cwd: Path, env: dict) -> int:
    """Run ``argv`` to completion; its own peak RSS in bytes."""
    proc = subprocess.Popen(argv, cwd=cwd, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{' '.join(argv)} exited with status {status}")
    return usage.ru_maxrss * 1024  # KiB on Linux


def main() -> int:
    # find_spec locates the package without running its code.
    package = Path(importlib.util.find_spec("annopipe").submodule_search_locations[0]).resolve()
    demo = package / "data" / "demo"
    # The children run in a temporary directory, so a relative PYTHONPATH would miss.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(package.parent), os.environ.get("PYTHONPATH")) if p
    ))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        corpus = work / "corpus"
        corpus.mkdir()
        notes = sorted((demo / "corpus").glob("*.txt"))
        for copy in range(COPIES):
            for note in notes:
                (corpus / f"{note.stem}_{copy:02d}.txt").write_bytes(note.read_bytes())
        run = [
            sys.executable, "-m", "annopipe.cli", "run",
            "--pipeline", str(demo / "pipelines" / "drug_ner_dict.json"),
            "--input-dir", "corpus",
        ]
        none = peak_rss(run + ["--output-dir", "out_none", "--prov-level", "none"], work, env)
        full = peak_rss(
            run + ["--output-dir", "out_full", "--prov-level", "full", "--prov-out", "prov.json"],
            work,
            env,
        )
        prov_size = (work / "prov.json").stat().st_size
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    ratio = (full - none) / prov_size
    print(f"{len(notes) * COPIES} notes; this script's peak RSS {own / MB:.1f} MB")
    print(f"peak RSS at none {none / MB:.1f} MB, at full {full / MB:.1f} MB; PROV-JSON {prov_size / MB:.2f} MB")
    print(f"extra peak RSS at full: {ratio:.2f} times the PROV-JSON size")
    if own >= none:
        print("this script's own peak RSS reaches the child's: the measurement is not the child's")
        return 1
    if ratio > MAX_RATIO:
        print(f"provenance memory is above {MAX_RATIO} times the PROV-JSON size")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
