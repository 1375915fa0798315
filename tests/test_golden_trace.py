"""`lazylab trace` output of the bundled programs, pinned byte for byte.

The files under tests/golden/ are the JSON-lines traces of r_prog1/r_prog2
under each strategy (r_prog1 strict fails, so its file is the partial trace)
and of sas_prog1/sas_prog2.  Together they hold 69 events of all 12 kinds, so
any change to an event's subject or detail text shows up here.
"""

from pathlib import Path

import pytest

from lazylab.cli import main
from lazylab.lab import load_program

from conftest import cell_runs

GOLDEN = Path(__file__).parent / "golden"

# (golden file, program, options): a file per program and cell on its engine
CASES = [
    (program.partition(".")[0] + (f".{strategy}" if strategy else ""), program,
     ["--lang", lang, *(["--strategy", strategy] if strategy else [])])
    for program, lang, strategy, _ in cell_runs("bundled")
]


@pytest.mark.parametrize("golden, program, options", CASES, ids=[c[0] for c in CASES])
def test_trace_matches_golden(golden, program, options, tmp_path, capsys):
    path = tmp_path / program
    path.write_text(load_program(program), encoding="utf-8")
    code = main(["trace", *options, str(path)])
    assert code == (1 if golden == "r_prog1.strict" else 0)
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / f"{golden}.jsonl").read_bytes()

