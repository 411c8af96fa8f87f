"""Every record of the README command lines, of `table1` and of the orbifold
enumeration, byte for byte, apart from `elapsed=`.

`golden_records.json` holds the expected records.  A change that keeps them
passes unchanged; one that means to alter a record rewrites the file and says
so:

    PYTHONPATH=src python tests/test_golden_records.py --write
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from quatsys.cli import main
from quatsys.geodesics import enumerate_gamma
from quatsys.orders import hurwitz_preset

GOLDEN = Path(__file__).with_name("golden_records.json")
README = Path(__file__).resolve().parents[1] / "README.md"
ORBIFOLD = "enumerate_gamma(hurwitz order, whole ring, 3.0)"


def readme_command_lines():
    """The `quatsys ...` lines of the README's code blocks, in order."""
    lines = re.findall(r"^(?:\$ )?(quatsys --.*)$", README.read_text(encoding="utf-8"),
                       flags=re.MULTILINE)
    return list(dict.fromkeys(lines))


def cli_records(line):
    """The exit code and output lines of one command line, without `elapsed=`."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(line.split()[1:])
    return [f"exit={code}"] + [ln for ln in out.getvalue().splitlines()
                               if not ln.startswith("elapsed=")]


def orbifold_records():
    order = hurwitz_preset()
    cands, visited = enumerate_gamma(order, order.algebra.field.whole_ring(), 3.0)
    return [f"visited={visited}"] + [f"{c.record()} element={c.element}" for c in cands]


def _expected():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_readme_command_line():
    assert list(_expected()) == readme_command_lines() + [ORBIFOLD]


@pytest.mark.parametrize("line", readme_command_lines())
def test_cli_records_match_the_golden_file(line):
    assert cli_records(line) == _expected()[line]


def test_orbifold_records_match_the_golden_file():
    assert orbifold_records() == _expected()[ORBIFOLD]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    records = {line: cli_records(line) for line in readme_command_lines()}
    records[ORBIFOLD] = orbifold_records()
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
