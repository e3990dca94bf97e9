"""The docs list exactly the table's experiment kinds and required flags."""
import re
from pathlib import Path

import degree_lab.cli
from degree_lab.experiments import KIND_SPECS, KINDS

README = Path(__file__).resolve().parents[1] / "README.md"


def required_flags(kind):
    words = []
    for flag in KIND_SPECS[kind].flags:
        if flag.required:
            words.append(flag.name)
            if flag.metavar:
                words.append(flag.metavar)
    return " ".join(words)


def expected():
    return {kind: required_flags(kind) for kind in KINDS}


def test_readme_table_matches():
    rows = re.findall(r"^\| `(\w+)` +\|[^|]*\| `([^`]*)`", README.read_text(),
                      re.MULTILINE)
    listed = {kind: flags for kind, flags in rows if kind != "decompose"}
    assert listed == expected()


def test_cli_docstring_matches():
    rows = re.findall(r"^    (\w+) +(--.*)$", degree_lab.cli.__doc__,
                      re.MULTILINE)
    assert dict(rows) == expected()
