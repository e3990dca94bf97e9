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


def test_readme_size_bounds_match():
    # "sizes at least 1 (at least 0 for `--l`, `--r` and the `--m` of `cs`,
    # ...)": the flags before " of " are 0 in every kind but the last one,
    # which is 0 only in the kinds named after it
    text = " ".join(README.read_text().split())
    zero = re.search(r"sizes at least 1 \(at least 0 for ([^)]*)\)", text)[1]
    flags, kinds = zero.split(" of ")
    *everywhere, restricted = re.findall(r"`(--[\w-]+)`", flags)
    named = set(re.findall(r"`(\w+)`", kinds))
    for kind, spec in KIND_SPECS.items():
        for flag in spec.flags:
            if (flag.type not in (int, float)
                    or flag.name in ("--eps", "--seed")):
                continue
            at_zero = flag.name in everywhere or (flag.name == restricted
                                                  and kind in named)
            assert flag.low == (0 if at_zero else 1), (kind, flag.name)
