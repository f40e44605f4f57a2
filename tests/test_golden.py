"""`bounds` output on fixed configs must match the committed golden files byte for byte.

Each ``tests/golden/<name>.config.json`` is run through the CLI and compared
with ``<name>.csv`` (or ``<name>.json`` when the config asks for JSON).  After
an intended output change, regenerate with
``PYTHONPATH=src python tests/test_golden.py`` and record the change in
CHANGES.md.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from pattern_entropy import cli

GOLDEN = Path(__file__).parent / "golden"
SUFFIX = ".config.json"
CASES = sorted(p.name[: -len(SUFFIX)] for p in GOLDEN.glob(f"*{SUFFIX}"))


def _render(name: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["bounds", "--config", str(GOLDEN / f"{name}{SUFFIX}")])
    assert rc == 0
    return buf.getvalue()


def _expected_path(name: str) -> Path:
    doc = json.loads((GOLDEN / f"{name}{SUFFIX}").read_text(encoding="utf-8"))
    return GOLDEN / f"{name}.{doc.get('output', {}).get('format', 'csv')}"


@pytest.mark.parametrize("name", CASES)
def test_matches_golden(name):
    with open(_expected_path(name), encoding="utf-8", newline="") as fh:
        assert _render(name) == fh.read()


if __name__ == "__main__":
    for case in sys.argv[1:] or CASES:
        with open(_expected_path(case), "w", encoding="utf-8", newline="") as fh:
            fh.write(_render(case))
