"""Golden verification reports: ``dte verify-theory --out`` must stay byte-identical
across rewrites of the population-level checks in ``dte.oracle``.

Each case runs 200 instances at seed 42, mixed (random partitions, nearest-mean
partitions with and without pure regions) or ``--epsilon-zero`` (homogeneous
regions only), and pins the SHA-256 of the report JSON. Floats print as their
shortest round-trip text, so one changed bit of an epsilon, a deviation or an
error changes the digest, and so does one point classified differently by the
indicator rule. The embedding values come from a BLAS product, but they only
enter through the argmax of each row, so the pins hold on every kernel.
Regenerate them only for a deliberate change of the instances or the report:

    PYTHONPATH=src python tests/test_verify_golden.py
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import pytest

from dte.cli import main

CASES = {"mixed": [], "epsilon-zero": ["--epsilon-zero"]}


def report_digest(name: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "verify.json"
        assert main(["verify-theory", "--instances", "200", "--seed", "42", *CASES[name],
                     "--out", str(out)]) == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()


PINS = {
    "epsilon-zero": "93e728180dbb387694e810a429d85f057985c11aa20bb4a3dfa3e3f6f08a1bcd",
    "mixed": "7835b6d25451f0ef8820f17d315688ffca2c25575e5a2af5bda39deeb8d79bc3",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_report_matches_golden_digest(name, capsys):
    assert report_digest(name) == PINS[name]
    assert capsys.readouterr().out == "verified 200 instances, 0 failures\n"


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{report_digest(case)}",')
