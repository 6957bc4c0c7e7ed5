"""Pinned CLI outputs: the SHA-256 of stdout for a fixed list of `table` and
`swc` commands.  The digests in golden_outputs.json were made from the code
before the finite-field tables were rebuilt from integer polynomials, and the
SL(2,16) and SL(2,17) table digests from the code before the group layer
moved to numpy index arrays, and the SL(2,19), SL(2,25), SL(2,27), GL(2,7)
and GL(2,9) table digests from the code before Dixon's method moved to numpy
arrays, and the SL(2,23), SL(2,31) and SL(2,32) table digests from the code
before orthogonality was checked in Z on eigenvalue spectra, and the
`swc --rep reg` digests at q = 16 and q = 32 from the code before monomials
were formatted a degree at a time; a refactor that
changes no behaviour must leave every one of them unchanged."""

import hashlib
import json
from pathlib import Path

import pytest

from sl2swc.cli import run

GOLDEN = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_golden_output(case, capsys, tmp_path):
    code = run([*case["argv"], "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]
