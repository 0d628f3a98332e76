"""Tests for the scripts under tools/."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_digest_is_repeatable():
    # two runs on one checkout hash every case alike: the grid is seeded,
    # and no output depends on uninitialised memory
    cmd = [sys.executable, str(ROOT / "tools" / "digest.py"), str(ROOT)]
    first, second = (
        subprocess.run(cmd, capture_output=True, text=True, check=True).stdout for _ in range(2)
    )
    lines = first.splitlines()
    assert len(lines) > 3000 and len(set(lines)) == len(lines)
    assert all(len(line.split()) == 2 for line in lines)
    assert first == second
