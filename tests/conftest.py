import sys
from pathlib import Path

import pytest

# allow running the tests from a fresh checkout without installing
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture(autouse=True)
def default_cache_dir(monkeypatch, tmp_path) -> Path:
    """The table cache of a CLI call without --cache-dir: a directory of this
    test's own, never the user's SL2SWC_CACHE or ~/.cache/sl2swc."""
    path = tmp_path / "default-cache"
    monkeypatch.setenv("SL2SWC_CACHE", str(path))
    return path
