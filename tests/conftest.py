import sys
from pathlib import Path

# allow running the tests from a fresh checkout without installing
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

