import os
from pathlib import Path

from hypothesis import settings

# derandomized with no example database, so every run draws the same examples
settings.register_profile("loopfield", derandomize=True, database=None, deadline=None, max_examples=50)
settings.load_profile("loopfield")

# CLI tests run `python -m loopfield` in subprocesses; let them import this
# checkout's package without PYTHONPATH set by hand
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
