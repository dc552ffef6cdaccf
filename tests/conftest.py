import sys
from pathlib import Path

from hypothesis import settings

# allow running the suite from a fresh checkout without installing
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# one profile for every property test: no per-example deadline on a shared
# host, and the same examples on every run with nothing stored between runs
settings.register_profile("fracburgers", deadline=None, derandomize=True, database=None)
settings.load_profile("fracburgers")
