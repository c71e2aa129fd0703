import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "corpus"
GOLDEN_DIR = CORPUS_DIR / "golden"

# Runs from a checkout without installing: this checkout's src comes last on
# the path, so an explicit PYTHONPATH (another tree's src, say) is tested.
if str(ROOT / "src") not in sys.path:
    sys.path.append(str(ROOT / "src"))


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS_DIR


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture(scope="session")
def corpus_paths() -> list[Path]:
    paths = sorted(CORPUS_DIR.glob("*.txt"))
    assert paths, "corpus directory must not be empty"
    return paths
