"""Record tests/data/golden_numeric.json: the numeric path's tables.

Run from the repository root:

    PYTHONPATH=src python tests/data/record_golden_numeric.py

For each parametric fixture at the default grid and its halved() grid it
stores what tests/test_golden_numeric.py's `record` returns; that test
replays them.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE.parent))
from test_golden_numeric import records  # noqa: E402


def main():
    text = json.dumps({"contexts": records()}, indent=1) + "\n"
    (HERE / "golden_numeric.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
