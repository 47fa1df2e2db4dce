"""Regenerate the golden sequential experiment-runner results.

Run from the repo root:

    PYTHONPATH=src python scripts/gen_golden_experiments.py [--bump]

``--bump`` regenerates the bump-path twin
(``tests/data/golden_experiments_bump.json``: the same arms with
``use_bump_assignment=True``) instead.

Only rerun this when an *intentional* behavior change invalidates the
golden values — the whole point of ``tests/data/golden_experiments.json``
is that the ``jobs=1`` experiment path stays bitwise-faithful to the
pre-scheduler sequential runner (floats are compared via
``float.hex()``).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tests"))

from golden_experiments_utils import (
    GOLDEN_EXPERIMENTS_BUMP_PATH,
    GOLDEN_EXPERIMENTS_PATH,
    run_golden_experiments,
)


def main() -> int:
    bump = "--bump" in sys.argv[1:]
    with tempfile.TemporaryDirectory() as cache_dir:
        record = run_golden_experiments(cache_dir, use_bump_assignment=bump)
    out_path = REPO_ROOT / (
        GOLDEN_EXPERIMENTS_BUMP_PATH if bump else GOLDEN_EXPERIMENTS_PATH
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out_path}")
    for method, data in record.items():
        print(f"{method}: reward = {float.fromhex(data['reward']):.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
