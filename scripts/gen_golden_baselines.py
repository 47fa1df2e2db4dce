"""Regenerate the golden single-chain baseline results.

Run from the repo root:

    PYTHONPATH=src python scripts/gen_golden_baselines.py

Only rerun this when an *intentional* behavior change invalidates the
golden values — the whole point of ``tests/data/golden_baselines.json``
is that the ``n_chains=1`` search baselines stay bitwise-faithful to the
results the original single-chain engines produced (floats are compared
via ``float.hex()``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tests"))

from golden_baseline_utils import GOLDEN_BASELINES_PATH, run_golden_baselines


def main() -> int:
    record = run_golden_baselines()
    out_path = REPO_ROOT / GOLDEN_BASELINES_PATH
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out_path}")
    for method, data in record.items():
        key = "best_cost" if "best_cost" in data else "reward"
        print(f"{method}: {key} = {float.fromhex(data[key]):.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
