"""Regenerate the golden trained-weight summary.

Run from the repo root:

    PYTHONPATH=src python scripts/gen_golden_trainer_weights.py

Writes ``tests/data/golden_trainer_weights.json``: the sum and L2 norm
of every network parameter after the golden run at rollout width 4.
Only rerun this when an *intentional* change to the learner's
numerics invalidates it; a no-op diff means the PPO update is unchanged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tests"))

from golden_utils import GOLDEN_WEIGHTS_PATH, build_golden_env, run_golden_weights


def main() -> int:
    record = run_golden_weights(build_golden_env())
    out_path = REPO_ROOT / GOLDEN_WEIGHTS_PATH
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out_path}")
    for width, summary in record.items():
        print(f"batch_size={width}: {len(summary)} parameters")
    return 0


if __name__ == "__main__":
    sys.exit(main())
