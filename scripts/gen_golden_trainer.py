"""Regenerate the golden trainer trajectory.

Run from the repo root:

    PYTHONPATH=src python scripts/gen_golden_trainer.py

Writes ``tests/data/golden_trainer.json``: the rewards, best placement
and deadlock count of the golden run at rollout width 4.  Only rerun
this when an *intentional* behavior change invalidates the golden
values; a no-op diff means training is unchanged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tests"))

from golden_utils import GOLDEN_PATH, build_golden_env, build_golden_trainer, run_golden


def main() -> int:
    env = build_golden_env()
    trainer = build_golden_trainer(env)
    record = run_golden(trainer)
    out_path = REPO_ROOT / GOLDEN_PATH
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out_path}")
    print(f"best_reward = {record['best_reward']:.6f}")
    print(f"mean_rewards = {record['mean_rewards']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
