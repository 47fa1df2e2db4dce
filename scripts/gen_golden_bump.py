"""Regenerate the golden bump-assigned wirelength records.

Run from the repo root:

    PYTHONPATH=src python scripts/gen_golden_bump.py

Only rerun this when an *intentional* behavior change invalidates the
golden values — the whole point of
``tests/data/golden_bump_wirelength.json`` is that the default reward
path's wirelength (microbump assignment) stays bitwise-identical while
it is optimized (floats are compared via ``float.hex()``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tests"))

from golden_bump_utils import GOLDEN_BUMP_PATH, run_golden_bump


def main() -> int:
    record = run_golden_bump()
    out_path = REPO_ROOT / GOLDEN_BUMP_PATH
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out_path}")
    for system, data in record.items():
        values = [float.fromhex(v) for v in data["wirelength"]]
        print(
            f"{system}: {len(values)} placements, wirelength "
            f"{min(values):.3f} .. {max(values):.3f} mm"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
