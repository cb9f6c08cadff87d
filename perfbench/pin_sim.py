"""Record the pinned trace digest and event count of every ``sim_routed`` case.

Run from the checkout root after a change that is *meant* to alter the
simulator's event trace (the golden-digest contract says that is rare)::

    python3 perfbench/pin_sim.py            # rewrites perfbench/pins.json

Simulation seeds 0, 1, 2, ... are recorded in order.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import import_repro  # noqa: E402


#: pinned simulation seeds per shape
FULL_CASES = 24
SMOKE_CASES = 16


def main() -> int:
    import_repro()
    from perfbench import sim_routed

    table = {}
    for name, shape, count in (
        ("smoke", sim_routed.SMOKE_SHAPE, SMOKE_CASES),
        ("full", sim_routed.Shape(), FULL_CASES),
    ):
        case = sim_routed.make_case(shape)
        table[name] = []
        for seed in range(count):
            table[name].append(sim_routed.pin_entry(case, seed))
            print(name, table[name][-1], flush=True)
    sim_routed.PINS.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
