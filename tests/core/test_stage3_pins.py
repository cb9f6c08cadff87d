"""Stage-3 bit pins (tier-1).

Recomputes, through ``scripts/gen_stage3_pins.py``, one SHA-256 per config
of a fixed corpus (K=1 solves, a K=16 bandwidth panel, a K=8 batch, mixed
topologies, fig3 box warm starts, the fig6 OCCR baselines) and each solve's
Newton iteration count, and compares them with the committed
``tests/core/golden/stage3_digests.json``.  A difference means the Stage-3
IPM computes different bits or takes different Newton steps.
"""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "scripts" / "gen_stage3_pins.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("gen_stage3_pins", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage3_bits_match_pins():
    pins = _load_script()
    committed = json.loads(pins.PINS_PATH.read_text())
    computed = pins.compute_pins()
    assert computed["solves"].keys() == committed["solves"].keys()
    for name, want in committed["solves"].items():
        got = computed["solves"][name]
        assert got == want, (
            f"Stage-3 bits of {name!r} moved (Newton iterations "
            f"{want['newton_iterations']} -> {got['newton_iterations']}). "
            "Regenerate tests/core/golden/stage3_digests.json with "
            "scripts/gen_stage3_pins.py only for a change meant to move "
            "Stage-3 bits, as for perfbench/pins.json."
        )
