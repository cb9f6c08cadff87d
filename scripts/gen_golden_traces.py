#!/usr/bin/env python
"""(Re)generate the golden event-trace corpus under ``tests/sim/golden/``.

One JSON file per ``sim-*`` scenario, pinning the SHA-256 event-trace
digest and the SHA-256 of the deterministic result payload of every run at
every :data:`repro.sim.golden.GOLDEN_SEEDS` seed under the
:data:`repro.sim.golden.GOLDEN_CASES` parameters.  The tier-1 test
``tests/sim/test_golden_traces.py`` recomputes and compares them.

Regenerate **only** when a trajectory change is intentional (a new RNG
stream, a physics change) — and say so in the commit message; the whole
point of the corpus is that accidental trajectory changes fail loudly.

Usage::

    PYTHONPATH=src python scripts/gen_golden_traces.py          # rewrite
    PYTHONPATH=src python scripts/gen_golden_traces.py --check  # diff only
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.sim.golden import GOLDEN_CASES, GOLDEN_SEEDS, compute_pins  # noqa: E402

GOLDEN_DIR = REPO_ROOT / "tests" / "sim" / "golden"


def corpus_payload(scenario: str) -> dict:
    pins = {str(seed): compute_pins(scenario, seed) for seed in GOLDEN_SEEDS}
    return {
        "kind": "golden_traces",
        "format_version": 2,
        "scenario": scenario,
        "params": GOLDEN_CASES[scenario],
        "digests": {seed: digests for seed, (digests, _) in pins.items()},
        "payloads": {seed: payloads for seed, (_, payloads) in pins.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any committed file is out of date")
    args = parser.parse_args(argv)

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    stale = []
    for scenario in GOLDEN_CASES:
        path = GOLDEN_DIR / f"{scenario}.json"
        rendered = json.dumps(corpus_payload(scenario), indent=2) + "\n"
        if args.check:
            if not path.exists() or path.read_text() != rendered:
                stale.append(path)
                print(f"STALE: {path}")
            else:
                print(f"ok: {path}")
        else:
            path.write_text(rendered)
            print(f"wrote {path}")
    if args.check and stale:
        print("golden corpus out of date; regenerate with "
              "scripts/gen_golden_traces.py if the change is intentional")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
