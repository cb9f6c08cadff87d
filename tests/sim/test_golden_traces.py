"""Golden-trace regression corpus (tier-1).

Recomputes the event-trace digest and the deterministic-payload digest of
every pinned ``(scenario, seed)`` case and compares them against the
committed corpus under ``tests/sim/golden/``.  A mismatch means an
RNG-stream or trajectory change: if intentional, regenerate with
``python scripts/gen_golden_traces.py`` and say so in the commit; if not,
this test just caught a silent behavioural regression (the failure mode
PR 4's bulk-draw refactor had to be property-tested against).
"""

import json
from pathlib import Path

import pytest

from repro.sim.golden import GOLDEN_CASES, GOLDEN_SEEDS, compute_pins

GOLDEN_DIR = Path(__file__).parent / "golden"


def load_corpus(scenario: str) -> dict:
    path = GOLDEN_DIR / f"{scenario}.json"
    assert path.exists(), (
        f"{path} missing; generate it with scripts/gen_golden_traces.py"
    )
    return json.loads(path.read_text())


class TestCorpusShape:
    def test_every_sim_scenario_pinned(self):
        assert set(GOLDEN_CASES) == {
            "sim-keyrate",
            "sim-outage",
            "sim-adaptive",
            "sim-multipath",
            "sim-routing-compare",
        }

    @pytest.mark.parametrize("scenario", sorted(GOLDEN_CASES))
    def test_corpus_file_matches_module_definition(self, scenario):
        """The committed params/seeds are the ones this module would run."""
        corpus = load_corpus(scenario)
        assert corpus["kind"] == "golden_traces"
        assert corpus["format_version"] == 2
        assert corpus["params"] == GOLDEN_CASES[scenario]
        assert set(corpus["digests"]) == {str(s) for s in GOLDEN_SEEDS}
        for seed, entry in corpus["digests"].items():
            # one payload digest beside every trace digest
            assert set(corpus["payloads"][seed]) == set(entry)
            for digest in (*entry.values(), *corpus["payloads"][seed].values()):
                assert len(digest) == 64 and int(digest, 16) >= 0


@pytest.mark.parametrize("scenario", sorted(GOLDEN_CASES))
def test_recomputed_digests_match_corpus(scenario):
    corpus = load_corpus(scenario)
    for seed in GOLDEN_SEEDS:
        digests, payloads = compute_pins(scenario, seed)
        pinned = corpus["digests"][str(seed)]
        assert digests == pinned, (
            f"{scenario} seed {seed}: event trace diverged from the golden "
            f"corpus ({digests} != {pinned}).  If this trajectory change "
            "is intentional, regenerate tests/sim/golden/ with "
            "scripts/gen_golden_traces.py and document why."
        )
        # Routing of successes, drops and delivered/served bits are not in
        # the trace; the payload digest pins them.
        assert payloads == corpus["payloads"][str(seed)], (
            f"{scenario} seed {seed}: result payload diverged from the "
            f"golden corpus ({payloads} != {corpus['payloads'][str(seed)]})"
        )


def test_disrupted_cases_actually_disrupt():
    """The corpus must cover outages, or it cannot guard those streams."""
    from repro.api.service import SolverService
    from repro.experiments.simulation import run_outage_sim

    params = GOLDEN_CASES["sim-outage"]
    outages = 0
    for seed in GOLDEN_SEEDS:
        result = run_outage_sim(
            seed=seed,
            duration_s=params["duration"],
            outage_rate=params["outage_rate"],
            outage_duration_s=params["outage_duration"],
            demand_factor=params["demand_factor"],
            sample_dt=params["sample_dt"],
            service=SolverService(),
        )
        outages += result.outage_count
    assert outages >= 1
