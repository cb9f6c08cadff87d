"""Tests for the Fig. 6 resource sweeps."""

import numpy as np
import pytest

from repro.experiments.fig6_sweeps import PAPER_SWEEPS, SweepSeries, sweep


@pytest.fixture(scope="module")
def bandwidth_series(typical_cfg):
    return sweep("bandwidth", typical_cfg, values=[0.5e7, 1.0e7, 1.5e7])


class TestSweep:
    def test_series_shapes(self, bandwidth_series):
        assert len(bandwidth_series.x_values) == 3
        assert set(bandwidth_series.objectives) == {"AA", "OLAA", "OCCR", "QuHE"}
        assert all(len(v) == 3 for v in bandwidth_series.objectives.values())

    def test_quhe_wins_everywhere(self, bandwidth_series):
        """The paper's Fig. 6 claim: QuHE leads at every operating point."""
        assert set(bandwidth_series.best_method_per_point()) == {"QuHE"}

    def test_quhe_improves_with_bandwidth(self, bandwidth_series):
        """Fig. 6(a): more bandwidth yields notable gains for QuHE."""
        series = bandwidth_series.objectives["QuHE"]
        assert series[-1] > series[0]

    def test_aa_marginal_with_bandwidth(self, bandwidth_series):
        """Fig. 6(a): AA/OLAA react only marginally to more bandwidth."""
        aa = bandwidth_series.objectives["AA"]
        quhe = bandwidth_series.objectives["QuHE"]
        assert (aa[-1] - aa[0]) <= (quhe[-1] - quhe[0]) + 0.5

    def test_server_cpu_destabilises_aa(self, typical_cfg):
        """Fig. 6(d): AA/OLAA degrade as f_total grows (energy ∝ f_s²),
        while OCCR/QuHE stay stable."""
        series = sweep("server_cpu", typical_cfg, values=[2.0e10, 3.0e10])
        aa = series.objectives["AA"]
        quhe = series.objectives["QuHE"]
        assert aa[-1] < aa[0]  # AA gets worse
        assert abs(quhe[-1] - quhe[0]) < 0.5  # QuHE stable

    def test_unknown_parameter_rejected(self, typical_cfg):
        with pytest.raises(ValueError, match="unknown sweep"):
            sweep("nonsense", typical_cfg)

    def test_paper_grids_defined_for_all_panels(self):
        assert set(PAPER_SWEEPS) == {"bandwidth", "power", "client_cpu", "server_cpu"}
        for grid in PAPER_SWEEPS.values():
            assert len(grid) == 5

    def test_render(self, bandwidth_series):
        text = bandwidth_series.render()
        assert "bandwidth" in text and "QuHE" in text

    def test_quhe_points_match_lone_solves(self, typical_cfg, bandwidth_series):
        """Each grid point's QuHE objective is the one a lone solve of that
        point's config gives: batching the grid couples no points."""
        from repro.api.service import SolverService

        lone = [
            SolverService().solve(typical_cfg.with_total_bandwidth(v)).objective
            for v in bandwidth_series.x_values
        ]
        assert bandwidth_series.objectives["QuHE"] == lone

    def test_shared_service_serves_a_repeated_sweep_from_cache(
        self, typical_cfg, bandwidth_series
    ):
        from repro.api.service import SolverService

        service = SolverService()
        values = list(bandwidth_series.x_values)
        first = sweep("bandwidth", typical_cfg, values=values, service=service)
        again = sweep("bandwidth", typical_cfg, values=values, service=service)
        assert again.objectives == first.objectives == bandwidth_series.objectives
        assert service.cache_info()["hits"] == len(values)
