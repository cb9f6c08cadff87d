"""Tests for Problem P1: objective assembly and constraint checking."""

import numpy as np
import pytest

from repro.core.problem import QuHEProblem
from repro.core.quhe import initial_allocation
from repro.core.solution import Allocation
from repro.crypto.security import weighted_minimum_security
from repro.quantum.utility import qkd_utility, route_werner_parameters


@pytest.fixture()
def problem(paper_cfg):
    return QuHEProblem(paper_cfg)


@pytest.fixture()
def feasible(paper_cfg):
    return initial_allocation(paper_cfg)


class TestMetrics:
    def test_objective_composition(self, problem, paper_cfg, feasible):
        m = problem.metrics(feasible)
        expected = (
            paper_cfg.alpha_qkd * m.u_qkd
            + paper_cfg.alpha_msl * m.u_msl
            - paper_cfg.alpha_t * m.total_delay
            - paper_cfg.alpha_e * m.total_energy
        )
        assert m.objective == pytest.approx(expected)

    def test_u_qkd_matches_eq6(self, problem, paper_cfg, feasible):
        m = problem.metrics(feasible)
        varpi = route_werner_parameters(feasible.w, paper_cfg.network.incidence)
        assert m.u_qkd == pytest.approx(qkd_utility(feasible.phi, varpi))

    def test_u_msl_matches_eq9(self, problem, paper_cfg, feasible):
        m = problem.metrics(feasible)
        assert m.u_msl == pytest.approx(
            weighted_minimum_security(feasible.lam, paper_cfg.privacy_weights)
        )

    def test_total_delay_is_max(self, problem, feasible):
        m = problem.metrics(feasible)
        assert m.total_delay == pytest.approx(np.max(m.per_node_delay))

    def test_total_energy_is_sum(self, problem, feasible):
        m = problem.metrics(feasible)
        assert m.total_energy == pytest.approx(np.sum(m.per_node_energy))

    def test_explicit_T_above_delay_is_charged(self, problem, feasible):
        loose = feasible.with_updates(T=1e9)
        m_loose = problem.metrics(loose)
        m_tight = problem.metrics(feasible)
        assert m_loose.objective < m_tight.objective

    def test_uplink_rates_positive(self, problem, feasible):
        rates = problem.uplink_rates(feasible)
        assert np.all(rates > 0)


class TestConstraints:
    def test_initial_allocation_feasible(self, problem, feasible):
        assert problem.is_feasible(feasible)

    def test_17a_rate_floor(self, problem, feasible):
        bad = feasible.with_updates(phi=feasible.phi * 0.1)
        reports = problem.check_constraints(bad)
        assert any(r.constraint == "17a" for r in reports)

    def test_17b_werner_range(self, problem, feasible):
        w = feasible.w.copy()
        w[0] = 1.2
        reports = problem.check_constraints(feasible.with_updates(w=w))
        assert any(r.constraint == "17b" for r in reports)

    def test_17c_capacity(self, problem, paper_cfg, feasible):
        # Push rates far beyond the per-link budget with w near 1.
        bad = feasible.with_updates(
            phi=np.full(paper_cfg.num_clients, 50.0),
            w=np.full(paper_cfg.num_links, 0.999),
        )
        reports = problem.check_constraints(bad)
        assert any(r.constraint == "17c" for r in reports)

    def test_17d_lambda_set(self, problem, feasible):
        bad = feasible.with_updates(lam=np.full(feasible.num_clients, 1000.0))
        reports = problem.check_constraints(bad)
        assert any(r.constraint == "17d" for r in reports)

    def test_17e_power_cap(self, problem, feasible):
        bad = feasible.with_updates(p=feasible.p * 10)
        reports = problem.check_constraints(bad)
        assert any(r.constraint == "17e" for r in reports)

    def test_17f_bandwidth_cap(self, problem, feasible):
        bad = feasible.with_updates(b=feasible.b * 2)
        reports = problem.check_constraints(bad)
        assert any(r.constraint == "17f" for r in reports)

    def test_17g_client_cpu_cap(self, problem, feasible):
        bad = feasible.with_updates(f_c=feasible.f_c * 2)
        reports = problem.check_constraints(bad)
        assert any(r.constraint == "17g" for r in reports)

    def test_17h_server_cpu_cap(self, problem, feasible):
        bad = feasible.with_updates(f_s=feasible.f_s * 2)
        reports = problem.check_constraints(bad)
        assert any(r.constraint == "17h" for r in reports)

    def test_17i_delay_bound(self, problem, feasible):
        bad = feasible.with_updates(T=1e-6)
        reports = problem.check_constraints(bad)
        assert any(r.constraint == "17i" for r in reports)

    def test_domain_positivity(self, problem, feasible):
        p = feasible.p.copy()
        p[0] = -0.1
        reports = problem.check_constraints(feasible.with_updates(p=p))
        assert any(r.constraint in ("domain",) for r in reports)

    def test_report_format(self, problem, feasible):
        bad = feasible.with_updates(p=feasible.p * 10)
        report = problem.check_constraints(bad)[0]
        text = str(report)
        assert "17e" in text and "violated" in text
