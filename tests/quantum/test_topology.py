"""Tests for the SURFnet topology and the QKDNetwork container (Tables III-IV)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.quantum.routing import Route
from repro.quantum.topology import (
    Link,
    QKDNetwork,
    SURFNET_LINKS,
    SURFNET_ROUTES,
    beta_from_length,
    surfnet_network,
)


class TestTableIV:
    def test_eighteen_links(self):
        assert len(SURFNET_LINKS) == 18

    def test_betas_match_paper(self):
        expected = {1: 89.84, 6: 40.76, 9: 99.02, 10: 100.98, 18: 46.82}
        for link_id, beta in expected.items():
            assert SURFNET_LINKS[link_id - 1].beta == pytest.approx(beta)

    def test_lengths_match_paper(self):
        expected = {1: 30.6, 2: 60.4, 12: 66.3, 17: 30.2, 18: 70.0}
        for link_id, length in expected.items():
            assert SURFNET_LINKS[link_id - 1].length_km == pytest.approx(length)

    def test_beta_physics_model_fits_table(self):
        # The calibrated β(length) model should match Table IV within ~3%.
        for link in SURFNET_LINKS:
            model = beta_from_length(link.length_km)
            assert model == pytest.approx(link.beta, rel=0.03)

    def test_beta_decreases_with_length(self):
        assert beta_from_length(20.0) > beta_from_length(50.0) > beta_from_length(80.0)


class TestTableIII:
    def test_six_routes(self):
        assert len(SURFNET_ROUTES) == 6

    def test_routes_match_paper_links(self):
        expected = {
            1: (17, 2, 1),
            2: (17, 3, 4, 5),
            3: (16, 4, 5, 11, 10),
            4: (15, 18),
            5: (15, 14, 13, 12, 9),
            6: (15, 14, 13, 12, 8, 7),
        }
        for route in SURFNET_ROUTES:
            assert route.link_ids == expected[route.route_id]

    def test_all_routes_start_at_hilversum(self):
        assert all(r.source == "Hilversum" for r in SURFNET_ROUTES)

    def test_route_destinations(self):
        targets = [r.target for r in SURFNET_ROUTES]
        assert targets == ["Delft", "Zwolle", "Apeldoorn", "Rotterdam", "Arnhem", "Enschede"]

    def test_link_six_unused(self):
        # Table VI reports w_6 = 1.0000 — link 6 carries no route.
        used = {l for r in SURFNET_ROUTES for l in r.link_ids}
        assert 6 not in used
        assert used == set(range(1, 19)) - {6}


class TestQKDNetwork:
    def test_surfnet_shape(self):
        net = surfnet_network()
        assert net.num_links == 18
        assert net.num_routes == 6
        assert net.key_center == "Hilversum"

    def test_incidence_matrix(self):
        net = surfnet_network()
        a = net.incidence
        assert a.shape == (18, 6)
        # Route 4 = links 15 and 18.
        assert a[14, 3] == 1.0 and a[17, 3] == 1.0
        assert a[:, 3].sum() == 2
        # Link 15 carries routes 4, 5, 6.
        assert a[14].tolist() == [0, 0, 0, 1, 1, 1]

    def test_betas_vector_ordering(self):
        net = surfnet_network()
        assert net.betas[0] == pytest.approx(89.84)
        assert net.betas[17] == pytest.approx(46.82)

    def test_routes_are_connected_paths(self):
        # The constructor validates each route walks the graph; just build it.
        surfnet_network()

    def test_invalid_route_rejected(self):
        links = list(SURFNET_LINKS)
        bad = Route(1, "Hilversum", "Delft", (1, 2))  # link 1 does not touch Hilversum
        with pytest.raises(ValueError, match="does not touch"):
            QKDNetwork(links, [bad], key_center="Hilversum")

    def test_route_must_start_at_key_center(self):
        links = list(SURFNET_LINKS)
        bad = Route(1, "Delft", "Leiden", (1,))
        with pytest.raises(ValueError, match="key centre"):
            QKDNetwork(links, [bad], key_center="Hilversum")

    def test_wrong_target_rejected(self):
        links = list(SURFNET_LINKS)
        bad = Route(1, "Hilversum", "Leiden", (17, 2, 1))  # actually ends at Delft
        with pytest.raises(ValueError, match="ends at"):
            QKDNetwork(links, [bad], key_center="Hilversum")

    def test_key_center_must_be_a_link_endpoint(self):
        links = [Link(1, ("A", "B"), 10.0, 50.0)]
        with pytest.raises(ValueError, match="not a node"):
            QKDNetwork(links, [Route(1, "A", "B", (1,))], key_center="Z")

    def test_key_center_may_be_either_endpoint(self):
        links = [Link(1, ("A", "B"), 10.0, 50.0)]
        net = QKDNetwork(links, [Route(1, "B", "A", (1,))], key_center="B")
        assert net.key_center == "B"

    def test_link_ids_must_be_contiguous(self):
        links = [Link(2, ("A", "B"), 10.0, 50.0)]
        with pytest.raises(ValueError, match="1..L"):
            QKDNetwork(links, [Route(1, "A", "B", (2,))], key_center="A")

    def test_max_uniform_rate_positive(self):
        net = surfnet_network()
        assert net.max_uniform_rate() > 0

    def test_from_edge_list_shortest_paths(self):
        edges = [("KC", "A", 10.0), ("A", "B", 10.0), ("KC", "B", 50.0)]
        net = QKDNetwork.from_edge_list(edges, ["B"], key_center="KC")
        # Shortest path KC->B goes via A (20 km < 50 km).
        assert net.routes[0].link_ids == (1, 2)

    def test_from_edge_list_with_explicit_betas(self):
        edges = [("KC", "A", 10.0)]
        net = QKDNetwork.from_edge_list(edges, ["A"], key_center="KC", betas={1: 77.0})
        assert net.betas[0] == 77.0

    def test_from_edge_list_unknown_client(self):
        with pytest.raises(ValueError, match="not in the edge list"):
            QKDNetwork.from_edge_list([("KC", "A", 1.0)], ["Z"], key_center="KC")


class TestLinkValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Link(1, ("A", "A"), 10.0, 50.0)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            Link(1, ("A", "B"), 0.0, 50.0)

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(ValueError):
            Link(1, ("A", "B"), 10.0, -1.0)


def test_solver_daemon_and_simulator_load_without_networkx():
    """Building a QKDNetwork needs no graph library; only
    ``from_edge_list`` routes with networkx, and imports it itself."""
    src = Path(__file__).resolve().parents[2] / "src"
    script = (
        "import sys\n"
        "import repro.api.service, repro.sim.qnetwork, repro.serve.server\n"
        "print('networkx' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        check=True, capture_output=True, text=True,
    ).stdout
    assert out.strip() == "False"
