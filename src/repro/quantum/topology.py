"""The SURFnet QKD evaluation topology (paper Fig. 2, Tables III-IV).

The paper evaluates on six routes over an 18-link subgraph of the Dutch
SURFnet research backbone, with Hilversum as the key centre.  Table IV fixes
each link's length and entanglement-generation parameter ``β_l``; Table III
fixes the six routes as ordered link-id sequences.  Those two tables are
reproduced verbatim here.

Fig. 2 does not include a machine-readable node/link incidence, so the
node-level graph below is a best-effort reconstruction that is *consistent
with Table III* (every route is a connected path rooted at Hilversum).  The
optimization results depend only on the incidence matrix ``A`` and ``β`` —
both taken directly from the tables — never on node names.

For networks other than SURFnet, :class:`QKDNetwork` can be built from any
edge list, with ``β`` either given per link or derived from the link length
via the physics model :func:`beta_from_length`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.quantum.routing import Route, incidence_matrix, routes_from_paths
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class Link:
    """One optical-fibre link of the QKD network.

    Attributes
    ----------
    link_id:
        1-based identifier as in paper Table IV.
    endpoints:
        Node-name pair (reconstruction; see module docstring).
    length_km:
        Fibre length in kilometres (Table IV).
    beta:
        Entanglement-generation parameter ``β_l = 3 κ_l η_l / (2 T_l)``
        in pairs per second (Table IV).
    """

    link_id: int
    endpoints: Tuple[str, str]
    length_km: float
    beta: float

    def __post_init__(self) -> None:
        if self.link_id < 1:
            raise ValueError(f"link_id must be >= 1, got {self.link_id}")
        check_positive("length_km", self.length_km)
        check_positive("beta", self.beta)
        if self.endpoints[0] == self.endpoints[1]:
            raise ValueError(f"link {self.link_id} is a self-loop at {self.endpoints[0]!r}")


#: Calibrated physics constants so that ``beta_from_length`` reproduces the
#: paper's Table IV values to within ~2%: β = (3 κ η) / (2 T) with midpoint
#: transmissivity η = 10^(-attenuation · (length/2) / 10).
_BETA_PREFACTOR: float = 149.138     # = 3 κ / (2 T) with κ=0.99, T≈10 ms
_BETA_ATTENUATION_DB_PER_KM: float = 0.1456


def beta_from_length(
    length_km: float,
    *,
    prefactor: float = _BETA_PREFACTOR,
    attenuation_db_per_km: float = _BETA_ATTENUATION_DB_PER_KM,
) -> float:
    """Physics model for the link parameter ``β`` (paper Eq. 3 discussion).

    ``β = 3 κ η / (2 T)`` where ``η`` is the transmissivity from one end of
    the link to its midpoint.  With fibre attenuation ``α`` (dB/km),
    ``η = 10^(-α (length/2) / 10)``.  The defaults are calibrated by
    least-squares on Table IV (see ``tests/quantum/test_topology.py``).
    """
    check_positive("length_km", length_km)
    check_positive("prefactor", prefactor)
    check_positive("attenuation_db_per_km", attenuation_db_per_km)
    eta = 10.0 ** (-attenuation_db_per_km * (length_km / 2.0) / 10.0)
    return prefactor * eta


# --- Paper Table IV: link lengths (km) and β per link id -------------------
_SURFNET_TABLE_IV: Dict[int, Tuple[float, float]] = {
    1: (30.6, 89.84),
    2: (60.4, 53.79),
    3: (38.9, 77.47),
    4: (44.2, 69.44),
    5: (47.7, 65.12),
    6: (78.7, 40.76),
    7: (60.0, 54.17),
    8: (58.1, 56.25),
    9: (25.7, 99.02),
    10: (24.4, 100.98),
    11: (44.7, 68.75),
    12: (66.3, 49.35),
    13: (62.5, 52.40),
    14: (33.8, 84.63),
    15: (36.7, 80.54),
    16: (35.4, 82.41),
    17: (30.2, 90.52),
    18: (70.0, 46.82),
}

# Node-level reconstruction consistent with Table III (see module docstring).
_SURFNET_ENDPOINTS: Dict[int, Tuple[str, str]] = {
    1: ("Leiden", "Delft"),
    2: ("Utrecht", "Leiden"),
    3: ("Utrecht", "Almere"),
    4: ("Almere", "Lelystad"),
    5: ("Lelystad", "Zwolle"),
    6: ("Leiden", "Amsterdam"),   # present in Fig. 2 but on no Table III route
    7: ("Zutphen", "Enschede"),
    8: ("Nijmegen", "Zutphen"),
    9: ("Nijmegen", "Arnhem"),
    10: ("Deventer", "Apeldoorn"),
    11: ("Zwolle", "Deventer"),
    12: ("Wageningen", "Nijmegen"),
    13: ("Amersfoort", "Wageningen"),
    14: ("Amsterdam", "Amersfoort"),
    15: ("Hilversum", "Amsterdam"),
    16: ("Hilversum", "Almere"),
    17: ("Hilversum", "Utrecht"),
    18: ("Amsterdam", "Rotterdam"),
}

#: Paper Table IV as :class:`Link` objects, ordered by link id.
SURFNET_LINKS: Tuple[Link, ...] = tuple(
    Link(
        link_id=link_id,
        endpoints=_SURFNET_ENDPOINTS[link_id],
        length_km=_SURFNET_TABLE_IV[link_id][0],
        beta=_SURFNET_TABLE_IV[link_id][1],
    )
    for link_id in sorted(_SURFNET_TABLE_IV)
)

#: Paper Table III: the six evaluation routes (key centre = Hilversum).
SURFNET_ROUTES: Tuple[Route, ...] = (
    Route(1, "Hilversum", "Delft", (17, 2, 1)),
    Route(2, "Hilversum", "Zwolle", (17, 3, 4, 5)),
    Route(3, "Hilversum", "Apeldoorn", (16, 4, 5, 11, 10)),
    Route(4, "Hilversum", "Rotterdam", (15, 18)),
    Route(5, "Hilversum", "Arnhem", (15, 14, 13, 12, 9)),
    Route(6, "Hilversum", "Enschede", (15, 14, 13, 12, 8, 7)),
)


class QKDNetwork:
    """A QKD network: links with β parameters plus client routes.

    This is the object consumed by the optimization layer (via
    :attr:`incidence` and :attr:`betas`) and by the protocol-level simulator
    (via :attr:`links` and :attr:`routes`).
    """

    def __init__(
        self,
        links: Sequence[Link],
        routes: Sequence[Route],
        *,
        key_center: str,
    ) -> None:
        if not links:
            raise ValueError("a QKD network needs at least one link")
        if not routes:
            raise ValueError("a QKD network needs at least one route")
        ids = [link.link_id for link in links]
        if sorted(ids) != list(range(1, len(links) + 1)):
            raise ValueError(f"link ids must be exactly 1..L, got {sorted(ids)}")
        self._links: Tuple[Link, ...] = tuple(sorted(links, key=lambda l: l.link_id))
        self._routes: Tuple[Route, ...] = tuple(routes)
        self.key_center = key_center
        if not any(key_center in link.endpoints for link in self._links):
            raise ValueError(f"key centre {key_center!r} is not a node of the network")
        for route in self._routes:
            self._validate_route_is_path(route)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_edge_list(
        cls,
        edges: Sequence[Tuple[str, str, float]],
        client_nodes: Sequence[str],
        *,
        key_center: str,
        betas: Optional[Mapping[int, float]] = None,
    ) -> "QKDNetwork":
        """Build a network from ``(u, v, length_km)`` edges.

        Routes are the shortest paths (by length) from ``key_center`` to each
        client node.  ``β`` comes from ``betas`` (keyed by 1-based link id,
        where edges are numbered in input order) or from
        :func:`beta_from_length`.
        """
        import networkx as nx

        links: List[Link] = []
        edge_to_link_id: Dict[frozenset, int] = {}
        for i, (u, v, length_km) in enumerate(edges, start=1):
            beta = betas[i] if betas is not None else beta_from_length(length_km)
            links.append(Link(i, (u, v), length_km, beta))
            edge_to_link_id[frozenset((u, v))] = i
        graph = nx.Graph()
        for link in links:
            graph.add_edge(*link.endpoints, weight=link.length_km)
        paths = []
        for client in client_nodes:
            if client not in graph:
                raise ValueError(f"client node {client!r} is not in the edge list")
            paths.append(nx.shortest_path(graph, key_center, client, weight="weight"))
        routes = routes_from_paths(paths, edge_to_link_id)
        return cls(links, routes, key_center=key_center)

    # -- validation ----------------------------------------------------------

    def _validate_route_is_path(self, route: Route) -> None:
        """Check the route's link sequence forms a connected walk from the centre."""
        current = route.source
        if current != self.key_center:
            raise ValueError(
                f"route {route.route_id} starts at {route.source!r}, "
                f"expected the key centre {self.key_center!r}"
            )
        for link_id in route.link_ids:
            link = self._links[link_id - 1]
            u, v = link.endpoints
            if current == u:
                current = v
            elif current == v:
                current = u
            else:
                raise ValueError(
                    f"route {route.route_id}: link {link_id} {link.endpoints} "
                    f"does not touch current node {current!r}"
                )
        if current != route.target:
            raise ValueError(
                f"route {route.route_id} ends at {current!r}, expected {route.target!r}"
            )

    # -- accessors -----------------------------------------------------------

    @property
    def links(self) -> Tuple[Link, ...]:
        """All links, ordered by 1-based link id."""
        return self._links

    @property
    def routes(self) -> Tuple[Route, ...]:
        """All client routes, in client-node order."""
        return self._routes

    @property
    def num_links(self) -> int:
        return len(self._links)

    @property
    def num_routes(self) -> int:
        return len(self._routes)

    @property
    def betas(self) -> np.ndarray:
        """Vector of ``β_l`` ordered by link id (length L)."""
        return np.array([link.beta for link in self._links], dtype=float)

    @property
    def incidence(self) -> np.ndarray:
        """The ``L x N`` incidence matrix ``A`` of paper Eq. 5."""
        return incidence_matrix(self._routes, self.num_links)

    def route_for_client(self, client_index: int) -> Route:
        """Route serving client node ``client_index`` (0-based)."""
        return self._routes[client_index]

    def max_uniform_rate(self) -> float:
        """Largest per-route rate φ feasible when all routes get the same φ.

        With uniform allocation, constraint (17c) reads
        ``φ · (#routes on link l) ≤ β_l (1 - w_l)``; maximised over ``w``
        (i.e. at ``w→0``) the bound is ``min_l β_l / load_l``.  Useful for
        sizing feasible starting points.
        """
        loads = self.incidence.sum(axis=1)
        used = loads > 0
        return float(np.min(self.betas[used] / loads[used]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QKDNetwork(L={self.num_links}, N={self.num_routes}, "
            f"key_center={self.key_center!r})"
        )


def surfnet_network() -> QKDNetwork:
    """The paper's evaluation network: SURFnet, 18 links, 6 routes, Hilversum centre."""
    return QKDNetwork(SURFNET_LINKS, SURFNET_ROUTES, key_center="Hilversum")
