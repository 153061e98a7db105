"""The networkx VF2 reference matcher — differential oracle, not a hot path.

Until this subsystem existed, ``find_copy_among`` delegated the H-copy
search to networkx's generic VF2 matcher.  That implementation survives
here as the executable specification the differential tests pin the mask
matcher against; a VF2-refereed run of
:func:`repro.core.subgraph_detection.find_subgraph_simultaneous` swaps
that module's ``find_copy_in_rows`` binding for
:func:`find_copy_in_rows_reference`.

networkx is an *optional* dependency (the ``reference`` extra in
``pyproject.toml``): no production code path imports this module, and
importing it without networkx raises a pointed error rather than a bare
``ModuleNotFoundError``.

VF2 reports whichever copy its own search order reaches first — NOT the
mask matcher's canonical-first copy — so differential tests compare
found/not-found and *validate* reported copies (via
:func:`repro.patterns.matcher.is_copy_in_rows`) instead of comparing
images bit for bit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.graphs.graph import Edge
from repro.patterns.catalog import SubgraphPattern

__all__ = [
    "networkx_available",
    "find_copy_among_reference",
    "find_copy_in_rows_reference",
]


def networkx_available() -> bool:
    """True when the optional ``reference`` dependency is importable."""
    try:
        import networkx  # noqa: F401
    except ImportError:
        return False
    return True


def _require_networkx():
    try:
        import networkx as nx
    except ImportError as exc:  # pragma: no cover - depends on env
        raise ImportError(
            "repro.patterns.reference needs networkx, an optional "
            "dependency used only for differential testing; install it "
            "via `pip install -e '.[reference]'`"
        ) from exc
    return nx


def find_copy_among_reference(edges: Iterable[Edge],
                              pattern: SubgraphPattern
                              ) -> tuple[int, ...] | None:
    """A monomorphic copy of H in a plain edge bag via VF2, or None.

    Returns the image vertices in pattern-vertex order.  The copy is
    whichever VF2 finds first; only found/not-found is specified.
    """
    nx = _require_networkx()
    from networkx.algorithms import isomorphism

    host = nx.Graph()
    host.add_edges_from(edges)
    if host.number_of_edges() < pattern.num_edges:
        return None
    matcher = isomorphism.GraphMatcher(host, pattern.to_networkx())
    for mapping in matcher.subgraph_monomorphisms_iter():
        inverse = {pattern_v: host_v for host_v, pattern_v in mapping.items()}
        return tuple(inverse[i] for i in range(pattern.num_vertices))
    return None


def find_copy_in_rows_reference(rows: Sequence[int],
                                pattern: SubgraphPattern
                                ) -> tuple[int, ...] | None:
    """Rows-interface twin of :func:`find_copy_among_reference`.

    Unpacks the adjacency masks into an edge list and runs VF2 — a
    drop-in replacement for :func:`repro.patterns.matcher.find_copy_in_rows`
    in reference referee runs.
    """
    edges = []
    for u, mask in enumerate(rows):
        upper = mask >> (u + 1)
        while upper:
            low = upper & -upper
            edges.append((u, u + low.bit_length()))
            upper ^= low
    return find_copy_among_reference(edges, pattern)
