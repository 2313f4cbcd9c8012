"""Dense integer indexing of a frozen :class:`Topology`.

Node ids are assigned hosts-first (both groups in their sorted order),
so ``node_id < n_hosts`` iff the node is a host.  Every undirected link
``i`` (in ``topology.links`` order) owns two directed ids: ``2*i`` for
the canonical orientation ``(u, v)`` with ``u <= v`` and ``2*i + 1`` for
the reverse — so ``directed_id // 2`` recovers the undirected link and
parity recovers the orientation.

Shortest-path sets are cached per ordered ``(src, dst)`` pair.  All
shortest paths between two nodes have the same hop count, so a pair's
path set is a rectangular matrix of directed-link ids — which is what
lets the greedy consolidator price every candidate path of a flow in
one vectorized pass.

Fat-tree host pairs are compiled in closed form: per-edge and
per-(pod, group) uplink/downlink id tables, built once per index, are
broadcast into the pair's matrices without enumerating node names.  The
row order is the deterministic leftmost order of
:func:`repro.topology.paths.fat_tree_paths` (aggregation switches in
:meth:`~repro.topology.fattree.FatTree.agg_switches_in_pod` order;
core groups numerically, cores in
:meth:`~repro.topology.fattree.FatTree.cores_in_group` order), which the
heuristic's tie-breaking contract depends on.  Every other pair — and
every pair of a generic topology — goes through
:func:`repro.topology.paths.shortest_paths` (networkx fallback).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from ..topology.fattree import FatTree
from ..topology.graph import Topology
from ..topology.paths import shortest_paths

__all__ = [
    "PathSet",
    "TopologyIndex",
    "topology_index",
    "clear_index_registry",
]


@dataclass(frozen=True, eq=False)
class PathSet:
    """All shortest paths of one (src, dst) pair, as index matrices.

    ``n_paths`` may be zero (disconnected generic graphs); every matrix
    is rectangular because all shortest paths share one hop count.
    """

    #: Source node name (node paths are rebuilt from it and the hops).
    src: str
    #: Directed link ids, shape ``(n_paths, n_hops)``.
    dlinks: np.ndarray
    #: Undirected link ids (``dlinks // 2``), same shape.
    ulinks: np.ndarray
    #: Node ids of the switches on each path, shape ``(n_paths, n_switches)``.
    switch_nodes: np.ndarray
    #: True where a hop touches a host (access links are reserved at
    #: plain demand, never K-scaled), shape ``(n_paths, n_hops)``.
    #: Fat-tree path sets share one read-only array per path shape.
    host_hop: np.ndarray
    #: Head node name of every directed link id (index-wide, shared).
    dlink_heads: tuple[str, ...] = field(repr=False)
    _node_paths: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n_paths(self) -> int:
        return self.dlinks.shape[0]

    def node_path(self, row: int) -> tuple[str, ...]:
        """Node names of path ``row`` — the exact tuple a
        :class:`~repro.netsim.network.Routing` stores (memoised)."""
        path = self._node_paths.get(row)
        if path is None:
            heads = self.dlink_heads
            path = (self.src, *[heads[d] for d in self.dlinks[row].tolist()])
            self._node_paths[row] = path
        return path


class _FatTreeTables:
    """Per-index link/node id tables behind the closed-form path sets.

    Edge switches are numbered ``pod * k/2 + index``.  Same-pod tables
    are indexed by position in ``agg_switches_in_pod`` order, inter-pod
    tables by core group and position in ``cores_in_group`` order.
    """

    def __init__(self, index: "TopologyIndex", ft: FatTree):
        k, half = ft.k, ft.k // 2
        nid, did = index.node_id, index.dlink_id
        n_edges = k * half
        #: host name -> (up dlink, down dlink, edge number, pod)
        self.hosts: dict[str, tuple[int, int, int, int]] = {}
        self.edge_node = np.empty(n_edges, dtype=np.intp)
        self.pod_up = np.empty((n_edges, half), dtype=np.intp)
        self.pod_down = np.empty((n_edges, half), dtype=np.intp)
        self.pod_agg = np.empty((k, half), dtype=np.intp)
        self.group_up = np.empty((n_edges, half), dtype=np.intp)
        self.group_down = np.empty((n_edges, half), dtype=np.intp)
        self.group_agg = np.empty((k, half), dtype=np.intp)
        self.core_up = np.empty((k, half, half), dtype=np.intp)
        self.core_down = np.empty((k, half, half), dtype=np.intp)
        self.core_node = np.empty((half, half), dtype=np.intp)
        cores = [ft.cores_in_group(g) for g in range(half)]
        for g, names in enumerate(cores):
            self.core_node[g] = [nid[c] for c in names]
        for pod in range(k):
            pod_aggs = ft.agg_switches_in_pod(pod)
            group_aggs = [ft.agg_name(pod, g) for g in range(half)]
            self.pod_agg[pod] = [nid[a] for a in pod_aggs]
            self.group_agg[pod] = [nid[a] for a in group_aggs]
            for g, agg in enumerate(group_aggs):
                self.core_up[pod, g] = [did[(agg, c)] for c in cores[g]]
                self.core_down[pod, g] = [did[(c, agg)] for c in cores[g]]
            for e in range(half):
                edge = ft.edge_name(pod, e)
                n = pod * half + e
                self.edge_node[n] = nid[edge]
                self.pod_up[n] = [did[(edge, a)] for a in pod_aggs]
                self.pod_down[n] = [did[(a, edge)] for a in pod_aggs]
                self.group_up[n] = [did[(edge, a)] for a in group_aggs]
                self.group_down[n] = [did[(a, edge)] for a in group_aggs]
                for i in range(half):
                    host = ft.host_name(pod, e, i)
                    self.hosts[host] = (did[(host, edge)], did[(edge, host)], n, pod)
        self.half = half
        # Only the access hops (first and last) touch a host; one
        # read-only pattern per path shape, keyed by hop count.
        self.host_hop: dict[int, np.ndarray] = {}
        for n_paths, n_hops in ((1, 2), (half, 4), (half * half, 6)):
            host_hop = np.zeros((n_paths, n_hops), dtype=bool)
            host_hop[:, [0, -1]] = True
            host_hop.flags.writeable = False
            self.host_hop[n_hops] = host_hop

    def matrices(self, src: str, dst: str):
        """``(dlinks, switch_nodes, host_hop)`` of a distinct host pair."""
        s_up, _, s_edge, s_pod = self.hosts[src]
        _, d_down, d_edge, d_pod = self.hosts[dst]
        half = self.half
        if s_edge == d_edge:
            dlinks = np.array([[s_up, d_down]], dtype=np.intp)
            switch_nodes = np.array([[self.edge_node[s_edge]]], dtype=np.intp)
            return dlinks, switch_nodes, self.host_hop[2]
        if s_pod == d_pod:
            dlinks = np.empty((half, 4), dtype=np.intp)
            dlinks[:, 0] = s_up
            dlinks[:, 1] = self.pod_up[s_edge]
            dlinks[:, 2] = self.pod_down[d_edge]
            dlinks[:, 3] = d_down
            switch_nodes = np.empty((half, 3), dtype=np.intp)
            switch_nodes[:, 0] = self.edge_node[s_edge]
            switch_nodes[:, 1] = self.pod_agg[s_pod]
            switch_nodes[:, 2] = self.edge_node[d_edge]
            return dlinks, switch_nodes, self.host_hop[4]
        dlinks = np.empty((half, half, 6), dtype=np.intp)
        dlinks[..., 0] = s_up
        dlinks[..., 1] = self.group_up[s_edge][:, None]
        dlinks[..., 2] = self.core_up[s_pod]
        dlinks[..., 3] = self.core_down[d_pod]
        dlinks[..., 4] = self.group_down[d_edge][:, None]
        dlinks[..., 5] = d_down
        switch_nodes = np.empty((half, half, 5), dtype=np.intp)
        switch_nodes[..., 0] = self.edge_node[s_edge]
        switch_nodes[..., 1] = self.group_agg[s_pod][:, None]
        switch_nodes[..., 2] = self.core_node
        switch_nodes[..., 3] = self.group_agg[d_pod][:, None]
        switch_nodes[..., 4] = self.edge_node[d_edge]
        return (
            dlinks.reshape(half * half, 6),
            switch_nodes.reshape(half * half, 5),
            self.host_hop[6],
        )


class TopologyIndex:
    """Integer-id view of one :class:`Topology` (built once, shared).

    Use :func:`topology_index` to obtain the cached instance for a
    topology rather than constructing directly.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self.node_names: tuple[str, ...] = topology.hosts + topology.switches
        self.node_id: dict[str, int] = {n: i for i, n in enumerate(self.node_names)}
        self.n_hosts = len(topology.hosts)
        self.n_nodes = len(self.node_names)
        self.is_switch_node = np.zeros(self.n_nodes, dtype=bool)
        self.is_switch_node[self.n_hosts :] = True

        self.ulink_names: tuple[tuple[str, str], ...] = topology.links
        self.n_ulinks = len(self.ulink_names)
        self.n_dlinks = 2 * self.n_ulinks
        self.ulink_id: dict[tuple[str, str], int] = {}
        self.dlink_id: dict[tuple[str, str], int] = {}
        self.dlink_capacity = np.empty(self.n_dlinks, dtype=float)
        self.dlink_touches_host = np.zeros(self.n_dlinks, dtype=bool)
        heads: list[str] = []
        for i, (u, v) in enumerate(self.ulink_names):
            self.ulink_id[(u, v)] = i
            self.dlink_id[(u, v)] = 2 * i
            self.dlink_id[(v, u)] = 2 * i + 1
            heads += (v, u)
            cap = topology.capacity(u, v)
            self.dlink_capacity[2 * i] = cap
            self.dlink_capacity[2 * i + 1] = cap
            if topology.is_host(u) or topology.is_host(v):
                self.dlink_touches_host[2 * i] = True
                self.dlink_touches_host[2 * i + 1] = True
        self.dlink_heads: tuple[str, ...] = tuple(heads)

        self._path_sets: dict[tuple[str, str], PathSet] = {}
        self._fat_tree: _FatTreeTables | None = None

    # -- name <-> id helpers ---------------------------------------------------

    def dlink_name(self, dlid: int) -> tuple[str, str]:
        """The (tail, head) node names of a directed link id."""
        u, v = self.ulink_names[dlid // 2]
        return (u, v) if dlid % 2 == 0 else (v, u)

    def switch_names(self, node_ids) -> list[str]:
        return [self.node_names[i] for i in node_ids]

    # -- path sets -------------------------------------------------------------

    def path_set(self, src: str, dst: str) -> PathSet:
        """The (cached) shortest-path set for one ordered pair."""
        key = (src, dst)
        ps = self._path_sets.get(key)
        if ps is None:
            ps = self._build_path_set(src, dst)
            self._path_sets[key] = ps
        return ps

    def _build_path_set(self, src: str, dst: str) -> PathSet:
        topo = self.topology
        if isinstance(topo, FatTree) and src != dst:
            if self._fat_tree is None:
                self._fat_tree = _FatTreeTables(self, topo)
            tables = self._fat_tree
            if src in tables.hosts and dst in tables.hosts:
                dlinks, switch_nodes, host_hop = tables.matrices(src, dst)
                return PathSet(
                    src, dlinks, dlinks // 2, switch_nodes, host_hop, self.dlink_heads
                )
        paths = shortest_paths(topo, src, dst)
        if not paths:
            empty_i = np.empty((0, 0), dtype=np.intp)
            return PathSet(
                src, empty_i, empty_i, empty_i, np.empty((0, 0), dtype=bool),
                self.dlink_heads,
            )
        n_hops = len(paths[0]) - 1
        dlinks = np.empty((len(paths), n_hops), dtype=np.intp)
        switch_rows: list[list[int]] = []
        for r, path in enumerate(paths):
            for h, (u, v) in enumerate(zip(path[:-1], path[1:])):
                dlinks[r, h] = self.dlink_id[(u, v)]
            switch_rows.append([self.node_id[n] for n in path if topo.is_switch(n)])
        switch_nodes = np.asarray(switch_rows, dtype=np.intp)
        if switch_nodes.size == 0:
            switch_nodes = switch_nodes.reshape(len(paths), 0)
        return PathSet(
            src,
            dlinks,
            dlinks // 2,
            switch_nodes,
            self.dlink_touches_host[dlinks],
            self.dlink_heads,
        )


#: One index per live Topology object; keyed by identity so frozen
#: topologies shared across consolidators / models reuse one index (and
#: its path-set cache) without keeping dead topologies alive.
_TOPO_REFS: "weakref.WeakKeyDictionary[Topology, TopologyIndex]" = weakref.WeakKeyDictionary()

#: Content-fingerprint registry (the ``simfast.shared_table_engine``
#: pattern): distinct Topology objects with identical structure — the
#: common case when benchmarks and sweep tasks rebuild the same
#: fat-tree per run — share one compiled index and its path-set cache
#: instead of re-deriving the dense matrices from scratch.  Bounded,
#: insertion-ordered LRU; entries keep their origin topology alive via
#: ``TopologyIndex.topology``, which is why the bound stays small.
_CONTENT_REGISTRY: dict[str, TopologyIndex] = {}
_MAX_CONTENT_ENTRIES = 8


def topology_index(topology: Topology) -> TopologyIndex:
    """The shared :class:`TopologyIndex` for ``topology``.

    Resolution is two-level: an identity hit is free; otherwise the
    topology's content :meth:`~repro.topology.graph.Topology.fingerprint`
    is looked up in a process-wide registry, so a content-identical
    topology built by another consolidator/benchmark run reuses the
    already-compiled matrices (and every cached path set).  Only on a
    genuinely new structure is an index built.
    """
    idx = _TOPO_REFS.get(topology)
    if idx is None:
        key = topology.fingerprint()
        idx = _CONTENT_REGISTRY.pop(key, None)
        if idx is None:
            idx = TopologyIndex(topology)
            while len(_CONTENT_REGISTRY) >= _MAX_CONTENT_ENTRIES:
                del _CONTENT_REGISTRY[next(iter(_CONTENT_REGISTRY))]
        _CONTENT_REGISTRY[key] = idx
        _TOPO_REFS[topology] = idx
    return idx


def clear_index_registry() -> None:
    """Drop the content-keyed index registry (tests / memory pressure).

    Identity-keyed entries are weak and clear themselves; live
    topologies re-register on the next :func:`topology_index` call.
    """
    _CONTENT_REGISTRY.clear()
