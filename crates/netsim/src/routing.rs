//! Unicast routing tables and multicast distribution trees.
//!
//! Routes use shortest paths over link propagation delay (ties broken by hop
//! count via a tiny per-hop epsilon), which makes the unicast paths of all
//! evaluation topologies the obvious shortest paths.  Multicast distribution
//! trees are shortest-path source trees — exactly what DVMRP/PIM-SM would
//! build on these topologies.
//!
//! # Scaling
//!
//! Nothing here is all-pairs, and the adjacency is flat.  [`RoutingTable`]
//! keeps the forward hops in compressed sparse row form — one offset array
//! and one hop array, each node's hops in edge order — so a topology costs
//! one hop per link and one offset per node, with no per-node allocation.
//! Unicast next hops are computed **lazily per destination** (one reverse
//! Dijkstra the first time any node needs a route toward that destination);
//! the reverse adjacency they run over is built from the forward one on the
//! first such query, so a multicast-only run never holds it.  A multicast
//! tree is **one forward Dijkstra** from the source plus an incrementally
//! maintained, reference-counted member overlay ([`SourceTree`]): joining or
//! leaving a group touches only the member's path to the source, not the
//! whole tree.  This is what lets a single simulation hold 10⁶ receivers —
//! the seed implementation ran one Dijkstra per *node* up front and rebuilt
//! every tree on every membership change.

use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use crate::packet::{GroupId, LinkId, NodeId};

/// Per-hop cost epsilon added to the delay metric so that equal-delay paths
/// prefer fewer hops.
const HOP_EPSILON: f64 = 1e-9;

/// Directed adjacency description used for route computation.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Link id of this edge.
    pub link: LinkId,
    /// Upstream node.
    pub from: NodeId,
    /// Downstream node.
    pub to: NodeId,
    /// Propagation delay used as the routing metric.
    pub delay: f64,
}

/// One directed hop in an adjacency list: (neighbour, link, cost).
type Hop = (NodeId, LinkId, f64);

/// Directed hops in compressed sparse row form: the hops out of node `v`
/// are `hops[start[v]..start[v + 1]]`.
#[derive(Debug, Default)]
struct Adjacency {
    start: Vec<usize>,
    hops: Vec<Hop>,
}

impl Adjacency {
    /// Groups `(node, hop)` pairs by node with a counting sort, which keeps
    /// each node's hops in iteration order: Dijkstra relaxes them in that
    /// order, and the first of two equal-cost hops wins a tie.
    fn build(node_count: usize, pairs: impl Iterator<Item = (NodeId, Hop)> + Clone) -> Self {
        let mut start = vec![0; node_count + 1];
        for (node, _) in pairs.clone() {
            start[node.0 + 1] += 1;
        }
        for v in 0..node_count {
            start[v + 1] += start[v];
        }
        let mut hops = vec![(NodeId(0), LinkId(0), 0.0); start[node_count]];
        // `start[v]` serves as node v's fill cursor and ends at node v + 1's
        // offset, so shifting the array one slot up restores the offsets.
        for (node, hop) in pairs {
            hops[start[node.0]] = hop;
            start[node.0] += 1;
        }
        start.copy_within(..node_count, 1);
        start[0] = 0;
        Adjacency { start, hops }
    }

    fn node_count(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    fn hops(&self, node: usize) -> &[Hop] {
        &self.hops[self.start[node]..self.start[node + 1]]
    }

    /// The same hops with every direction flipped.  Hops that share both
    /// ends (parallel links) keep their relative order, which is the only
    /// order a Dijkstra tie depends on: hops to distinct neighbours never
    /// compete, and the heap pops by (distance, node) whatever the push
    /// order.
    fn reversed(&self) -> Self {
        let flipped = (0..self.node_count()).flat_map(|v| {
            self.hops(v)
                .iter()
                .map(move |&(to, link, cost)| (to, (NodeId(v), link, cost)))
        });
        Self::build(self.node_count(), flipped)
    }
}

/// Min-heap entry for Dijkstra; ordered by (distance, node) so the pop order
/// — and therefore tie-breaking between equal-cost paths — is deterministic.
#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}
impl Eq for HeapEntry {}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed for a min-heap; distances are finite and non-NaN.
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("distances are never NaN")
            .then(other.node.cmp(&self.node))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Shortest-path parents of a single-source Dijkstra: for every node, the
/// predecessor hop on its shortest path from the source (`None` for the
/// source itself and for unreachable nodes).
#[derive(Debug, Clone)]
pub struct PathParents {
    source: NodeId,
    parent: Vec<Option<(NodeId, LinkId)>>,
}

impl PathParents {
    /// The predecessor hop of `node`: the node the path arrives from and the
    /// link it arrives over.
    pub fn parent(&self, node: NodeId) -> Option<(NodeId, LinkId)> {
        self.parent[node.0]
    }

    /// True if `node` is reachable from the source.
    pub fn reachable(&self, node: NodeId) -> bool {
        node == self.source || self.parent[node.0].is_some()
    }
}

/// Unicast routing state over a fixed topology.
///
/// Construction only builds the forward adjacency; the reverse adjacency
/// and the per-destination next-hop tables are filled in on first use.
#[derive(Debug, Default)]
pub struct RoutingTable {
    /// Outgoing hops per node.
    fwd: Adjacency,
    /// Incoming hops per node, for the per-destination reverse Dijkstra;
    /// built by the first [`RoutingTable::next_hop`] that needs it.
    rev: Option<Adjacency>,
    /// Lazily computed: for destination `d`, `toward[&d][src]` is the next
    /// outgoing link at `src` on the shortest path to `d`.
    toward: BTreeMap<NodeId, Vec<Option<LinkId>>>,
}

impl RoutingTable {
    /// Builds the adjacency for `node_count` nodes over the given directed
    /// edges.  Cheap: next hops are computed lazily per destination.
    pub fn compute(node_count: usize, edges: &[Edge]) -> Self {
        Self::from_edges(node_count, edges.iter().copied())
    }

    /// [`RoutingTable::compute`] over any re-iterable edge source, so the
    /// simulator can route straight off its link table.
    pub(crate) fn from_edges(node_count: usize, edges: impl Iterator<Item = Edge> + Clone) -> Self {
        let hops = edges.map(|e| (e.from, (e.to, e.link, e.delay + HOP_EPSILON)));
        RoutingTable {
            fwd: Adjacency::build(node_count, hops),
            rev: None,
            toward: BTreeMap::new(),
        }
    }

    /// The outgoing link at `from` toward `to`, if a route exists.
    ///
    /// The first query for a destination runs one reverse Dijkstra rooted at
    /// it; later queries for the same destination are an array lookup.
    pub fn next_hop(&mut self, from: NodeId, to: NodeId) -> Option<LinkId> {
        let node_count = self.fwd.node_count();
        if from.0 >= node_count || to.0 >= node_count || from == to {
            return None;
        }
        let RoutingTable { fwd, rev, toward } = self;
        toward.entry(to).or_insert_with(|| {
            // A relaxed reverse hop (from, link) means the forward edge
            // `from -link-> node`: `from` reaches `to` by entering `link`
            // first.
            let rev = rev.get_or_insert_with(|| fwd.reversed());
            dijkstra_hops(rev, to.0)
                .into_iter()
                .map(|hop| hop.map(|(_, link)| link))
                .collect()
        })[from.0]
    }

    /// The full path of links from `from` to `to`, if a route exists.
    pub fn path(&mut self, from: NodeId, to: NodeId) -> Option<Vec<LinkId>> {
        let node_count = self.fwd.node_count();
        if from.0 >= node_count || to.0 >= node_count {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = from;
        while cur != to {
            if path.len() > node_count {
                return None; // routing loop, should not happen
            }
            let link = self.next_hop(cur, to)?;
            path.push(link);
            cur = self.fwd.hops(cur.0).iter().find(|hop| hop.1 == link)?.0;
        }
        Some(path)
    }

    /// Single-source shortest-path parents from `source` over the forward
    /// graph (used to build and incrementally maintain multicast trees).
    pub fn parents_from(&self, source: NodeId) -> PathParents {
        PathParents {
            source,
            parent: dijkstra_hops(&self.fwd, source.0),
        }
    }
}

/// Dijkstra from `root` over an adjacency, recording for every node the hop
/// `(neighbour, link)` chosen when the node was last relaxed (`None` for the
/// root and unreachable nodes).  Over the forward adjacency this yields
/// shortest-path parents; over the reversed adjacency, first hops toward the
/// root.  One body means cost metric and tie-breaking (deterministic via
/// [`HeapEntry`]'s (dist, node) order) can never diverge between unicast
/// routes and multicast trees.
fn dijkstra_hops(adjacency: &Adjacency, root: usize) -> Vec<Option<(NodeId, LinkId)>> {
    let node_count = adjacency.node_count();
    let mut dist = vec![f64::INFINITY; node_count];
    let mut hop: Vec<Option<(NodeId, LinkId)>> = vec![None; node_count];
    let mut done = vec![false; node_count];
    let mut heap = BinaryHeap::new();
    dist[root] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: root,
    });
    while let Some(HeapEntry { dist: d, node }) = heap.pop() {
        if done[node] {
            continue;
        }
        done[node] = true;
        for &(next, link, cost) in adjacency.hops(node) {
            let nd = d + cost;
            if nd < dist[next.0] {
                dist[next.0] = nd;
                hop[next.0] = Some((NodeId(node), link));
                heap.push(HeapEntry {
                    dist: nd,
                    node: next.0,
                });
            }
        }
    }
    hop
}

/// An incrementally maintained source-rooted multicast tree.
///
/// Built with one forward Dijkstra from the source; after that, member joins
/// and leaves walk only the member's path to the source, maintaining a
/// per-node reference count (how many members' paths pass through the node)
/// and the per-node sorted out-link lists.  The simulator's fan-out iterates
/// a node's list in place while it offers the replicas (the list is borrowed
/// from the tree, the links and the event queue are other fields), so a
/// lookup neither copies nor touches a reference count.
#[derive(Debug)]
pub struct SourceTree {
    parents: PathParents,
    /// Number of members whose delivery path passes through each node
    /// (the source itself is not counted).
    cnt: Vec<u32>,
    /// Sorted replication links out of each node (empty lists allocate
    /// nothing).
    out: Vec<Vec<LinkId>>,
}

impl SourceTree {
    /// Builds the tree rooted at `source` and attaches every current member.
    pub fn build(source: NodeId, members: &BTreeSet<NodeId>, routes: &RoutingTable) -> Self {
        let parents = routes.parents_from(source);
        let node_count = parents.parent.len();
        let mut tree = SourceTree {
            parents,
            cnt: vec![0; node_count],
            out: vec![Vec::new(); node_count],
        };
        // BTreeSet iteration is already the deterministic (ascending) attach
        // order.
        for &member in members {
            tree.add_member(member);
        }
        tree
    }

    /// Attaches a member: walks its path to the source, incrementing the
    /// per-node counts and materialising newly needed replication links.
    pub fn add_member(&mut self, member: NodeId) {
        if !self.parents.reachable(member) || member == self.parents.source {
            return;
        }
        let mut cur = member;
        while let Some((up, link)) = self.parents.parent(cur) {
            self.cnt[cur.0] += 1;
            if self.cnt[cur.0] == 1 {
                let list = &mut self.out[up.0];
                if let Err(pos) = list.binary_search(&link) {
                    list.insert(pos, link);
                }
            }
            cur = up;
        }
    }

    /// Detaches a member: the mirror image of [`SourceTree::add_member`].
    pub fn remove_member(&mut self, member: NodeId) {
        if !self.parents.reachable(member) || member == self.parents.source {
            return;
        }
        let mut cur = member;
        while let Some((up, link)) = self.parents.parent(cur) {
            debug_assert!(self.cnt[cur.0] > 0, "leave without matching join");
            self.cnt[cur.0] = self.cnt[cur.0].saturating_sub(1);
            if self.cnt[cur.0] == 0 {
                let list = &mut self.out[up.0];
                if let Ok(pos) = list.binary_search(&link) {
                    list.remove(pos);
                }
            }
            cur = up;
        }
    }

    /// The sorted out-link list at `node`.
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        &self.out[node.0]
    }

    /// Total number of edges in the tree.
    pub fn edge_count(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }
}

/// Multicast group membership plus cached distribution trees.
#[derive(Debug, Default)]
pub struct MulticastState {
    /// Group -> member node set.
    members: BTreeMap<GroupId, BTreeSet<NodeId>>,
    /// Incrementally maintained trees keyed by (group, source node).
    trees: BTreeMap<(GroupId, NodeId), SourceTree>,
}

impl MulticastState {
    /// Adds `node` to `group`, updating cached trees for the group in place.
    pub fn join(&mut self, group: GroupId, node: NodeId) {
        if self.members.entry(group).or_default().insert(node) {
            for ((g, _), tree) in self.trees.iter_mut() {
                if *g == group {
                    tree.add_member(node);
                }
            }
        }
    }

    /// Removes `node` from `group`, updating cached trees for the group in
    /// place.
    pub fn leave(&mut self, group: GroupId, node: NodeId) {
        let removed = self
            .members
            .get_mut(&group)
            .is_some_and(|set| set.remove(&node));
        if removed {
            for ((g, _), tree) in self.trees.iter_mut() {
                if *g == group {
                    tree.remove_member(node);
                }
            }
        }
    }

    /// Member node set of a group (empty if the group does not exist).
    pub fn members(&self, group: GroupId) -> BTreeSet<NodeId> {
        self.members.get(&group).cloned().unwrap_or_default()
    }

    /// Returns (building and caching if necessary) the incrementally
    /// maintained distribution tree for `group` rooted at `source`.
    pub fn tree(&mut self, group: GroupId, source: NodeId, routes: &RoutingTable) -> &SourceTree {
        let members = &self.members;
        self.trees.entry((group, source)).or_insert_with(|| {
            let empty = BTreeSet::new();
            SourceTree::build(source, members.get(&group).unwrap_or(&empty), routes)
        })
    }

    /// Drops every cached tree (used after topology changes).
    pub fn invalidate(&mut self) {
        self.trees.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Oracle for [`RoutingTable`]: one `Vec` of hops per node, the reverse
    /// lists built eagerly in edge order, and its own Dijkstra over them.
    struct NestedRoutes {
        fwd: Vec<Vec<Hop>>,
        rev: Vec<Vec<Hop>>,
        link_to: BTreeMap<LinkId, NodeId>,
    }

    impl NestedRoutes {
        fn compute(node_count: usize, edges: &[Edge]) -> Self {
            let mut fwd: Vec<Vec<Hop>> = vec![Vec::new(); node_count];
            let mut rev: Vec<Vec<Hop>> = vec![Vec::new(); node_count];
            let mut link_to = BTreeMap::new();
            for e in edges {
                let cost = e.delay + HOP_EPSILON;
                fwd[e.from.0].push((e.to, e.link, cost));
                rev[e.to.0].push((e.from, e.link, cost));
                link_to.insert(e.link, e.to);
            }
            NestedRoutes { fwd, rev, link_to }
        }

        fn next_hop(&self, from: NodeId, to: NodeId) -> Option<LinkId> {
            if from == to {
                return None;
            }
            nested_dijkstra(&self.rev, to.0)[from.0].map(|(_, link)| link)
        }

        fn path(&self, from: NodeId, to: NodeId) -> Option<Vec<LinkId>> {
            let mut path = Vec::new();
            let mut cur = from;
            while cur != to {
                let link = self.next_hop(cur, to)?;
                path.push(link);
                cur = self.link_to[&link];
            }
            Some(path)
        }

        fn parents_from(&self, source: NodeId) -> Vec<Option<(NodeId, LinkId)>> {
            nested_dijkstra(&self.fwd, source.0)
        }
    }

    fn nested_dijkstra(adjacency: &[Vec<Hop>], root: usize) -> Vec<Option<(NodeId, LinkId)>> {
        let node_count = adjacency.len();
        let mut dist = vec![f64::INFINITY; node_count];
        let mut hop: Vec<Option<(NodeId, LinkId)>> = vec![None; node_count];
        let mut done = vec![false; node_count];
        let mut heap = BinaryHeap::new();
        dist[root] = 0.0;
        heap.push(HeapEntry {
            dist: 0.0,
            node: root,
        });
        while let Some(HeapEntry { dist: d, node }) = heap.pop() {
            if done[node] {
                continue;
            }
            done[node] = true;
            for &(next, link, cost) in &adjacency[node] {
                let nd = d + cost;
                if nd < dist[next.0] {
                    dist[next.0] = nd;
                    hop[next.0] = Some((NodeId(node), link));
                    heap.push(HeapEntry {
                        dist: nd,
                        node: next.0,
                    });
                }
            }
        }
        hop
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The compressed rows route exactly like the nested lists,
        /// equal-cost ties included.  Few nodes, many links and three delay
        /// values make parallel links and equal-delay paths common; link ids
        /// are shuffled against edge order, so neither side can lean on
        /// them.
        #[test]
        fn csr_routes_match_the_nested_oracle(
            node_count in 1usize..8,
            ends in proptest::collection::vec(0usize..64, 0..40),
            delays in proptest::collection::vec(1u8..4, 40..41),
            rotate in 0usize..40,
        ) {
            let edges: Vec<Edge> = ends
                .iter()
                .zip(&delays)
                .enumerate()
                .map(|(i, (&end, &delay))| Edge {
                    link: LinkId((i + rotate) % ends.len()),
                    from: NodeId(end / 8 % node_count),
                    to: NodeId(end % 8 % node_count),
                    delay: f64::from(delay) * 0.01,
                })
                .collect();
            let oracle = NestedRoutes::compute(node_count, &edges);
            let mut routes = RoutingTable::compute(node_count, &edges);
            for source in (0..node_count).map(NodeId) {
                prop_assert_eq!(
                    routes.parents_from(source).parent,
                    oracle.parents_from(source)
                );
            }
            for from in (0..node_count).map(NodeId) {
                for to in (0..node_count).map(NodeId) {
                    prop_assert_eq!(routes.next_hop(from, to), oracle.next_hop(from, to));
                    prop_assert_eq!(routes.path(from, to), oracle.path(from, to));
                }
            }
        }
    }

    /// From-scratch oracle for [`SourceTree`]: the union of the shortest
    /// paths to every member, rebuilt in full for each member set (what the
    /// simulator did before incremental maintenance).
    struct DistributionTree {
        children: BTreeMap<NodeId, BTreeSet<LinkId>>,
    }

    impl DistributionTree {
        fn build(source: NodeId, members: &BTreeSet<NodeId>, routes: &RoutingTable) -> Self {
            let parents = routes.parents_from(source);
            let mut children: BTreeMap<NodeId, BTreeSet<LinkId>> = BTreeMap::new();
            for &member in members {
                if member == source || !parents.reachable(member) {
                    continue;
                }
                let mut cur = member;
                while let Some((up, link)) = parents.parent(cur) {
                    children.entry(up).or_default().insert(link);
                    cur = up;
                }
            }
            DistributionTree { children }
        }

        /// Sorted outgoing links at `node`.
        fn out_links(&self, node: NodeId) -> Vec<LinkId> {
            self.children
                .get(&node)
                .map(|set| set.iter().copied().collect())
                .unwrap_or_default()
        }

        fn edge_count(&self) -> usize {
            self.children.values().map(BTreeSet::len).sum()
        }
    }

    /// Builds a small test graph:
    ///
    /// ```text
    ///      0 ── 1 ── 2
    ///            │
    ///            3
    /// ```
    /// with unit delays; links are numbered in creation order, both
    /// directions.
    fn line_graph() -> (usize, Vec<Edge>) {
        let mut edges = Vec::new();
        let mut add = |from: usize, to: usize, delay: f64| {
            let id = edges.len();
            edges.push(Edge {
                link: LinkId(id),
                from: NodeId(from),
                to: NodeId(to),
                delay,
            });
        };
        add(0, 1, 0.01);
        add(1, 0, 0.01);
        add(1, 2, 0.01);
        add(2, 1, 0.01);
        add(1, 3, 0.01);
        add(3, 1, 0.01);
        (4, edges)
    }

    #[test]
    fn unicast_routes_follow_shortest_path() {
        let (n, edges) = line_graph();
        let mut rt = RoutingTable::compute(n, &edges);
        // 0 -> 2 goes via node 1.
        assert_eq!(rt.next_hop(NodeId(0), NodeId(2)), Some(LinkId(0)));
        assert_eq!(rt.next_hop(NodeId(1), NodeId(2)), Some(LinkId(2)));
        // 2 -> 3 goes back through 1.
        assert_eq!(rt.next_hop(NodeId(2), NodeId(3)), Some(LinkId(3)));
        // Full path reconstruction.
        let path = rt.path(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(path, vec![LinkId(0), LinkId(4)]);
    }

    /// Trees run over the forward rows alone; the reverse rows appear with
    /// the first unicast query.
    #[test]
    fn reverse_adjacency_waits_for_the_first_unicast_query() {
        let (n, edges) = line_graph();
        let mut rt = RoutingTable::compute(n, &edges);
        let mut mc = MulticastState::default();
        mc.join(GroupId(1), NodeId(2));
        assert_eq!(mc.tree(GroupId(1), NodeId(0), &rt).edge_count(), 2);
        assert!(rt.rev.is_none());
        assert_eq!(rt.next_hop(NodeId(2), NodeId(0)), Some(LinkId(3)));
        assert!(rt.rev.is_some());
    }

    #[test]
    fn unreachable_destination_has_no_route() {
        let edges = vec![Edge {
            link: LinkId(0),
            from: NodeId(0),
            to: NodeId(1),
            delay: 0.01,
        }];
        let mut rt = RoutingTable::compute(3, &edges);
        assert_eq!(rt.next_hop(NodeId(0), NodeId(2)), None);
        assert_eq!(rt.next_hop(NodeId(1), NodeId(0)), None); // one-way link
    }

    #[test]
    fn dijkstra_prefers_lower_delay() {
        // Two paths 0->2: direct (delay 0.1) and via 1 (total 0.04).
        let edges = vec![
            Edge {
                link: LinkId(0),
                from: NodeId(0),
                to: NodeId(2),
                delay: 0.1,
            },
            Edge {
                link: LinkId(1),
                from: NodeId(0),
                to: NodeId(1),
                delay: 0.02,
            },
            Edge {
                link: LinkId(2),
                from: NodeId(1),
                to: NodeId(2),
                delay: 0.02,
            },
        ];
        let mut rt = RoutingTable::compute(3, &edges);
        assert_eq!(rt.next_hop(NodeId(0), NodeId(2)), Some(LinkId(1)));
        // The forward parents agree with the reverse next hops.
        let parents = rt.parents_from(NodeId(0));
        assert_eq!(parents.parent(NodeId(2)), Some((NodeId(1), LinkId(2))));
    }

    #[test]
    fn distribution_tree_is_union_of_paths() {
        let (n, edges) = line_graph();
        let rt = RoutingTable::compute(n, &edges);
        let members: BTreeSet<NodeId> = [NodeId(2), NodeId(3)].into_iter().collect();
        let tree = SourceTree::build(NodeId(0), &members, &rt);
        // Node 0 forwards once toward node 1; node 1 branches to 2 and 3.
        assert_eq!(tree.out_links(NodeId(0)), &[LinkId(0)]);
        assert_eq!(tree.out_links(NodeId(1)), &[LinkId(2), LinkId(4)]);
        assert!(tree.out_links(NodeId(2)).is_empty());
        assert_eq!(tree.edge_count(), 3);
    }

    #[test]
    fn source_tree_incremental_updates_match_rebuilds() {
        let (n, edges) = line_graph();
        let rt = RoutingTable::compute(n, &edges);
        let mut members: BTreeSet<NodeId> = BTreeSet::new();
        let mut tree = SourceTree::build(NodeId(0), &members, &rt);
        assert_eq!(tree.edge_count(), 0);

        for step in [
            (NodeId(2), true),
            (NodeId(3), true),
            (NodeId(2), false),
            (NodeId(1), true),
            (NodeId(3), false),
            (NodeId(1), false),
        ] {
            let (node, joining) = step;
            if joining {
                members.insert(node);
                tree.add_member(node);
            } else {
                members.remove(&node);
                tree.remove_member(node);
            }
            let reference = DistributionTree::build(NodeId(0), &members, &rt);
            assert_eq!(
                tree.edge_count(),
                reference.edge_count(),
                "edge count diverged after {step:?}"
            );
            for v in 0..n {
                assert_eq!(
                    tree.out_links(NodeId(v)),
                    reference.out_links(NodeId(v)),
                    "out links diverged at node {v} after {step:?}"
                );
            }
        }
    }

    #[test]
    fn multicast_membership_and_tree_cache() {
        let (n, edges) = line_graph();
        let rt = RoutingTable::compute(n, &edges);
        let mut mc = MulticastState::default();
        let g = GroupId(1);
        mc.join(g, NodeId(2));
        assert_eq!(mc.members(g).len(), 1);
        let t1_edges = mc.tree(g, NodeId(0), &rt).edge_count();
        assert_eq!(t1_edges, 2); // 0->1->2
        mc.join(g, NodeId(3));
        let t2_edges = mc.tree(g, NodeId(0), &rt).edge_count();
        assert_eq!(t2_edges, 3); // tree updated in place after join
        mc.leave(g, NodeId(2));
        let t3_edges = mc.tree(g, NodeId(0), &rt).edge_count();
        assert_eq!(t3_edges, 2); // 0->1->3
        mc.leave(g, NodeId(3));
        assert_eq!(mc.tree(g, NodeId(0), &rt).edge_count(), 0);
    }

    #[test]
    fn source_inside_member_set_is_ignored() {
        let (n, edges) = line_graph();
        let rt = RoutingTable::compute(n, &edges);
        let members: BTreeSet<NodeId> = [NodeId(0), NodeId(2)].into_iter().collect();
        let tree = SourceTree::build(NodeId(0), &members, &rt);
        assert_eq!(tree.edge_count(), 2); // only the path to node 2
    }

    #[test]
    fn duplicate_joins_and_leaves_are_idempotent() {
        let (n, edges) = line_graph();
        let rt = RoutingTable::compute(n, &edges);
        let mut mc = MulticastState::default();
        let g = GroupId(9);
        mc.join(g, NodeId(3));
        mc.join(g, NodeId(3));
        assert_eq!(mc.tree(g, NodeId(0), &rt).edge_count(), 2);
        mc.leave(g, NodeId(3));
        mc.leave(g, NodeId(3));
        assert_eq!(mc.tree(g, NodeId(0), &rt).edge_count(), 0);
        let _ = n;
    }
}
