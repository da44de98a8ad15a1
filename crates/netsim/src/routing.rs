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
//! Nothing here is all-pairs.  Unicast next hops are computed **lazily per
//! destination** (one reverse Dijkstra the first time any node needs a route
//! toward that destination), and a multicast tree is **one forward Dijkstra**
//! from the source plus an incrementally maintained, reference-counted
//! member overlay ([`SourceTree`]): joining or leaving a group touches only
//! the member's path to the source, not the whole tree.  This is what lets a
//! single simulation hold 10⁵ receivers — the seed implementation ran one
//! Dijkstra per *node* up front and rebuilt every tree on every membership
//! change.

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
/// Construction ([`RoutingTable::compute`]) only builds adjacency lists; the
/// per-destination next-hop tables are filled in on first use.
#[derive(Debug, Default)]
pub struct RoutingTable {
    node_count: usize,
    /// Outgoing hops per node.
    fwd: Vec<Vec<Hop>>,
    /// Incoming hops per node (the forward edges reversed), for the
    /// per-destination reverse Dijkstra.
    rev: Vec<Vec<Hop>>,
    /// `to` node of every link, indexed by `LinkId`.
    link_to: BTreeMap<LinkId, NodeId>,
    /// Lazily computed: for destination `d`, `toward[&d][src]` is the next
    /// outgoing link at `src` on the shortest path to `d`.
    toward: BTreeMap<NodeId, Vec<Option<LinkId>>>,
}

impl RoutingTable {
    /// Builds the adjacency for `node_count` nodes over the given directed
    /// edges.  Cheap: next hops are computed lazily per destination.
    pub fn compute(node_count: usize, edges: &[Edge]) -> Self {
        let mut fwd: Vec<Vec<Hop>> = vec![Vec::new(); node_count];
        let mut rev: Vec<Vec<Hop>> = vec![Vec::new(); node_count];
        let mut link_to = BTreeMap::new();
        for e in edges {
            let cost = e.delay + HOP_EPSILON;
            fwd[e.from.0].push((e.to, e.link, cost));
            rev[e.to.0].push((e.from, e.link, cost));
            link_to.insert(e.link, e.to);
        }
        RoutingTable {
            node_count,
            fwd,
            rev,
            link_to,
            toward: BTreeMap::new(),
        }
    }

    /// The outgoing link at `from` toward `to`, if a route exists.
    ///
    /// The first query for a destination runs one reverse Dijkstra rooted at
    /// it; later queries for the same destination are an array lookup.
    pub fn next_hop(&mut self, from: NodeId, to: NodeId) -> Option<LinkId> {
        if from.0 >= self.node_count || to.0 >= self.node_count || from == to {
            return None;
        }
        if !self.toward.contains_key(&to) {
            let table = self.compute_toward(to);
            self.toward.insert(to, table);
        }
        self.toward[&to][from.0]
    }

    /// The full path of links from `from` to `to`, if a route exists.
    pub fn path(&mut self, from: NodeId, to: NodeId) -> Option<Vec<LinkId>> {
        if from.0 >= self.node_count || to.0 >= self.node_count {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = from;
        let mut guard = 0usize;
        while cur != to {
            let link = self.next_hop(cur, to)?;
            path.push(link);
            cur = *self.link_to.get(&link)?;
            guard += 1;
            if guard > self.node_count + 1 {
                return None; // routing loop, should not happen
            }
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

    /// Reverse Dijkstra rooted at destination `to`: for every node, the
    /// first link on its shortest path toward `to`.
    ///
    /// A relaxed reverse hop (from, link) means the forward edge
    /// `from -link-> node`: `from` reaches `to` by entering `link` first.
    fn compute_toward(&self, to: NodeId) -> Vec<Option<LinkId>> {
        dijkstra_hops(&self.rev, to.0)
            .into_iter()
            .map(|hop| hop.map(|(_, link)| link))
            .collect()
    }
}

/// Dijkstra from `root` over an adjacency, recording for every node the hop
/// `(neighbour, link)` chosen when the node was last relaxed (`None` for the
/// root and unreachable nodes).  Over the forward adjacency this yields
/// shortest-path parents; over the reversed adjacency, first hops toward the
/// root.  One body means cost metric and tie-breaking (deterministic via
/// [`HeapEntry`]'s (dist, node) order) can never diverge between unicast
/// routes and multicast trees.
fn dijkstra_hops(adjacency: &[Vec<Hop>], root: usize) -> Vec<Option<(NodeId, LinkId)>> {
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
