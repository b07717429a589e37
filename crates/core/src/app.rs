//! The acyclic path partitioning (APP) problem (§III-A, Theorem 1).
//!
//! Given a *generator* `P` — a set of paths over channel-nodes — decide
//! whether `P` can be partitioned into `k` classes such that each class's
//! induced graph is acyclic. The paper proves this NP-complete by
//! reduction from graph k-colorability; this module provides
//!
//! * the formal objects ([`AppPath`], [`Generator`], cover checking),
//! * an exact exponential solver for small instances
//!   ([`Generator::min_cover`]), used to validate the heuristics,
//! * the proof's polynomial transformation from graph coloring
//!   ([`coloring_to_app`]) together with the two directions of its
//!   correctness argument as executable checks.

use crate::cdg::Cdg;
use crate::engine::RouteError;
use crate::paths::{PathId, TreePaths};
use telemetry::fx::{FxHashMap, FxHashSet};

/// A path in the channel dependency graph: a sequence of distinct nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppPath {
    nodes: Vec<u32>,
}

impl AppPath {
    /// Create a path; panics if nodes repeat (paths are simple by
    /// definition: `c_i ≠ c_j` for `i ≠ j`).
    pub fn new(nodes: Vec<u32>) -> AppPath {
        let mut seen = FxHashSet::default();
        for &n in &nodes {
            assert!(seen.insert(n), "APP paths must not repeat nodes");
        }
        AppPath { nodes }
    }

    /// The node sequence.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// The directed edges `(c_i, c_(i+1))` of the path.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.nodes.windows(2).map(|w| (w[0], w[1]))
    }
}

/// A generator: the set of paths whose union induces the CDG.
#[derive(Clone, Debug, Default)]
pub struct Generator {
    paths: Vec<AppPath>,
}

impl Generator {
    /// Generator from explicit paths.
    pub fn new(paths: Vec<AppPath>) -> Generator {
        Generator { paths }
    }

    /// Number of paths `|P|`.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether the generator has no paths.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// The paths.
    pub fn paths(&self) -> &[AppPath] {
        &self.paths
    }

    /// Whether the subset of paths selected by `member` induces an
    /// acyclic graph.
    pub fn subset_acyclic(&self, member: impl Fn(usize) -> bool) -> bool {
        let nodes = self.paths.iter().flat_map(|p| p.nodes()).max();
        let mut cdg = Cdg::new(nodes.map_or(0, |&n| n as usize + 1));
        for (_, p) in self.paths.iter().enumerate().filter(|&(i, _)| member(i)) {
            p.edges().for_each(|(a, b)| cdg.add_dependency(a, b));
        }
        cdg.is_acyclic()
    }

    /// Whether `assignment` (class per path, values `< k`) is a valid
    /// cover: non-empty classes are allowed to be checked loosely — the
    /// formal definition's conditions (ii) totality and (iii) disjointness
    /// hold by construction of an assignment vector; we check (iv)
    /// acyclicity per class. Condition (i), non-emptiness, is checked so
    /// that `k` reflects the true class count.
    pub fn is_cover(&self, assignment: &[usize], k: usize) -> bool {
        if assignment.len() != self.paths.len() || k == 0 {
            return false;
        }
        if assignment.iter().any(|&c| c >= k) {
            return false;
        }
        for class in 0..k {
            if !assignment.contains(&class) {
                return false; // condition (i): P_i non-empty
            }
            if !self.subset_acyclic(|i| assignment[i] == class) {
                return false; // condition (iv)
            }
        }
        true
    }

    /// Exact minimum cover by backtracking. Exponential: intended for
    /// instances with at most ~a dozen paths (heuristic validation).
    /// Returns `(k, assignment)`; `None` if `self` is empty.
    pub fn min_cover(&self, max_k: usize) -> Option<(usize, Vec<usize>)> {
        if self.paths.is_empty() {
            return None;
        }
        for k in 1..=max_k.min(self.paths.len()) {
            let mut assignment = vec![usize::MAX; self.paths.len()];
            if self.try_assign(0, k, &mut assignment) {
                let used = assignment.iter().copied().max().unwrap() + 1;
                return Some((used, assignment));
            }
        }
        None
    }

    fn try_assign(&self, i: usize, k: usize, assignment: &mut Vec<usize>) -> bool {
        if i == self.paths.len() {
            return true;
        }
        // Symmetry breaking: path i may open at most one new class.
        let used = assignment[..i].iter().copied().max().map_or(0, |m| m + 1);
        for class in 0..k.min(used + 1) {
            assignment[i] = class;
            if self.subset_acyclic(|j| j <= i && assignment[j] == class)
                && self.try_assign(i + 1, k, assignment)
            {
                return true;
            }
        }
        assignment[i] = usize::MAX;
        false
    }
}

/// Bridge from the engine world: the APP instance of a routing's paths,
/// walked off its tables in id order once they validate (a walk through
/// a loop would never end). Only paths with at least two channels matter
/// (shorter ones can never lie on a dependency cycle and are dropped);
/// the returned map gives the [`PathId`] of each generator path.
pub fn from_tree_paths(paths: TreePaths) -> Result<(Generator, Vec<PathId>), RouteError> {
    paths.validate()?;
    let (mut found, mut ids, mut chans) = (Vec::new(), Vec::new(), Vec::new());
    for p in 0..paths.num_paths() as PathId {
        paths.walk(p, &mut chans);
        if chans.len() >= 2 {
            found.push(AppPath::new(chans.iter().map(|c| c.0).collect()));
            ids.push(p);
        }
    }
    Ok((Generator::new(found), ids))
}

/// A cheap lower bound on the minimum number of virtual layers: paths
/// that induce *opposite* CDG edges `(u, v)` and `(v, u)` can never share
/// a layer, so any mutually conflicting clique forces one layer each.
/// Returns the size of a greedily grown conflict clique (`>= 1`).
///
/// This bounds the paper's `∇` from below; the exact value is NP-complete
/// to compute (Theorem 1), and [`Generator::min_cover`] finds it for
/// small instances.
pub fn lower_bound_layers(g: &Generator) -> usize {
    if g.is_empty() {
        return 1;
    }
    // Edge -> first path using it; conflict adjacency between paths.
    let mut owner: FxHashMap<(u32, u32), Vec<usize>> = FxHashMap::default();
    for (i, p) in g.paths().iter().enumerate() {
        for e in p.edges() {
            owner.entry(e).or_default().push(i);
        }
    }
    let n = g.len();
    let mut conflicts: Vec<FxHashSet<usize>> = vec![FxHashSet::default(); n];
    for (&(u, v), users) in &owner {
        if let Some(opposite) = owner.get(&(v, u)) {
            for &a in users {
                for &b in opposite {
                    if a != b {
                        conflicts[a].insert(b);
                        conflicts[b].insert(a);
                    }
                }
            }
        }
    }
    // Greedy clique: repeatedly add the path with the most conflicts
    // among remaining candidates.
    let mut clique: Vec<usize> = Vec::new();
    let mut candidates: Vec<usize> = (0..n).collect();
    while let Some(&best) = candidates.iter().max_by_key(|&&i| {
        conflicts[i]
            .iter()
            .filter(|x| candidates.contains(x))
            .count()
    }) {
        clique.push(best);
        candidates.retain(|&c| c != best && conflicts[best].contains(&c));
        if candidates.is_empty() {
            break;
        }
    }
    clique.len().max(1)
}

/// The proof's polynomial transformation (Theorem 1): build an APP
/// generator from a graph `G(V, E)` such that `G` is `k`-colorable iff
/// the generator has a `k`-cover.
///
/// For each undirected edge `e = {v, w}` the construction introduces the
/// two CDG nodes `⟨v,e⟩` and `⟨w,e⟩` — the paper's pair nodes. The path
/// `p_v` of a graph node `v` starts at a private node `v` and then, for
/// every incident edge `e = {v, w}`, traverses the segment
/// `⟨v,e⟩ → ⟨w,e⟩`. Thus:
///
/// * `(v, w) ∈ E` ⟹ `p_v` contains `⟨v,e⟩ → ⟨w,e⟩` while `p_w` contains
///   `⟨w,e⟩ → ⟨v,e⟩` — a 2-cycle, so the two paths cannot share a class
///   (the proof's proposition 1);
/// * `V' ⊆ V` independent ⟹ the paths `{p_v : v ∈ V'}` are pairwise
///   node-disjoint, so their union is a disjoint union of simple paths
///   and acyclic (proposition 2).
///
/// `n` is `|V|`; edges are undirected pairs with `a != b`, `a, b < n`.
pub fn coloring_to_app(n: u32, edges: &[(u32, u32)]) -> Generator {
    // Node ids: 0..n for the private path heads; pair nodes ⟨v,e⟩ after.
    let mut pair_id: FxHashMap<(u32, u32), u32> = FxHashMap::default();
    let mut next = n;
    let mut id_of = |v: u32, e: (u32, u32)| -> u32 {
        // Key a pair node by (endpoint, canonical edge); encode the edge
        // canonically as (min, max).
        let key = (v, (e.0.min(e.1) << 16) | e.0.max(e.1));
        *pair_id.entry(key).or_insert_with(|| {
            let id = next;
            next += 1;
            id
        })
    };
    let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n as usize];
    for &(a, b) in edges {
        assert!(a < n && b < n && a != b, "bad edge ({a},{b})");
        assert!(n <= u16::MAX as u32, "reduction supports up to 2^16 nodes");
        if !adj[a as usize].contains(&(a, b)) && !adj[a as usize].contains(&(b, a)) {
            adj[a as usize].push((a, b));
            adj[b as usize].push((b, a));
        }
    }
    let mut paths = Vec::with_capacity(n as usize);
    for v in 0..n {
        let mut nodes = vec![v];
        for &(x, w) in &adj[v as usize] {
            debug_assert_eq!(x, v);
            nodes.push(id_of(v, (v, w)));
            nodes.push(id_of(w, (v, w)));
        }
        paths.push(AppPath::new(nodes));
    }
    Generator::new(paths)
}

/// Brute-force graph k-colorability (reference implementation for the
/// reduction tests).
pub fn is_k_colorable(n: u32, edges: &[(u32, u32)], k: usize) -> bool {
    fn go(v: usize, n: usize, k: usize, edges: &[(u32, u32)], colors: &mut Vec<usize>) -> bool {
        if v == n {
            return true;
        }
        // Symmetry breaking as in Generator::try_assign.
        let used = colors[..v].iter().copied().max().map_or(0, |m| m + 1);
        for c in 0..k.min(used + 1) {
            if edges.iter().all(|&(a, b)| {
                let (a, b) = (a as usize, b as usize);
                !((a == v && b < v && colors[b] == c) || (b == v && a < v && colors[a] == c))
            }) {
                colors[v] = c;
                if go(v + 1, n, k, edges, colors) {
                    return true;
                }
            }
        }
        colors[v] = usize::MAX;
        false
    }
    let mut colors = vec![usize::MAX; n as usize];
    go(0, n as usize, k, edges, &mut colors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_paths_bridge_and_bounds_agree_on_ring() {
        // 5-ring SSSP: the APP instance's exact minimum must equal what
        // the offline heuristic finds (2), and the lower bound must not
        // exceed it.
        use crate::engine::RoutingEngine;
        let net = fabric::topo::ring(5, 1);
        let routes = crate::sssp::Sssp::new().route(&net).unwrap();
        let paths = TreePaths {
            net: &net,
            routes: &routes,
        };
        let (g, ids) = from_tree_paths(paths).unwrap();
        assert_eq!(ids.len(), g.len());
        assert!(g.len() <= paths.num_paths());
        let lb = lower_bound_layers(&g);
        let (exact, assignment) = g.min_cover(4).expect("solvable");
        assert!(lb <= exact, "lower bound {lb} > exact {exact}");
        assert_eq!(exact, 2, "the 5-ring needs exactly 2 layers");
        assert!(g.is_cover(&assignment, exact));
        let (_, stats) = crate::dfsssp::assign_layers_offline(
            &net,
            &routes,
            crate::CycleBreakHeuristic::WeakestEdge,
            8,
            false,
        )
        .unwrap();
        assert!(stats.layers_used >= exact, "heuristic beats the optimum?!");
    }

    #[test]
    fn lower_bound_is_one_without_conflicts() {
        let g = Generator::new(vec![
            AppPath::new(vec![0, 1, 2]),
            AppPath::new(vec![3, 4, 5]),
        ]);
        assert_eq!(lower_bound_layers(&g), 1);
        assert_eq!(lower_bound_layers(&Generator::default()), 1);
    }

    #[test]
    fn lower_bound_sees_mutual_conflicts() {
        // Three paths pairwise traversing opposite edges: needs 3 layers.
        let g = Generator::new(vec![
            AppPath::new(vec![0, 1, 2, 3]),         // 0->1, 2->3
            AppPath::new(vec![1, 0, 4, 2]),         // 1->0 (conflict a), 4->2
            AppPath::new(vec![3, 2, 2 + 8, 1 + 8]), // 3->2 (conflict a)...
        ]);
        // p0/p1 conflict via (0,1)/(1,0); p0/p2 via (2,3)/(3,2).
        let lb = lower_bound_layers(&g);
        assert!(lb >= 2);
        let (exact, _) = g.min_cover(4).unwrap();
        assert!(lb <= exact);
    }

    /// The paper's Figure 3: P = {p1 = bc, p2 = abc, p3 = cdab}, k = 2.
    /// Channel nodes: a=0, b=1, c=2, d=3.
    #[test]
    fn figure3_example_cover() {
        let g = Generator::new(vec![
            AppPath::new(vec![1, 2]),       // p1 = b c
            AppPath::new(vec![0, 1, 2]),    // p2 = a b c
            AppPath::new(vec![2, 3, 0, 1]), // p3 = c d a b
        ]);
        // The union contains the cycle a->b->c->d->a, so k=1 fails...
        assert!(!g.is_cover(&[0, 0, 0], 1));
        // ...but the paper's cover {p1, p2} | {p3} works.
        assert!(g.is_cover(&[0, 0, 1], 2));
        // And the exact solver finds k = 2.
        let (k, assignment) = g.min_cover(3).unwrap();
        assert_eq!(k, 2);
        assert!(g.is_cover(&assignment, 2));
    }

    #[test]
    fn paths_must_be_simple() {
        let r = std::panic::catch_unwind(|| AppPath::new(vec![0, 1, 0]));
        assert!(r.is_err());
    }

    #[test]
    fn acyclic_generator_needs_one_class() {
        let g = Generator::new(vec![
            AppPath::new(vec![0, 1, 2]),
            AppPath::new(vec![3, 1, 4]),
        ]);
        let (k, _) = g.min_cover(4).unwrap();
        assert_eq!(k, 1);
    }

    #[test]
    fn reduction_triangle_needs_three() {
        // K3 is 3-chromatic; the reduced APP instance needs exactly 3.
        let edges = [(0, 1), (1, 2), (0, 2)];
        let g = coloring_to_app(3, &edges);
        assert_eq!(g.len(), 3);
        let (k, _) = g.min_cover(4).unwrap();
        assert_eq!(k, 3);
        assert!(is_k_colorable(3, &edges, 3));
        assert!(!is_k_colorable(3, &edges, 2));
    }

    #[test]
    fn reduction_bipartite_needs_two() {
        // C4 is 2-chromatic.
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0)];
        let g = coloring_to_app(4, &edges);
        let (k, _) = g.min_cover(4).unwrap();
        assert_eq!(k, 2);
    }

    #[test]
    fn reduction_independent_set_needs_one() {
        // No edges: all paths are isolated single nodes; one class.
        let g = coloring_to_app(4, &[]);
        let (k, _) = g.min_cover(2).unwrap();
        assert_eq!(k, 1);
    }

    #[test]
    fn reduction_agrees_with_colorability_exhaustively() {
        // All graphs on 4 nodes (6 possible edges, 64 graphs): chromatic
        // number equals minimum APP cover size of the reduction.
        let all_edges = [(0u32, 1u32), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        for mask in 0u32..64 {
            let edges: Vec<(u32, u32)> = all_edges
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &e)| e)
                .collect();
            let chromatic = (1..=4).find(|&k| is_k_colorable(4, &edges, k)).unwrap();
            let g = coloring_to_app(4, &edges);
            let (k, assignment) = g.min_cover(4).unwrap();
            assert_eq!(
                k, chromatic,
                "mask {mask:#b}: chromatic {chromatic} != APP {k}"
            );
            assert!(g.is_cover(&assignment, k));
        }
    }

    #[test]
    fn coloring_induces_cover_directly() {
        // Forward direction of the proof: color classes are valid APP
        // classes. Petersen-graph outer cycle (C5, chromatic 3).
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
        let g = coloring_to_app(5, &edges);
        // A valid 3-coloring of C5: 0,1,0,1,2.
        let coloring = [0usize, 1, 0, 1, 2];
        assert!(g.is_cover(&coloring, 3));
        // An invalid "coloring" (adjacent same color) is not a cover.
        let bad = [0usize, 0, 1, 1, 2];
        assert!(!g.is_cover(&bad, 3));
    }
}
