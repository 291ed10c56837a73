//! Mesh topology and dimension-ordered routing.

use serde::{Deserialize, Serialize};
use simkernel::NodeId;

/// A 2D mesh of `cols × rows` tiles with XY (dimension-ordered) routing.
///
/// Nodes are numbered row-major: node `i` sits at column `i % cols`, row
/// `i / cols`.  The paper's 64-core configuration is an 8×8 mesh.
///
/// # Example
///
/// ```
/// use noc::MeshTopology;
/// use simkernel::NodeId;
///
/// let mesh = MeshTopology::square_for(64);
/// assert_eq!(mesh.cols(), 8);
/// assert_eq!(mesh.hops(NodeId::new(0), NodeId::new(63)), 14);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeshTopology {
    cols: usize,
    rows: usize,
}

impl MeshTopology {
    /// Creates a mesh with the given number of columns and rows.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be non-zero");
        MeshTopology { cols, rows }
    }

    /// Creates the most square mesh that holds exactly `nodes` tiles.
    ///
    /// For perfect squares this is the `√n × √n` mesh (8×8 for 64 cores);
    /// otherwise the widest factorisation with `cols ≥ rows` is chosen.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn square_for(nodes: usize) -> Self {
        assert!(nodes > 0, "mesh must have at least one node");
        let mut rows = (nodes as f64).sqrt().floor() as usize;
        while rows > 1 && !nodes.is_multiple_of(rows) {
            rows -= 1;
        }
        let cols = nodes / rows;
        MeshTopology { cols, rows }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of nodes.
    pub fn nodes(&self) -> usize {
        self.cols * self.rows
    }

    /// Returns the `(column, row)` coordinate of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node is outside the mesh.
    #[inline]
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        let idx = node.index();
        assert!(
            idx < self.nodes(),
            "node {idx} outside {}x{} mesh",
            self.cols,
            self.rows
        );
        // Meshes built for power-of-two core counts (the common case) can
        // decompose the row-major index with a mask and a shift instead of
        // an integer division, which sits on the latency path of every
        // `hops`/`route` call.
        if self.cols.is_power_of_two() {
            (idx & (self.cols - 1), idx >> self.cols.trailing_zeros())
        } else {
            (idx % self.cols, idx / self.cols)
        }
    }

    /// Returns the node at a `(column, row)` coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the mesh.
    pub fn node_at(&self, col: usize, row: usize) -> NodeId {
        assert!(
            col < self.cols && row < self.rows,
            "coordinate outside mesh"
        );
        NodeId::new(row * self.cols + col)
    }

    /// Manhattan (XY-routed) hop count between two nodes.
    #[inline]
    pub fn hops(&self, from: NodeId, to: NodeId) -> u64 {
        let (fc, fr) = self.coords(from);
        let (tc, tr) = self.coords(to);
        (fc.abs_diff(tc) + fr.abs_diff(tr)) as u64
    }

    /// The sequence of nodes visited by XY routing from `from` to `to`,
    /// including both endpoints.
    pub fn route(&self, from: NodeId, to: NodeId) -> Vec<NodeId> {
        let (fc, fr) = self.coords(from);
        let (tc, tr) = self.coords(to);
        let mut path = Vec::with_capacity(fc.abs_diff(tc) + fr.abs_diff(tr) + 1);
        let mut c = fc;
        let mut r = fr;
        path.push(self.node_at(c, r));
        while c != tc {
            if c < tc {
                c += 1;
            } else {
                c -= 1;
            }
            path.push(self.node_at(c, r));
        }
        while r != tr {
            if r < tr {
                r += 1;
            } else {
                r -= 1;
            }
            path.push(self.node_at(c, r));
        }
        path
    }

    /// Average hop count from `from` to every node of the mesh (including itself).
    ///
    /// Used by the analytic broadcast-cost model of the coherence protocol.
    pub fn mean_hops_from(&self, from: NodeId) -> f64 {
        let total: u64 = (0..self.nodes())
            .map(|i| self.hops(from, NodeId::new(i)))
            .sum();
        total as f64 / self.nodes() as f64
    }

    /// The largest hop count between any pair of nodes (the mesh diameter).
    pub fn diameter(&self) -> u64 {
        (self.cols - 1 + self.rows - 1) as u64
    }

    /// Number of directed links of the mesh: each of the
    /// `(cols−1)·rows` horizontal and `cols·(rows−1)` vertical neighbour
    /// pairs carries one link per direction.
    ///
    /// This is the capacity denominator of the discrete-event backend's
    /// mean link utilisation.
    pub fn directed_links(&self) -> usize {
        2 * ((self.cols - 1) * self.rows + self.cols * (self.rows - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_for_perfect_square() {
        let m = MeshTopology::square_for(64);
        assert_eq!((m.cols(), m.rows()), (8, 8));
        assert_eq!(m.nodes(), 64);
        assert_eq!(m.diameter(), 14);
    }

    #[test]
    fn square_for_non_square_counts() {
        let m = MeshTopology::square_for(32);
        assert_eq!(m.nodes(), 32);
        assert!(m.cols() >= m.rows());
        let m = MeshTopology::square_for(1);
        assert_eq!((m.cols(), m.rows()), (1, 1));
        let m = MeshTopology::square_for(7);
        assert_eq!(m.nodes(), 7);
    }

    #[test]
    fn coords_roundtrip() {
        let m = MeshTopology::new(8, 8);
        for i in 0..64 {
            let n = NodeId::new(i);
            let (c, r) = m.coords(n);
            assert_eq!(m.node_at(c, r), n);
        }
    }

    #[test]
    fn hops_are_manhattan_distance() {
        let m = MeshTopology::new(8, 8);
        assert_eq!(m.hops(NodeId::new(0), NodeId::new(0)), 0);
        assert_eq!(m.hops(NodeId::new(0), NodeId::new(7)), 7);
        assert_eq!(m.hops(NodeId::new(0), NodeId::new(56)), 7);
        assert_eq!(m.hops(NodeId::new(0), NodeId::new(63)), 14);
        assert_eq!(m.hops(NodeId::new(63), NodeId::new(0)), 14);
    }

    #[test]
    fn route_is_contiguous_and_correct_length() {
        let m = MeshTopology::new(8, 8);
        let path = m.route(NodeId::new(3), NodeId::new(60));
        assert_eq!(path.first(), Some(&NodeId::new(3)));
        assert_eq!(path.last(), Some(&NodeId::new(60)));
        assert_eq!(
            path.len() as u64,
            m.hops(NodeId::new(3), NodeId::new(60)) + 1
        );
        for pair in path.windows(2) {
            assert_eq!(
                m.hops(pair[0], pair[1]),
                1,
                "route must move one hop at a time"
            );
        }
    }

    #[test]
    fn mean_hops_reasonable() {
        let m = MeshTopology::new(8, 8);
        let corner = m.mean_hops_from(NodeId::new(0));
        let center = m.mean_hops_from(NodeId::new(27));
        assert!(
            corner > center,
            "corner should be further from everyone on average"
        );
        assert!(corner <= m.diameter() as f64);
    }

    #[test]
    #[should_panic]
    fn out_of_range_node_panics() {
        MeshTopology::new(2, 2).coords(NodeId::new(4));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// On every mesh from 2×2 to 8×8, the XY route between any two
            /// nodes has exactly the Manhattan-distance hop count, the hop
            /// count is symmetric, and the route moves one hop at a time.
            #[test]
            fn xy_route_is_manhattan_and_symmetric(cols in 2usize..=8, rows in 2usize..=8) {
                let mesh = MeshTopology::new(cols, rows);
                for from in 0..mesh.nodes() {
                    for to in 0..mesh.nodes() {
                        let (from, to) = (NodeId::new(from), NodeId::new(to));
                        let (fc, fr) = mesh.coords(from);
                        let (tc, tr) = mesh.coords(to);
                        let manhattan = (fc.abs_diff(tc) + fr.abs_diff(tr)) as u64;
                        prop_assert_eq!(mesh.hops(from, to), manhattan);
                        prop_assert_eq!(mesh.hops(to, from), manhattan, "hops must be symmetric");
                        let route = mesh.route(from, to);
                        prop_assert_eq!(route.len() as u64, manhattan + 1);
                        prop_assert_eq!(route.first(), Some(&from));
                        prop_assert_eq!(route.last(), Some(&to));
                        for pair in route.windows(2) {
                            prop_assert_eq!(mesh.hops(pair[0], pair[1]), 1);
                        }
                    }
                }
            }

            /// Hop counts never exceed the diameter, and the diameter is
            /// attained by the opposite corners.
            #[test]
            fn diameter_bounds_every_pair(cols in 2usize..=8, rows in 2usize..=8) {
                let mesh = MeshTopology::new(cols, rows);
                for from in 0..mesh.nodes() {
                    for to in 0..mesh.nodes() {
                        prop_assert!(mesh.hops(NodeId::new(from), NodeId::new(to)) <= mesh.diameter());
                    }
                }
                let far = mesh.node_at(cols - 1, rows - 1);
                prop_assert_eq!(mesh.hops(mesh.node_at(0, 0), far), mesh.diameter());
            }
        }
    }
}
