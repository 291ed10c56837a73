//! Per-link state of the discrete-event mesh.
//!
//! Every node owns four outgoing directed links (east, west, south, north);
//! a link exists only when its far endpoint is inside the mesh.  Each link
//! keeps one busy-until cycle per virtual channel — the FIFO occupancy the
//! zero-load analytic model leaves out — plus the accumulated busy cycles
//! that turn into the measured per-link utilisation.

use simkernel::{Cycle, NodeId};

use crate::packet::NUM_VIRTUAL_CHANNELS;
use crate::topology::MeshTopology;

/// Outgoing directions of a mesh router, in link-index order.
const EAST: usize = 0;
const WEST: usize = 1;
const SOUTH: usize = 2;
const NORTH: usize = 3;

/// One directed link: per-virtual-channel busy-until cycles plus counters.
#[derive(Debug, Clone, Default)]
pub(crate) struct LinkState {
    /// The cycle from which each virtual channel can accept a new head flit.
    pub free_at: [Cycle; NUM_VIRTUAL_CHANNELS],
    /// Cycles the link input was occupied by flits, over all channels.
    pub busy_cycles: u64,
    /// Packets that traversed the link.
    pub packets: u64,
}

/// One straight leg of an XY route: `count` directed links whose indices
/// start at `first` and step by `stride` (±4 along a row, ±4·cols along a
/// column, since consecutive nodes of a leg differ by ±1 or ±cols).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Leg {
    first: usize,
    stride: isize,
    pub count: u64,
}

impl Leg {
    /// The leg's directed-link indices in traversal order.
    pub(crate) fn links(self) -> impl Iterator<Item = usize> {
        (0..self.count as isize).map(move |i| self.first.wrapping_add_signed(i * self.stride))
    }
}

/// The directed links of a mesh, indexed `node × 4 + direction`.
#[derive(Debug, Clone)]
pub(crate) struct LinkGrid {
    topology: MeshTopology,
    links: Vec<LinkState>,
}

impl LinkGrid {
    pub(crate) fn new(topology: MeshTopology) -> Self {
        LinkGrid {
            topology,
            links: vec![LinkState::default(); topology.nodes() * 4],
        }
    }

    /// The index of the directed link from `from` to the adjacent node `to`.
    ///
    /// The routing code goes through [`LinkGrid::xy_legs`]; this direct
    /// form, applied hop by hop to [`MeshTopology::route`], is its test
    /// oracle.
    ///
    /// # Panics
    ///
    /// Panics if the nodes are not mesh neighbours (XY routes only ever
    /// traverse neighbouring tiles).
    #[cfg(test)]
    pub(crate) fn index_between(&self, from: NodeId, to: NodeId) -> usize {
        let (fc, fr) = self.topology.coords(from);
        let (tc, tr) = self.topology.coords(to);
        let dir = match (tc as isize - fc as isize, tr as isize - fr as isize) {
            (1, 0) => EAST,
            (-1, 0) => WEST,
            (0, 1) => SOUTH,
            (0, -1) => NORTH,
            _ => panic!("nodes {from} and {to} are not mesh neighbours"),
        };
        from.index() * 4 + dir
    }

    /// The X leg and then the Y leg of the XY route from `from` to `to`,
    /// with both coordinates decomposed once for the whole route.  A leg
    /// along an axis the packet does not move on has `count == 0`, so a
    /// local (same-tile) route has no links at all.
    #[inline]
    pub(crate) fn xy_legs(&self, from: NodeId, to: NodeId) -> [Leg; 2] {
        let (fc, fr) = self.topology.coords(from);
        let (tc, tr) = self.topology.coords(to);
        let cols = self.topology.cols();
        let (x_dir, x_stride) = if tc >= fc { (EAST, 4) } else { (WEST, -4) };
        let (y_dir, y_stride) = if tr >= fr {
            (SOUTH, 4 * cols as isize)
        } else {
            (NORTH, -4 * cols as isize)
        };
        // The turn happens at the source's row, in the destination's column.
        let corner = fr * cols + tc;
        [
            Leg {
                first: from.index() * 4 + x_dir,
                stride: x_stride,
                count: fc.abs_diff(tc) as u64,
            },
            Leg {
                first: corner * 4 + y_dir,
                stride: y_stride,
                count: fr.abs_diff(tr) as u64,
            },
        ]
    }

    pub(crate) fn state_mut(&mut self, index: usize) -> &mut LinkState {
        &mut self.links[index]
    }

    /// Number of directed links that physically exist in the mesh.
    pub(crate) fn physical_links(&self) -> usize {
        self.topology.directed_links()
    }

    /// Utilisation of every directed link over `elapsed` cycles, in link
    /// index order (links outside the mesh stay at zero forever).
    pub(crate) fn utilizations(&self, elapsed: Cycle) -> impl Iterator<Item = f64> + '_ {
        let denom = elapsed.as_u64().max(1) as f64;
        self.links.iter().map(move |l| l.busy_cycles as f64 / denom)
    }

    /// Total busy cycles over all links.
    pub(crate) fn total_busy_cycles(&self) -> u64 {
        self.links.iter().map(|l| l.busy_cycles).sum()
    }

    /// Cumulative busy cycles of every directed link, in link index order.
    pub(crate) fn busy_cycles_per_link(&self) -> impl Iterator<Item = u64> + '_ {
        self.links.iter().map(|l| l.busy_cycles)
    }

    /// Total packets over all links (one count per link traversed).
    pub(crate) fn total_link_traversals(&self) -> u64 {
        self.links.iter().map(|l| l.packets).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbour_links_have_distinct_indices() {
        let mesh = MeshTopology::new(3, 3);
        let grid = LinkGrid::new(mesh);
        let center = mesh.node_at(1, 1);
        let mut seen = std::collections::BTreeSet::new();
        for neighbour in [
            mesh.node_at(2, 1),
            mesh.node_at(0, 1),
            mesh.node_at(1, 2),
            mesh.node_at(1, 0),
        ] {
            assert!(seen.insert(grid.index_between(center, neighbour)));
        }
        // The reverse direction is a different link.
        assert_ne!(
            grid.index_between(center, mesh.node_at(2, 1)),
            grid.index_between(mesh.node_at(2, 1), center)
        );
    }

    #[test]
    #[should_panic]
    fn non_neighbours_panic() {
        let mesh = MeshTopology::new(3, 3);
        LinkGrid::new(mesh).index_between(mesh.node_at(0, 0), mesh.node_at(2, 0));
    }

    #[test]
    fn xy_legs_walk_the_same_links_as_route() {
        for (cols, rows) in [
            (1, 1),
            (3, 1),
            (1, 3),
            (3, 2),
            (6, 2),
            (9, 1),
            (4, 3),
            (12, 3),
        ] {
            let mesh = MeshTopology::new(cols, rows);
            let grid = LinkGrid::new(mesh);
            for from in 0..mesh.nodes() {
                for to in 0..mesh.nodes() {
                    let (from, to) = (NodeId::new(from), NodeId::new(to));
                    let hop_by_hop: Vec<usize> = mesh
                        .route(from, to)
                        .windows(2)
                        .map(|hop| grid.index_between(hop[0], hop[1]))
                        .collect();
                    let legs: Vec<usize> = grid
                        .xy_legs(from, to)
                        .into_iter()
                        .flat_map(Leg::links)
                        .collect();
                    assert_eq!(legs, hop_by_hop, "{cols}x{rows}: {from}->{to}");
                    assert_eq!(legs.len() as u64, mesh.hops(from, to));
                }
            }
        }
    }

    #[test]
    fn physical_link_count_matches_mesh() {
        assert_eq!(LinkGrid::new(MeshTopology::new(2, 2)).physical_links(), 8);
        assert_eq!(
            LinkGrid::new(MeshTopology::new(8, 8)).physical_links(),
            2 * (7 * 8 + 8 * 7)
        );
        assert_eq!(LinkGrid::new(MeshTopology::new(1, 1)).physical_links(), 0);
    }

    #[test]
    fn utilization_reflects_busy_cycles() {
        let mesh = MeshTopology::new(2, 1);
        let mut grid = LinkGrid::new(mesh);
        let east = grid.index_between(mesh.node_at(0, 0), mesh.node_at(1, 0));
        grid.state_mut(east).busy_cycles = 50;
        grid.state_mut(east).packets = 10;
        let utils: Vec<f64> = grid.utilizations(Cycle::new(100)).collect();
        assert_eq!(utils[east], 0.5);
        assert_eq!(grid.total_busy_cycles(), 50);
        assert_eq!(grid.total_link_traversals(), 10);
    }
}
