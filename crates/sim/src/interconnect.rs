//! Inter-cluster interconnect: ring or grid, with per-link bandwidth.
//!
//! The paper's default is two unidirectional rings (2N directed links,
//! so a 16-cluster system can start 32 transfers per cycle); the
//! sensitivity study adds a 2-D grid. Each directed link carries one
//! value per cycle. Transfers reserve the links along their route in
//! order, so contention backpressures later transfers — the mechanism
//! that makes wide configurations *communication bound*.
//!
//! Routing is over the full physical topology: when a subset of
//! clusters is active they are the contiguous prefix, and routes may
//! pass through disabled clusters (the wires still exist).

use crate::config::{InterconnectParams, Topology};
use crate::slots::SlotReservations;

/// A directed link identifier.
type Link = usize;

/// The interconnect fabric between `n` clusters.
///
/// # Examples
///
/// ```
/// use clustered_sim::{Interconnect, InterconnectParams};
///
/// let mut net = Interconnect::new(&InterconnectParams::default(), 16);
/// assert_eq!(net.distance(0, 8), 8);     // farthest ring distance
/// assert_eq!(net.distance(0, 15), 1);    // wraps the other way
/// let arrival = net.transfer(0, 2, 10);
/// assert_eq!(arrival, 12);               // 2 hops at 1 cycle each
/// ```
#[derive(Debug, Clone)]
pub struct Interconnect {
    topology: Topology,
    hop_latency: u64,
    n: usize,
    cols: usize,
    /// Per-cycle reservations of each directed link.
    links: SlotReservations,
}

impl Interconnect {
    /// Builds the fabric for `n` clusters.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, or — for the grid topology, whose layout
    /// requires it — not a power of two. Rings accept any count.
    pub fn new(params: &InterconnectParams, n: usize) -> Interconnect {
        assert!(n > 0, "need at least one cluster");
        let cols = match params.topology {
            Topology::Ring => n,
            Topology::Grid => {
                assert!(n.is_power_of_two(), "grid layout needs a power-of-two cluster count");
                let log = n.trailing_zeros();
                1usize << log.div_ceil(2)
            }
        };
        let links = match params.topology {
            // Two unidirectional rings.
            Topology::Ring => 2 * n,
            // Each grid edge is two directed links; addressed densely
            // below as 4 possible out-links per node.
            Topology::Grid => 4 * n,
        };
        Interconnect {
            topology: params.topology,
            hop_latency: params.hop_latency,
            n,
            cols,
            links: SlotReservations::new(links),
        }
    }

    /// Number of clusters the fabric connects.
    pub fn clusters(&self) -> usize {
        self.n
    }

    /// Cycles per hop.
    pub fn hop_latency(&self) -> u64 {
        self.hop_latency
    }

    /// Hop count of the route from `a` to `b`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn distance(&self, a: usize, b: usize) -> u64 {
        assert!(a < self.n && b < self.n, "cluster index out of range");
        match self.topology {
            Topology::Ring => {
                // `a` and `b` are in range, so the modulo reduces a
                // value below `2n` and a conditional subtract suffices.
                let d = b + self.n - a;
                let fwd = if d >= self.n { d - self.n } else { d };
                fwd.min(self.n - fwd) as u64
            }
            Topology::Grid => {
                let (ax, ay) = (a % self.cols, a / self.cols);
                let (bx, by) = (b % self.cols, b / self.cols);
                (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
            }
        }
    }

    /// Minimum (uncontended) latency from `a` to `b`.
    #[inline]
    pub fn latency(&self, a: usize, b: usize) -> u64 {
        self.distance(a, b) * self.hop_latency
    }

    /// Schedules a one-word transfer from `from` to `to`, ready to
    /// inject at `earliest`. Reserves one cycle on each link of the
    /// route (in order) and returns the arrival cycle.
    ///
    /// A transfer to the same cluster returns `earliest` and consumes
    /// no bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn transfer(&mut self, from: usize, to: usize, earliest: u64) -> u64 {
        assert!(from < self.n && to < self.n, "cluster index out of range");
        if from == to {
            return earliest;
        }
        let mut t = earliest;
        match self.topology {
            Topology::Ring => {
                // The chosen direction is invariant along a shortest
                // ring route: each hop shortens the forward distance by
                // one, so `fwd <= bwd` — once true — stays true (and
                // once false stays false). Deciding it here once lets
                // the hop loop step with conditional subtracts instead
                // of the two modulo reductions [`Interconnect::next_hop`]
                // pays per hop; the link ids and the order of the
                // reservations are identical.
                let d = to + self.n - from;
                let fwd = if d >= self.n { d - self.n } else { d };
                let forward = 2 * fwd <= self.n;
                let hops = if forward { fwd } else { self.n - fwd };
                let mut node = from;
                for _ in 0..hops {
                    let link = if forward { node } else { self.n + node };
                    t = self.links.reserve(link, t);
                    t += self.hop_latency;
                    node = if forward {
                        if node + 1 == self.n {
                            0
                        } else {
                            node + 1
                        }
                    } else if node == 0 {
                        self.n - 1
                    } else {
                        node - 1
                    };
                }
            }
            Topology::Grid => {
                let mut node = from;
                while node != to {
                    let (link, next) = self.next_hop(node, to);
                    t = self.links.reserve(link, t);
                    t += self.hop_latency;
                    node = next;
                }
            }
        }
        t
    }

    /// The out-link to use at `node` en route to `to`, and the
    /// neighbour it leads to.
    fn next_hop(&self, node: usize, to: usize) -> (Link, usize) {
        match self.topology {
            Topology::Ring => {
                let fwd = (to + self.n - node) % self.n;
                let bwd = (node + self.n - to) % self.n;
                if fwd <= bwd {
                    (node, (node + 1) % self.n) // forward ring: links 0..n
                } else {
                    (self.n + node, (node + self.n - 1) % self.n) // backward ring
                }
            }
            Topology::Grid => {
                // Dimension-ordered (X then Y) routing; out-links per
                // node: 0 = +x, 1 = -x, 2 = +y, 3 = -y.
                let (x, y) = (node % self.cols, node / self.cols);
                let (tx, ty) = (to % self.cols, to / self.cols);
                if x < tx {
                    (node * 4, node + 1)
                } else if x > tx {
                    (node * 4 + 1, node - 1)
                } else if y < ty {
                    (node * 4 + 2, node + self.cols)
                } else {
                    (node * 4 + 3, node - self.cols)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Interconnect {
        Interconnect::new(&InterconnectParams { topology: Topology::Ring, hop_latency: 1 }, n)
    }

    fn grid(n: usize) -> Interconnect {
        Interconnect::new(&InterconnectParams { topology: Topology::Grid, hop_latency: 1 }, n)
    }

    #[test]
    fn ring_distances_match_paper() {
        let net = ring(16);
        // "maximum number of hops between any two nodes being 8"
        let max = (0..16)
            .flat_map(|a| (0..16).map(move |b| (a, b)))
            .map(|(a, b)| net.distance(a, b))
            .max()
            .unwrap();
        assert_eq!(max, 8);
        assert_eq!(net.distance(3, 3), 0);
        assert_eq!(net.distance(0, 1), 1);
        assert_eq!(net.distance(1, 0), 1);
    }

    #[test]
    fn grid_distances_match_paper() {
        let net = grid(16);
        // "for 16 clusters ... the maximum number of hops being 6"
        let max = (0..16)
            .flat_map(|a| (0..16).map(move |b| (a, b)))
            .map(|(a, b)| net.distance(a, b))
            .max()
            .unwrap();
        assert_eq!(max, 6);
        // 4×4 layout: 0 and 5 are diagonal neighbours.
        assert_eq!(net.distance(0, 5), 2);
    }

    #[test]
    fn grid_shapes_for_small_counts() {
        assert_eq!(grid(2).distance(0, 1), 1);
        assert_eq!(grid(4).distance(0, 3), 2); // 2×2
        assert_eq!(grid(8).distance(0, 7), 4); // 4×2
    }

    #[test]
    fn transfer_pipelines_through_hops() {
        let mut net = ring(16);
        assert_eq!(net.transfer(0, 4, 100), 104);
        assert_eq!(net.transfer(4, 0, 100), 104); // opposite direction, no conflict
    }

    #[test]
    fn same_cluster_transfer_is_free() {
        let mut net = ring(16);
        assert_eq!(net.transfer(5, 5, 42), 42);
        assert_eq!(net.transfer(5, 5, 42), 42); // no bandwidth consumed
    }

    #[test]
    fn link_contention_serialises() {
        let mut net = ring(16);
        let a = net.transfer(0, 1, 10);
        let b = net.transfer(0, 1, 10);
        let c = net.transfer(0, 1, 10);
        assert_eq!(a, 11);
        assert_eq!(b, 12); // second transfer waits for the link
        assert_eq!(c, 13);
    }

    #[test]
    fn contention_applies_along_shared_route_prefix() {
        let mut net = ring(16);
        let far = net.transfer(0, 3, 10); // uses links 0,1,2 at cycles 10,11,12
        let near = net.transfer(0, 1, 10); // link 0 busy at 10
        assert_eq!(far, 13);
        assert_eq!(near, 12);
    }

    #[test]
    fn hop_latency_scales() {
        let mut net =
            Interconnect::new(&InterconnectParams { topology: Topology::Ring, hop_latency: 2 }, 16);
        assert_eq!(net.transfer(0, 3, 0), 6);
        assert_eq!(net.latency(0, 8), 16);
    }

    #[test]
    fn ring_accepts_any_count() {
        let mut net = ring(6);
        assert_eq!(net.distance(0, 3), 3);
        assert_eq!(net.distance(0, 4), 2, "wraps the short way");
        assert_eq!(net.transfer(0, 2, 5), 7);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn grid_rejects_non_power_of_two() {
        let _ = grid(6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_index() {
        let net = ring(4);
        let _ = net.distance(0, 4);
    }
}
