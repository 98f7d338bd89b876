//! Lightpaths: routed transfers with a concrete direction and segment list.

use crate::topology::{Direction, NodeId, RingArc, RingTopology};
use serde::{Deserialize, Serialize};

/// A routed point-to-point lightpath on the ring.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LightPath {
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Propagation direction.
    pub direction: Direction,
    /// Segment indices traversed, in order. They must form one contiguous
    /// run around the ring, as [`LightPath::routed`] builds them: the
    /// wavelength core reads a path as that run.
    pub segments: Vec<usize>,
}

impl LightPath {
    /// Route `src -> dst` in an explicit direction.
    #[must_use]
    pub fn routed(topo: &RingTopology, src: NodeId, dst: NodeId, direction: Direction) -> Self {
        Self {
            src,
            dst,
            direction,
            segments: topo.path_segments(src, dst, direction),
        }
    }

    /// Route `src -> dst` along the shorter arc.
    #[must_use]
    pub fn shortest(topo: &RingTopology, src: NodeId, dst: NodeId) -> Self {
        let direction = topo.shortest_direction(src, dst);
        Self::routed(topo, src, dst, direction)
    }

    /// Number of ring hops.
    #[must_use]
    pub fn hops(&self) -> usize {
        self.segments.len()
    }

    /// The arc the path occupies (see `RingArc`).
    pub(crate) fn arc(&self) -> RingArc {
        RingArc::new(self.src, self.dst, self.direction, self.hops())
    }

    /// Two paths conflict iff they travel the same direction and share at
    /// least one segment. Opposite directions use physically distinct
    /// waveguides and never conflict.
    #[must_use]
    pub fn conflicts_with(&self, other: &LightPath) -> bool {
        if self.direction != other.direction {
            return false;
        }
        // Paths on a ring are short; a quadratic scan beats building sets.
        self.segments.iter().any(|s| other.segments.contains(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shortest_picks_small_arc() {
        let t = RingTopology::new(10);
        let p = LightPath::shortest(&t, NodeId(1), NodeId(9));
        assert_eq!(p.direction, Direction::CounterClockwise);
        assert_eq!(p.hops(), 2);
    }

    #[test]
    fn arc_covers_the_routed_segments() {
        let t = RingTopology::new(9);
        for a in 0..9 {
            for b in 0..9 {
                for d in Direction::BOTH {
                    let p = LightPath::routed(&t, NodeId(a), NodeId(b), d);
                    let mut segs = p.segments.clone();
                    segs.sort_unstable();
                    let mut arc: Vec<usize> = p.arc().segments(9).collect();
                    arc.sort_unstable();
                    assert_eq!(arc, segs, "{a} -> {b} {d:?}");
                }
            }
        }
    }

    #[test]
    fn nested_paths_conflict() {
        let t = RingTopology::new(16);
        let outer = LightPath::routed(&t, NodeId(0), NodeId(4), Direction::Clockwise);
        let inner = LightPath::routed(&t, NodeId(1), NodeId(3), Direction::Clockwise);
        assert!(outer.conflicts_with(&inner));
        assert!(inner.conflicts_with(&outer));
    }

    #[test]
    fn opposite_directions_never_conflict() {
        let t = RingTopology::new(16);
        let a = LightPath::routed(&t, NodeId(0), NodeId(4), Direction::Clockwise);
        let b = LightPath::routed(&t, NodeId(4), NodeId(0), Direction::CounterClockwise);
        // Same physical span, opposite waveguides.
        assert!(!a.conflicts_with(&b));
    }

    #[test]
    fn disjoint_arcs_do_not_conflict() {
        let t = RingTopology::new(16);
        let a = LightPath::routed(&t, NodeId(0), NodeId(3), Direction::Clockwise);
        let b = LightPath::routed(&t, NodeId(8), NodeId(11), Direction::Clockwise);
        assert!(!a.conflicts_with(&b));
    }

    #[test]
    fn adjacent_arcs_share_no_segment() {
        let t = RingTopology::new(8);
        // 0->2 uses segments {0,1}; 2->4 uses {2,3}: touching at node 2 is fine.
        let a = LightPath::routed(&t, NodeId(0), NodeId(2), Direction::Clockwise);
        let b = LightPath::routed(&t, NodeId(2), NodeId(4), Direction::Clockwise);
        assert!(!a.conflicts_with(&b));
    }
}
