//! Linearized octree over a particle cloud.
//!
//! Particles are sorted by Morton code once; every node then owns a
//! contiguous range `start..end` of the sorted order, found by binary
//! searching octant prefixes. Nodes are stored in preorder (parents before
//! children), so a subtree is one contiguous index range — the upward and
//! downward passes split their per-node buffers between sibling subtrees.
//! Empty octants produce no node.

use crate::morton;
use hibd_mathx::Vec3;

/// Sentinel for "no child".
pub const NO_CHILD: u32 = u32::MAX;

/// One octree node.
#[derive(Clone, Debug)]
pub struct Node {
    /// Geometric center of the node's cube.
    pub center: Vec3,
    /// Half the cube side.
    pub half: f64,
    /// Owned range of the Morton-sorted particle order.
    pub start: u32,
    pub end: u32,
    /// Child node indices (preorder positions), `NO_CHILD` when absent.
    pub children: [u32; 8],
    /// Octant of this node within its parent (`0` for the root).
    pub octant: u8,
    /// Depth of the node (root = `0`).
    pub level: u8,
    /// Integer lattice coordinates of the node's cell at its level
    /// (`cell[c] in 0..2^level`, x/y/z order). Two nodes' *relative*
    /// geometry is an exact function of their levels and cell coordinates,
    /// which is what the FMM M2L table deduplicates on.
    pub cell: [u32; 3],
    /// True when the node has no children (its range is evaluated directly).
    pub leaf: bool,
}

impl Node {
    /// Number of particles in the node.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Circumscribed-sphere radius `sqrt(3) * half` used by the MAC.
    #[inline]
    pub fn radius(&self) -> f64 {
        3f64.sqrt() * self.half
    }
}

/// The linearized octree: sorted order, nodes in preorder, leaf index.
#[derive(Clone, Debug)]
pub struct Octree {
    /// Particle indices in Morton order (`order[k]` = original id).
    pub order: Vec<u32>,
    /// Positions in Morton order (`pos[k] = positions[order[k]]`).
    pub pos: Vec<Vec3>,
    /// Nodes in preorder; `nodes[0]` is the root (when any particles exist).
    pub nodes: Vec<Node>,
    /// Preorder indices of the leaves, in increasing `start` order.
    pub leaves: Vec<u32>,
}

impl Octree {
    /// Build over `positions` with the given leaf capacity. The root cube is
    /// the bounding cube of the cloud (centered on the bounding box).
    pub fn build(positions: &[Vec3], leaf_capacity: usize) -> Octree {
        assert!(leaf_capacity >= 1);
        let n = positions.len();
        if n == 0 {
            return Octree {
                order: Vec::new(),
                pos: Vec::new(),
                nodes: Vec::new(),
                leaves: Vec::new(),
            };
        }
        let mut lo = Vec3::splat(f64::INFINITY);
        let mut hi = Vec3::splat(f64::NEG_INFINITY);
        for p in positions {
            for c in 0..3 {
                lo[c] = lo[c].min(p[c]);
                hi[c] = hi[c].max(p[c]);
            }
        }
        let side = ((hi.x - lo.x).max(hi.y - lo.y).max(hi.z - lo.z)).max(f64::MIN_POSITIVE);
        // Center the cube on the bounding box so slab-like clouds stay inside.
        let center = Vec3::new(0.5 * (lo.x + hi.x), 0.5 * (lo.y + hi.y), 0.5 * (lo.z + hi.z));
        let cube_lo = center - Vec3::splat(side / 2.0);

        let mut keyed: Vec<(u64, u32)> = positions
            .iter()
            .enumerate()
            .map(|(i, p)| (morton::encode(*p, cube_lo, side), i as u32))
            .collect();
        keyed.sort_unstable();
        let order: Vec<u32> = keyed.iter().map(|&(_, i)| i).collect();
        let codes: Vec<u64> = keyed.iter().map(|&(c, _)| c).collect();
        let pos: Vec<Vec3> = order.iter().map(|&i| positions[i as usize]).collect();

        let mut tree = Octree { order, pos, nodes: Vec::new(), leaves: Vec::new() };
        tree.nodes.push(Node {
            center,
            half: side / 2.0,
            start: 0,
            end: n as u32,
            children: [NO_CHILD; 8],
            octant: 0,
            level: 0,
            cell: [0; 3],
            leaf: true,
        });
        tree.split(0, 0, &codes, leaf_capacity);
        tree
    }

    /// The complete octree of the unit cube with every leaf at `depth` and no
    /// particles: the geometry a uniform cloud's tree tends to, which is all
    /// the tuner's cost model needs of a cloud (`tuner::count_lists` runs
    /// the operator's own traversal over it).
    pub(crate) fn full(depth: u32) -> Octree {
        assert!(depth <= morton::MORTON_BITS);
        let mut tree =
            Octree { order: Vec::new(), pos: Vec::new(), nodes: Vec::new(), leaves: Vec::new() };
        tree.grow(Vec3::splat(0.5), 0.5, 0, [0; 3], 0, depth);
        tree
    }

    /// Append the complete subtree under the cell `(level, cell)` in
    /// preorder; returns its root's index.
    fn grow(
        &mut self,
        center: Vec3,
        half: f64,
        octant: u8,
        cell: [u32; 3],
        level: u8,
        depth: u32,
    ) -> u32 {
        let ni = self.nodes.len();
        let leaf = u32::from(level) == depth;
        self.nodes.push(Node {
            center,
            half,
            start: 0,
            end: 0,
            children: [NO_CHILD; 8],
            octant,
            level,
            cell,
            leaf,
        });
        if leaf {
            self.leaves.push(ni as u32);
            return ni as u32;
        }
        for oct in 0..8u8 {
            let bit = |shift: u8| u32::from((oct >> shift) & 1);
            let off = |shift: u8| if bit(shift) != 0 { half / 2.0 } else { -half / 2.0 };
            let child = self.grow(
                Vec3::new(center.x + off(2), center.y + off(1), center.z + off(0)),
                half / 2.0,
                oct,
                [2 * cell[0] + bit(2), 2 * cell[1] + bit(1), 2 * cell[2] + bit(0)],
                level + 1,
                depth,
            );
            self.nodes[ni].children[oct as usize] = child;
        }
        ni as u32
    }

    /// Deepest level of any node (`0` for a single-leaf or empty tree).
    pub fn max_depth(&self) -> u32 {
        self.nodes.iter().map(|n| u32::from(n.level)).max().unwrap_or(0)
    }

    /// Recursively split node `ni` (at depth `depth`) while it exceeds the
    /// leaf capacity and the Morton resolution allows.
    fn split(&mut self, ni: usize, depth: u32, codes: &[u64], leaf_capacity: usize) {
        let (start, end) = (self.nodes[ni].start as usize, self.nodes[ni].end as usize);
        if end - start <= leaf_capacity || depth >= morton::MORTON_BITS {
            self.nodes[ni].leaf = true;
            self.leaves.push(ni as u32);
            return;
        }
        self.nodes[ni].leaf = false;
        let (center, half) = (self.nodes[ni].center, self.nodes[ni].half);
        let (level, cell) = (self.nodes[ni].level, self.nodes[ni].cell);
        let mut cursor = start;
        for oct in 0..8u64 {
            // Contiguity by Morton sort: the octant group at this depth is
            // non-decreasing over the range, so each octant is one slice.
            let sub = &codes[cursor..end];
            let len = sub.partition_point(|&c| morton::octant_at_depth(c, depth) <= oct);
            if len == 0 {
                continue;
            }
            let child_half = half / 2.0;
            let off = |bit: u64| if bit != 0 { child_half } else { -child_half };
            let child_center = Vec3::new(
                center.x + off((oct >> 2) & 1),
                center.y + off((oct >> 1) & 1),
                center.z + off(oct & 1),
            );
            let ci = self.nodes.len();
            self.nodes.push(Node {
                center: child_center,
                half: child_half,
                start: cursor as u32,
                end: (cursor + len) as u32,
                children: [NO_CHILD; 8],
                octant: oct as u8,
                level: level + 1,
                cell: [
                    2 * cell[0] + ((oct >> 2) & 1) as u32,
                    2 * cell[1] + ((oct >> 1) & 1) as u32,
                    2 * cell[2] + (oct & 1) as u32,
                ],
                leaf: true,
            });
            self.nodes[ni].children[oct as usize] = ci as u32;
            self.split(ci, depth + 1, codes, leaf_capacity);
            cursor += len;
        }
        debug_assert_eq!(cursor, end, "octant slices must partition the range");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(n: usize, spread: f64, seed: u64) -> Vec<Vec3> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * spread
        };
        (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
    }

    #[test]
    fn leaves_partition_the_cloud() {
        let pos = cloud(500, 10.0, 1);
        let tree = Octree::build(&pos, 16);
        let mut covered = 0usize;
        let mut prev_end = 0u32;
        for &l in &tree.leaves {
            let node = &tree.nodes[l as usize];
            assert!(node.leaf);
            assert_eq!(node.start, prev_end, "leaves are contiguous in order");
            prev_end = node.end;
            covered += node.len();
            assert!(node.len() <= 16, "random cloud must respect the leaf capacity");
        }
        assert_eq!(covered, 500);
        assert_eq!(prev_end, 500);
    }

    #[test]
    fn nodes_contain_their_particles() {
        let pos = cloud(300, 7.0, 3);
        let tree = Octree::build(&pos, 8);
        for node in &tree.nodes {
            let eps = 1e-9 * (1.0 + node.half);
            for k in node.start..node.end {
                let p = tree.pos[k as usize];
                assert!((p.x - node.center.x).abs() <= node.half + eps, "{p:?} {node:?}");
                assert!((p.y - node.center.y).abs() <= node.half + eps);
                assert!((p.z - node.center.z).abs() <= node.half + eps);
            }
        }
    }

    #[test]
    fn children_partition_parents() {
        let pos = cloud(400, 12.0, 7);
        let tree = Octree::build(&pos, 10);
        for node in &tree.nodes {
            if node.leaf {
                continue;
            }
            let mut total = 0;
            for &c in &node.children {
                if c != NO_CHILD {
                    let ch = &tree.nodes[c as usize];
                    total += ch.len();
                    assert!(ch.start >= node.start && ch.end <= node.end);
                    assert!((ch.half - node.half / 2.0).abs() < 1e-12);
                }
            }
            assert_eq!(total, node.len());
        }
    }

    #[test]
    fn preorder_children_follow_parents() {
        let pos = cloud(200, 5.0, 9);
        let tree = Octree::build(&pos, 4);
        for (i, node) in tree.nodes.iter().enumerate() {
            for &c in &node.children {
                if c != NO_CHILD {
                    assert!((c as usize) > i, "preorder: child after parent");
                }
            }
        }
    }

    #[test]
    fn cells_and_levels_match_the_geometry() {
        // The integer lattice identity must reproduce each node's center:
        // center = root_lo + (cell + 1/2) * side / 2^level, per dimension.
        let pos = cloud(350, 9.0, 13);
        let tree = Octree::build(&pos, 8);
        let root = &tree.nodes[0];
        let side = 2.0 * root.half;
        let lo = root.center - Vec3::splat(root.half);
        for node in &tree.nodes {
            let w = side / f64::from(1u32 << node.level);
            for c in 0..3 {
                assert!(node.cell[c] < (1u32 << node.level));
                let want = lo[c] + (f64::from(node.cell[c]) + 0.5) * w;
                assert!((node.center[c] - want).abs() < 1e-9 * (1.0 + side), "{node:?}");
            }
        }
        assert!(tree.max_depth() >= 2);
        for node in &tree.nodes {
            if !node.leaf {
                for &c in &node.children {
                    if c != NO_CHILD {
                        assert_eq!(tree.nodes[c as usize].level, node.level + 1);
                    }
                }
            }
        }
    }

    #[test]
    fn a_full_tree_is_the_tree_of_one_particle_per_finest_cell() {
        // Same preorder, same cells, same centers as `build` produces for a
        // cloud that fills every depth-2 cell: the synthetic geometry is the
        // real builder's, not a second convention.
        let mut pos = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    for (dx, dy) in [(0.2, 0.3), (0.7, 0.6)] {
                        pos.push(Vec3::new(
                            (f64::from(i) + dx) / 4.0,
                            (f64::from(j) + dy) / 4.0,
                            (f64::from(k) + 0.5) / 4.0,
                        ));
                    }
                }
            }
        }
        // Pin the bounding cube to the unit cube.
        pos.push(Vec3::ZERO);
        pos.push(Vec3::splat(1.0));
        let built = Octree::build(&pos, 3);
        let full = Octree::full(2);
        assert_eq!((full.nodes.len(), full.leaves.len()), (1 + 8 + 64, 64));
        assert_eq!(built.nodes.len(), full.nodes.len());
        assert_eq!(built.leaves, full.leaves);
        for (b, f) in built.nodes.iter().zip(&full.nodes) {
            assert_eq!((b.level, b.cell, b.octant, b.leaf), (f.level, f.cell, f.octant, f.leaf));
            assert_eq!(b.children, f.children);
            assert!((b.center - f.center).norm() < 1e-12 && (b.half - f.half).abs() < 1e-12);
        }
        assert_eq!(Octree::full(0).leaves, vec![0]);
    }

    #[test]
    fn tiny_clouds_are_single_leaves() {
        let pos = cloud(5, 3.0, 11);
        let tree = Octree::build(&pos, 16);
        assert_eq!(tree.nodes.len(), 1);
        assert_eq!(tree.leaves.len(), 1);
        assert!(tree.nodes[0].leaf);
        let empty = Octree::build(&[], 16);
        assert!(empty.nodes.is_empty());
    }

    #[test]
    fn coincident_particles_terminate_at_depth_cap() {
        let p = Vec3::new(1.0, 2.0, 3.0);
        let pos = vec![p; 20];
        let tree = Octree::build(&pos, 4);
        // All particles share one Morton code: the tree cannot split them,
        // so some leaf holds more than the capacity — but the build ends.
        let total: usize = tree.leaves.iter().map(|&l| tree.nodes[l as usize].len()).sum();
        assert_eq!(total, 20);
    }
}
