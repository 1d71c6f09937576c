//! kd-tree for nearest-neighbor and radius queries.
//!
//! The irregular kernel at the heart of LiDAR processing (Sec. III-D: "the
//! kd-tree–based neighbor search"). The traced query variants report every
//! tree node and point record touched, which the [`crate::traffic`] module
//! converts into memory-access streams for the cache study.

use crate::cloud::{dist_sq, Point, PointCloud};
use sov_runtime::pool::WorkerPool;

/// Subtrees smaller than this are never split into separate build jobs.
const SUBTREE_SPLIT_MIN: usize = 512;

/// Upper bound on parallel subtree build jobs. Fixed (never derived from
/// worker count) so the job layout — and the tree — is identical for any
/// pool size.
const MAX_SUBTREE_JOBS: usize = 16;

/// One kd-tree node (index-based, stored in a flat arena).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Node {
    /// Index of the point stored at this node.
    point: usize,
    /// Split dimension (0..3).
    axis: usize,
    /// Left child (arena index) or `usize::MAX`.
    left: usize,
    /// Right child (arena index) or `usize::MAX`.
    right: usize,
}

const NONE: usize = usize::MAX;

/// Events emitted by traced traversals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touch {
    /// A tree node (arena index) was visited.
    Node(usize),
    /// A point record (cloud index) was read.
    Point(usize),
}

/// A kd-tree over a point cloud (the cloud is borrowed per query).
#[derive(Debug, Clone, PartialEq)]
pub struct KdTree {
    nodes: Vec<Node>,
    root: usize,
    /// Copies of the points in build order (kept so queries do not require
    /// the original cloud).
    points: Vec<Point>,
}

impl KdTree {
    /// Builds a balanced kd-tree (median splits) over a cloud.
    ///
    /// Returns an empty tree for an empty cloud.
    #[must_use]
    pub fn build(cloud: &PointCloud) -> Self {
        Self::build_with(cloud, None)
    }

    /// [`Self::build`] with optional intra-frame parallelism.
    ///
    /// Every node splits its subtree at the median on axis `depth % 3`,
    /// exactly as stable-sorting the subtree's indices on that axis at
    /// every level would (`build_stable_sort`, the tests' oracle). Stable
    /// sorts of stable sorts order a depth-`d` subtree by a total order:
    /// `(x, index)` at the root, `(y, x, index)` below it, and
    /// `(a_d, a_{d-1}, a_{d-2}, index)` from depth 2 on, with `a_k` the
    /// axis `k % 3`. So the build ranks
    /// each axis once, packs those keys into one `u128` per point, and
    /// each node selects its median with `select_nth_unstable`: the same
    /// median and the same two child sets, in O(n log n).
    ///
    /// The arena layout is pre-order (a node, then its whole left subtree,
    /// then its right), so a subtree of `m` points occupies exactly `m`
    /// contiguous arena slots whose positions are known before the subtree
    /// is built. The top of the tree is expanded serially into at most
    /// [`MAX_SUBTREE_JOBS`] subtree jobs owning disjoint node and key
    /// ranges; jobs then build concurrently, and the resulting tree is
    /// bit-identical to the serial build for any worker count.
    ///
    /// # Panics
    ///
    /// Panics with `finite coordinates` if any coordinate is NaN (`±∞`
    /// order normally, and `-0.0` ties `0.0`), and if the cloud has more
    /// than 2³² points.
    #[must_use]
    pub fn build_with(cloud: &PointCloud, pool: Option<&WorkerPool>) -> Self {
        let points: Vec<Point> = cloud.points().to_vec();
        let n = points.len();
        if n == 0 {
            return Self {
                nodes: Vec::new(),
                root: NONE,
                points,
            };
        }
        let mut keys = vec![0u128; n];
        let ranks = axis_ranks(&points, &mut keys);
        let mut nodes = vec![
            Node {
                point: 0,
                axis: 0,
                left: NONE,
                right: NONE,
            };
            n
        ];
        /// One pending subtree: disjoint arena and key ranges plus the
        /// depth and absolute arena offset of its root.
        struct Job<'a> {
            nodes: &'a mut [Node],
            keys: &'a mut [u128],
            depth: usize,
            base: usize,
        }
        let mut jobs: Vec<Job> = vec![Job {
            nodes: &mut nodes,
            keys: &mut keys,
            depth: 0,
            base: 0,
        }];
        // Serial frontier expansion: repeatedly split the largest job's
        // root until every job is small or the job cap is reached. The
        // split sequence depends only on the input, never the pool.
        while jobs.len() < MAX_SUBTREE_JOBS {
            let Some(pos) = jobs
                .iter()
                .enumerate()
                .filter(|(_, j)| j.keys.len() > SUBTREE_SPLIT_MIN)
                .max_by_key(|(_, j)| j.keys.len())
                .map(|(i, _)| i)
            else {
                break;
            };
            let job = jobs.swap_remove(pos);
            let (left_keys, right_keys, left_nodes, right_nodes) =
                split_node(&ranks, job.keys, job.depth, job.base, job.nodes);
            let mid = left_keys.len();
            if !left_keys.is_empty() {
                jobs.push(Job {
                    nodes: left_nodes,
                    keys: left_keys,
                    depth: job.depth + 1,
                    base: job.base + 1,
                });
            }
            if !right_keys.is_empty() {
                jobs.push(Job {
                    nodes: right_nodes,
                    keys: right_keys,
                    depth: job.depth + 1,
                    base: job.base + 1 + mid,
                });
            }
        }
        // Each job writes only its own ranges, so processing order cannot
        // affect the result; chunk size 1 lets the pool balance the
        // unequal subtree sizes.
        let build_job = |job: &mut Job| {
            build_into(&ranks, job.keys, job.depth, job.base, job.nodes);
        };
        match pool {
            Some(pool) => pool.parallel_for(&mut jobs, 1, |_, chunk| {
                for job in chunk {
                    build_job(job);
                }
            }),
            None => {
                for job in &mut jobs {
                    build_job(job);
                }
            }
        }
        drop(jobs);
        Self {
            nodes,
            root: 0,
            points,
        }
    }

    /// The cloud index stored at each arena slot, in arena (pre-order)
    /// order: the order in which a tree walk that visits a node before
    /// its subtrees, left before right, reports points.
    pub(crate) fn arena_points(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.nodes.iter().map(|node| node.point)
    }

    /// Number of points indexed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the tree is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of arena nodes (equals `len`).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The stored point at cloud index `idx` (as passed to [`Self::build`]).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn point(&self, idx: usize) -> &Point {
        &self.points[idx]
    }

    /// Nearest neighbor of `query`: `(point index, distance)`; `None` for
    /// an empty tree.
    #[must_use]
    pub fn nearest(&self, query: &Point) -> Option<(usize, f64)> {
        self.nearest_traced(query, &mut |_| {})
    }

    /// Nearest neighbor with a trace callback invoked for every node and
    /// point record touched.
    pub fn nearest_traced(
        &self,
        query: &Point,
        trace: &mut impl FnMut(Touch),
    ) -> Option<(usize, f64)> {
        if self.root == NONE {
            return None;
        }
        let mut best = (usize::MAX, f64::INFINITY);
        self.nn_rec(self.root, query, &mut best, trace);
        (best.0 != usize::MAX).then(|| (best.0, best.1.sqrt()))
    }

    fn nn_rec(
        &self,
        node_idx: usize,
        query: &Point,
        best: &mut (usize, f64),
        trace: &mut impl FnMut(Touch),
    ) {
        if node_idx == NONE {
            return;
        }
        trace(Touch::Node(node_idx));
        let node = self.nodes[node_idx];
        trace(Touch::Point(node.point));
        let d = dist_sq(query, &self.points[node.point]);
        if d < best.1 {
            *best = (node.point, d);
        }
        let delta = query[node.axis] - self.points[node.point][node.axis];
        let (near, far) = if delta < 0.0 {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        self.nn_rec(near, query, best, trace);
        // Prune the far side unless the splitting plane is closer than the
        // current best.
        if delta * delta < best.1 {
            self.nn_rec(far, query, best, trace);
        }
    }

    /// All point indices within `radius` of `query`.
    #[must_use]
    pub fn radius_search(&self, query: &Point, radius: f64) -> Vec<usize> {
        self.radius_search_traced(query, radius, &mut |_| {})
    }

    /// Radius search with a trace callback.
    pub fn radius_search_traced(
        &self,
        query: &Point,
        radius: f64,
        trace: &mut impl FnMut(Touch),
    ) -> Vec<usize> {
        let mut out = Vec::new();
        if self.root != NONE {
            self.radius_rec(self.root, query, radius * radius, radius, &mut out, trace);
        }
        out
    }

    fn radius_rec(
        &self,
        node_idx: usize,
        query: &Point,
        r_sq: f64,
        r: f64,
        out: &mut Vec<usize>,
        trace: &mut impl FnMut(Touch),
    ) {
        if node_idx == NONE {
            return;
        }
        trace(Touch::Node(node_idx));
        let node = self.nodes[node_idx];
        trace(Touch::Point(node.point));
        if dist_sq(query, &self.points[node.point]) <= r_sq {
            out.push(node.point);
        }
        // Inclusive, like the `<= r_sq` test above: a point sharing the
        // split coordinate may sit in either subtree, exactly `r` away.
        let delta = query[node.axis] - self.points[node.point][node.axis];
        if delta <= r {
            self.radius_rec(node.left, query, r_sq, r, out, trace);
        }
        if delta >= -r {
            self.radius_rec(node.right, query, r_sq, r, out, trace);
        }
    }

    /// `k` nearest neighbors of `query` as `(index, distance)`, nearest
    /// first. Returns fewer when the tree is smaller than `k`.
    ///
    /// Candidates are kept in a bounded max-heap over the same pruned
    /// traversal as [`Self::nearest`], so a query visits `O(k + log n)`
    /// nodes instead of scoring the whole cloud. Ordering is
    /// lexicographic on `(distance, index)`, which matches a stable
    /// full sort by distance exactly — including ties.
    #[must_use]
    pub fn k_nearest(&self, query: &Point, k: usize) -> Vec<(usize, f64)> {
        if k == 0 || self.root == NONE {
            return Vec::new();
        }
        let mut heap = KnnHeap::new(k);
        self.knn_rec(self.root, query, &mut heap);
        heap.into_sorted()
    }

    fn knn_rec(&self, node_idx: usize, query: &Point, heap: &mut KnnHeap) {
        if node_idx == NONE {
            return;
        }
        let node = self.nodes[node_idx];
        heap.offer(dist_sq(query, &self.points[node.point]), node.point);
        let delta = query[node.axis] - self.points[node.point][node.axis];
        let (near, far) = if delta < 0.0 {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        self.knn_rec(near, query, heap);
        // Once the heap is full the far side can only matter if the
        // splitting plane is at most the worst kept distance; `<=` (not
        // `<`) keeps equal-distance candidates reachable so distance
        // ties still resolve to the lowest index.
        if delta * delta <= heap.worst() {
            self.knn_rec(far, query, heap);
        }
    }
}

/// Dense per-axis ranks of every point (`ranks[i][axis]`): equal
/// coordinates share a rank, as `partial_cmp` ties them. `keys` (one
/// slot per point) is the sort scratch; it is left holding each point's
/// index in its low 32 bits, which is all [`refresh_keys`] reads.
fn axis_ranks(points: &[Point], keys: &mut [u128]) -> Vec<[u32; 3]> {
    let mut ranks = vec![[0u32; 3]; points.len()];
    for axis in 0..3 {
        for (i, (key, p)) in keys.iter_mut().zip(points).enumerate() {
            let index = u32::try_from(i).expect("at most 2^32 points");
            *key = u128::from(order_bits(p[axis])) << 64 | u128::from(index);
        }
        keys.sort_unstable();
        let mut rank = 0u32;
        let mut prev = keys[0] >> 64;
        for &key in keys.iter() {
            if key >> 64 != prev {
                rank += 1;
                prev = key >> 64;
            }
            ranks[key as u32 as usize][axis] = rank;
        }
    }
    ranks
}

/// `v`'s bits, remapped so unsigned order is `partial_cmp`'s order:
/// `-0.0` maps to `0.0`'s key, and `±∞` sort at the ends.
fn order_bits(v: f64) -> u64 {
    assert!(!v.is_nan(), "finite coordinates");
    let bits = (v + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Rewrites each key in the depth-`depth` subtree order that
/// [`KdTree::build_with`] derives: the ranks on `a_d`, `a_{d-1}` and
/// `a_{d-2}`, then the point index kept in the low 32 bits. At depths 0
/// and 1 the axes that do not yet order the subtree are masked out.
fn refresh_keys(keys: &mut [u128], ranks: &[[u32; 3]], depth: usize) {
    let [a0, a1, a2] = [depth % 3, (depth + 2) % 3, (depth + 1) % 3];
    let m1 = if depth >= 1 { u32::MAX } else { 0 };
    let m2 = if depth >= 2 { u32::MAX } else { 0 };
    for key in keys {
        let index = *key as u32;
        let r = ranks[index as usize];
        *key = u128::from(r[a0]) << 96
            | u128::from(r[a1] & m1) << 64
            | u128::from(r[a2] & m2) << 32
            | u128::from(index);
    }
}

/// Left keys, right keys, left nodes, right nodes of one split.
type Halves<'a> = (
    &'a mut [u128],
    &'a mut [u128],
    &'a mut [Node],
    &'a mut [Node],
);

/// Writes a subtree's root at `nodes[0]` (absolute arena index `base`)
/// and returns the key and arena ranges of its two children.
/// `nodes.len() == keys.len() > 0`.
fn split_node<'a>(
    ranks: &[[u32; 3]],
    keys: &'a mut [u128],
    depth: usize,
    base: usize,
    nodes: &'a mut [Node],
) -> Halves<'a> {
    refresh_keys(keys, ranks, depth);
    let mid = keys.len() / 2;
    let (left_keys, median, right_keys) = keys.select_nth_unstable(mid);
    let (root_node, child_nodes) = nodes.split_first_mut().expect("non-empty subtree");
    let (left_nodes, right_nodes) = child_nodes.split_at_mut(mid);
    *root_node = Node {
        point: *median as u32 as usize,
        axis: depth % 3,
        left: if left_keys.is_empty() { NONE } else { base + 1 },
        right: if right_keys.is_empty() {
            NONE
        } else {
            base + 1 + mid
        },
    };
    (left_keys, right_keys, left_nodes, right_nodes)
}

/// Serial pre-order subtree build into a pre-sized arena range.
/// `nodes.len() == keys.len()`; `base` is the absolute arena index of
/// `nodes[0]`.
fn build_into(
    ranks: &[[u32; 3]],
    keys: &mut [u128],
    depth: usize,
    base: usize,
    nodes: &mut [Node],
) {
    match keys {
        [] => return,
        // A leaf needs no order: half the nodes skip the select.
        [key] => {
            nodes[0] = Node {
                point: *key as u32 as usize,
                axis: depth % 3,
                left: NONE,
                right: NONE,
            };
            return;
        }
        _ => {}
    }
    let (left_keys, right_keys, left_nodes, right_nodes) =
        split_node(ranks, keys, depth, base, nodes);
    let mid = left_keys.len();
    build_into(ranks, left_keys, depth + 1, base + 1, left_nodes);
    build_into(ranks, right_keys, depth + 1, base + 1 + mid, right_nodes);
}

/// Bounded max-heap of the best `k` `(distance², index)` candidates seen
/// so far, ordered lexicographically so equal distances compare by index.
/// The root holds the worst kept candidate; a better offer replaces it in
/// `O(log k)` without allocating.
struct KnnHeap {
    k: usize,
    items: Vec<(f64, usize)>,
}

/// Lexicographic `(distance², index)` comparison; total because
/// distances are finite.
fn knn_less(a: (f64, usize), b: (f64, usize)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

impl KnnHeap {
    fn new(k: usize) -> Self {
        Self {
            k,
            items: Vec::with_capacity(k),
        }
    }

    /// Worst distance² kept; infinite until the heap is full, so every
    /// candidate and every subtree survives pruning while filling.
    fn worst(&self) -> f64 {
        if self.items.len() < self.k {
            f64::INFINITY
        } else {
            self.items[0].0
        }
    }

    fn offer(&mut self, d_sq: f64, index: usize) {
        let cand = (d_sq, index);
        if self.items.len() < self.k {
            self.items.push(cand);
            let mut i = self.items.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if knn_less(self.items[parent], self.items[i]) {
                    self.items.swap(i, parent);
                    i = parent;
                } else {
                    break;
                }
            }
        } else if knn_less(cand, self.items[0]) {
            self.items[0] = cand;
            let mut i = 0;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut largest = i;
                if l < self.items.len() && knn_less(self.items[largest], self.items[l]) {
                    largest = l;
                }
                if r < self.items.len() && knn_less(self.items[largest], self.items[r]) {
                    largest = r;
                }
                if largest == i {
                    break;
                }
                self.items.swap(i, largest);
                i = largest;
            }
        }
    }

    /// Drains into `(index, distance)` pairs sorted nearest-first.
    fn into_sorted(self) -> Vec<(usize, f64)> {
        let mut items = self.items;
        items.sort_by(|a, b| {
            if knn_less(*a, *b) {
                std::cmp::Ordering::Less
            } else if knn_less(*b, *a) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        });
        items.into_iter().map(|(d, i)| (i, d.sqrt())).collect()
    }
}

/// The stable-sort build [`KdTree::build_with`] replaced, kept as its
/// oracle: every subtree's indices stable-sorted on the node's axis by
/// `partial_cmp`, the median at `len / 2`.
#[cfg(test)]
pub(crate) fn build_stable_sort(cloud: &PointCloud) -> KdTree {
    fn build(
        points: &[Point],
        indices: &mut [usize],
        depth: usize,
        base: usize,
        nodes: &mut [Node],
    ) {
        if indices.is_empty() {
            return;
        }
        let axis = depth % 3;
        indices.sort_by(|&a, &b| {
            points[a][axis]
                .partial_cmp(&points[b][axis])
                .expect("finite coordinates")
        });
        let mid = indices.len() / 2;
        let (root, children) = nodes.split_first_mut().expect("non-empty subtree");
        let (left_nodes, right_nodes) = children.split_at_mut(mid);
        let (left, rest) = indices.split_at_mut(mid);
        let (median, right) = rest.split_first_mut().expect("mid in range");
        *root = Node {
            point: *median,
            axis,
            left: if left.is_empty() { NONE } else { base + 1 },
            right: if right.is_empty() {
                NONE
            } else {
                base + 1 + mid
            },
        };
        build(points, left, depth + 1, base + 1, left_nodes);
        build(points, right, depth + 1, base + 1 + mid, right_nodes);
    }
    let points = cloud.points().to_vec();
    let n = points.len();
    let mut nodes = vec![
        Node {
            point: 0,
            axis: 0,
            left: NONE,
            right: NONE,
        };
        n
    ];
    build(&points, &mut (0..n).collect::<Vec<_>>(), 0, 0, &mut nodes);
    KdTree {
        nodes,
        root: if n == 0 { NONE } else { 0 },
        points,
    }
}

/// `n` tie-heavy points for the bitwise oracles: coordinates uniform in
/// ±20 m, rounded to multiples of `step` (left continuous when `step` is
/// 0), with `-0.0` beside `0.0`; about one point in ten repeats an
/// earlier one and, with `infinities`, one in twenty has a `±∞`
/// coordinate.
#[cfg(test)]
pub(crate) fn tie_heavy_cloud(n: usize, seed: u64, step: f64, infinities: bool) -> PointCloud {
    let mut rng = sov_math::SovRng::seed_from_u64(seed);
    let mut points: Vec<Point> = Vec::with_capacity(n);
    for _ in 0..n {
        let mut p = [0.0; 3].map(|_| {
            let v = rng.uniform(-20.0, 20.0);
            let v = if step > 0.0 {
                (v / step).round() * step
            } else {
                v
            };
            if v == 0.0 && rng.index(2) == 0 {
                -0.0
            } else {
                v
            }
        });
        match rng.index(20) {
            0 | 1 if !points.is_empty() => p = points[rng.index(points.len())],
            2 if infinities => p[rng.index(3)] = [f64::INFINITY, f64::NEG_INFINITY][rng.index(2)],
            _ => {}
        }
        points.push(p);
    }
    PointCloud::from_points(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sov_math::SovRng;
    use sov_testkit::prelude::*;

    fn random_cloud(n: usize, seed: u64) -> PointCloud {
        let mut rng = SovRng::seed_from_u64(seed);
        PointCloud::from_points(
            (0..n)
                .map(|_| {
                    [
                        rng.uniform(-10.0, 10.0),
                        rng.uniform(-10.0, 10.0),
                        rng.uniform(0.0, 5.0),
                    ]
                })
                .collect(),
        )
    }

    fn brute_nearest(cloud: &PointCloud, q: &Point) -> (usize, f64) {
        cloud
            .points()
            .iter()
            .enumerate()
            .map(|(i, p)| (i, dist_sq(q, p)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .map(|(i, d)| (i, d.sqrt()))
            .unwrap()
    }

    #[test]
    fn nearest_matches_brute_force() {
        let cloud = random_cloud(500, 1);
        let tree = KdTree::build(&cloud);
        let mut rng = SovRng::seed_from_u64(2);
        for _ in 0..200 {
            let q = [
                rng.uniform(-12.0, 12.0),
                rng.uniform(-12.0, 12.0),
                rng.uniform(-1.0, 6.0),
            ];
            let (ti, td) = tree.nearest(&q).unwrap();
            let (bi, bd) = brute_nearest(&cloud, &q);
            assert!((td - bd).abs() < 1e-12, "distance mismatch at {q:?}");
            // Ties can pick either index; distances must agree.
            let _ = (ti, bi);
        }
    }

    /// A cloud on a grid of `step`-spaced coordinates (a power of two, so
    /// every difference and square is exact): many points share a split
    /// coordinate, and many lie at exactly an integer number of steps.
    fn grid_cloud(n: usize, seed: u64, step: f64) -> PointCloud {
        let mut rng = SovRng::seed_from_u64(seed);
        PointCloud::from_points(
            (0..n)
                .map(|_| {
                    [
                        step * rng.index(9) as f64,
                        step * rng.index(9) as f64,
                        step * rng.index(3) as f64,
                    ]
                })
                .collect(),
        )
    }

    #[test]
    fn radius_search_keeps_a_tied_split_point_at_the_radius() {
        // The root splits on x at [1, 1, 0]; [1, 0, 0] shares its x, sits
        // in the left subtree, and lies exactly 1 from the query, whose
        // delta to the split plane is exactly the radius.
        let cloud =
            PointCloud::from_points(vec![[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 2.0, 0.0]]);
        let tree = KdTree::build(&cloud);
        assert_eq!(tree.radius_search(&[2.0, 0.0, 0.0], 1.0), vec![0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn radius_search_matches_brute_force(
            n in 1usize..300,
            seed in 0u64..5_000,
            step_log2 in 0u32..3,
            r_steps in 1usize..5,
        ) {
            let step = 0.5f64.powi(step_log2 as i32);
            let cloud = grid_cloud(n, seed, step);
            let tree = KdTree::build(&cloud);
            let points = cloud.points();
            let r = step * r_steps as f64;
            let mut rng = SovRng::seed_from_u64(seed ^ 0x5EA5);
            for i in 0..40 {
                // Half the queries sit on a cloud point, half on the grid.
                let q = if i % 2 == 0 {
                    points[rng.index(points.len())]
                } else {
                    grid_cloud(1, rng.next_u64(), step).points()[0]
                };
                let mut by_distance: Vec<(f64, usize)> =
                    points.iter().enumerate().map(|(j, p)| (dist_sq(&q, p), j)).collect();
                by_distance.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

                let mut found = tree.radius_search(&q, r);
                found.sort_unstable();
                let mut brute: Vec<usize> = by_distance
                    .iter()
                    .filter(|(d, _)| *d <= r * r)
                    .map(|&(_, j)| j)
                    .collect();
                brute.sort_unstable();
                prop_assert_eq!(found, brute, "radius {} around {:?}", r, q);

                let (_, near) = tree.nearest(&q).expect("non-empty");
                prop_assert_eq!(near, by_distance[0].0.sqrt(), "nearest to {:?}", q);

                let k = 1 + rng.index(8);
                let want: Vec<(usize, f64)> =
                    by_distance.iter().take(k).map(|&(d, j)| (j, d.sqrt())).collect();
                prop_assert_eq!(tree.k_nearest(&q, k), want, "{} nearest to {:?}", k, q);
            }
        }
    }

    #[test]
    fn k_nearest_sorted_and_sized() {
        let cloud = random_cloud(100, 4);
        let tree = KdTree::build(&cloud);
        let knn = tree.k_nearest(&[0.0, 0.0, 0.0], 10);
        assert_eq!(knn.len(), 10);
        for w in knn.windows(2) {
            assert!(w[0].1 <= w[1].1, "must be sorted by distance");
        }
        assert!(tree.k_nearest(&[0.0, 0.0, 0.0], 0).is_empty());
        assert_eq!(tree.k_nearest(&[0.0, 0.0, 0.0], 1000).len(), 100);
    }

    #[test]
    fn empty_tree_behaviour() {
        let tree = KdTree::build(&PointCloud::new());
        assert!(tree.is_empty());
        assert!(tree.nearest(&[0.0, 0.0, 0.0]).is_none());
        assert!(tree.radius_search(&[0.0, 0.0, 0.0], 5.0).is_empty());
    }

    #[test]
    fn trace_reports_touches() {
        let cloud = random_cloud(200, 5);
        let tree = KdTree::build(&cloud);
        let mut nodes = 0usize;
        let mut points = 0usize;
        let _ = tree.nearest_traced(&[1.0, 1.0, 1.0], &mut |t| match t {
            Touch::Node(_) => nodes += 1,
            Touch::Point(_) => points += 1,
        });
        assert!(nodes > 0 && points > 0);
        assert_eq!(nodes, points, "each visited node reads its point");
        // Pruning means we touch far fewer than all nodes.
        assert!(nodes < 200, "visited {nodes} of 200");
    }

    #[test]
    fn traversal_is_logarithmic_ish() {
        let small = KdTree::build(&random_cloud(100, 6));
        let large = KdTree::build(&random_cloud(10_000, 6));
        let count = |tree: &KdTree| {
            let mut n = 0;
            let _ = tree.nearest_traced(&[0.0, 0.0, 0.0], &mut |t| {
                if matches!(t, Touch::Node(_)) {
                    n += 1;
                }
            });
            n
        };
        let (cs, cl) = (count(&small), count(&large));
        // 100× the points should cost far less than 100× the visits.
        assert!(cl < cs * 20, "small {cs}, large {cl}");
    }

    #[test]
    fn node_count_equals_point_count() {
        let cloud = random_cloud(137, 7);
        let tree = KdTree::build(&cloud);
        assert_eq!(tree.num_nodes(), 137);
        assert_eq!(tree.len(), 137);
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        // Large enough that the frontier expansion reaches the job cap and
        // every subtree job does real work.
        let cloud = random_cloud(9000, 8);
        let serial = KdTree::build(&cloud);
        for lanes in [1, 2, 4, 8] {
            let pool = WorkerPool::new(lanes);
            let parallel = KdTree::build_with(&cloud, Some(&pool));
            assert_eq!(parallel, serial, "lanes = {lanes}");
        }
        // Small clouds skip the expansion entirely and still agree.
        let small = random_cloud(40, 9);
        let pool = WorkerPool::new(4);
        assert_eq!(
            KdTree::build_with(&small, Some(&pool)),
            KdTree::build(&small)
        );
        assert!(KdTree::build_with(&PointCloud::new(), Some(&pool)).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn bitwise_oracle_selection_build_equals_stable_sort(
            n in 1usize..4_000,
            seed in 0u64..5_000,
            step_pick in 0usize..4,
            lanes in 1usize..9,
        ) {
            let step = [0.0, 0.25, 1.0, 5.0][step_pick];
            let cloud = tie_heavy_cloud(n, seed, step, seed % 2 == 0);
            let oracle = build_stable_sort(&cloud);
            prop_assert_eq!(&KdTree::build(&cloud), &oracle, "serial, n {}, step {}", n, step);
            let pool = WorkerPool::new(lanes);
            prop_assert_eq!(
                &KdTree::build_with(&cloud, Some(&pool)),
                &oracle,
                "{} lanes, n {}, step {}", lanes, n, step
            );
        }
    }

    #[test]
    fn bitwise_oracle_selection_build_handles_small_and_signed_zero_clouds() {
        for points in [
            vec![[0.0, 0.0, 0.0]],
            vec![[-0.0, 1.0, 0.0], [0.0, 1.0, -0.0]],
            vec![
                [f64::INFINITY, 0.0, 0.0],
                [f64::NEG_INFINITY, 0.0, 0.0],
                [0.0; 3],
            ],
            vec![[1.0, 2.0, 3.0]; 7],
        ] {
            let cloud = PointCloud::from_points(points);
            assert_eq!(
                KdTree::build(&cloud),
                build_stable_sort(&cloud),
                "{cloud:?}"
            );
        }
        assert_eq!(
            KdTree::build(&PointCloud::new()),
            build_stable_sort(&PointCloud::new())
        );
    }

    /// A NaN anywhere panics, also where the stable sort never compared
    /// it: a root chosen on `x` is never sorted on `y`.
    #[test]
    #[should_panic(expected = "finite coordinates")]
    fn bitwise_oracle_build_rejects_a_nan_coordinate() {
        let _ = KdTree::build(&PointCloud::from_points(vec![[1.0, f64::NAN, 0.0]]));
    }
}
