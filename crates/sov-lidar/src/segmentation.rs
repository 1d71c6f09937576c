//! Euclidean clustering — the **segmentation** workload of Fig. 4.
//!
//! PCL-style region growing: points within `cluster_tolerance` of a cluster
//! member join the cluster. [`euclidean_clusters_with`] reads each point's
//! neighbours from a uniform grid; [`euclidean_clusters_traced`] finds them
//! with repeated kd-tree radius queries, the irregular-access kernel whose
//! memory traffic Fig. 4b models. Both grow the same clusters.

use crate::cloud::{dist_sq, Point, PointCloud};
use crate::kdtree::{KdTree, Touch};
use sov_runtime::pool::{map_reduce_chunks, WorkerPool};

/// Points per parallel chunk in the neighbour-list precompute (fixed so
/// chunk boundaries never depend on worker count).
const POINTS_PER_CHUNK: usize = 64;

/// A grid cell's edge exceeds the radius by this relative hair, so
/// rounding in a cell index cannot put two points within the radius two
/// cells apart.
const CELL_HAIR: f64 = 1.0 / 1_048_576.0;

/// Most grid cells per grid point: wider cells keep a sparse or wide
/// cloud's grid O(n), and a cell at least the radius wide stays exact.
const CELLS_PER_POINT: f64 = 2.0;

/// Segmentation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentationConfig {
    /// Neighbor distance for region growing (m).
    pub cluster_tolerance_m: f64,
    /// Minimum points for a cluster to be reported.
    pub min_cluster_size: usize,
    /// Maximum points per cluster (larger clusters are split by the cap).
    pub max_cluster_size: usize,
}

impl Default for SegmentationConfig {
    fn default() -> Self {
        Self {
            cluster_tolerance_m: 0.7,
            min_cluster_size: 10,
            max_cluster_size: 100_000,
        }
    }
}

/// Euclidean cluster extraction. Returns clusters as lists of point
/// indices, largest first. Serial [`euclidean_clusters_with`].
///
/// # Panics
///
/// As [`euclidean_clusters_with`].
#[must_use]
pub fn euclidean_clusters(
    cloud: &PointCloud,
    tree: &KdTree,
    config: &SegmentationConfig,
) -> Vec<Vec<usize>> {
    euclidean_clusters_with(cloud, tree, config, None)
}

/// [`euclidean_clusters`] with optional intra-frame parallelism.
///
/// Each point's neighbour list is exactly what `tree.radius_search`
/// returns for it: the tree's points within the tolerance, in arena
/// (pre-order) order, since the walk visits nodes in pre-order. The lists
/// come from a uniform grid over the tree's finite points instead of a
/// walk per point: a query tests the points of its 27 surrounding cells
/// with the walk's own `dist_sq <= r²` and sorts its hits by arena rank.
/// Non-finite points and queries never pass that test, so they stay out
/// of the grid. The lists are computed in fixed chunks on the pool and
/// region growing then runs serially over them, so the clusters are
/// bit-identical to [`euclidean_clusters_traced`]'s for any worker
/// count.
///
/// # Panics
///
/// Panics if the tolerance is negative or its square overflows to `∞`
/// (a walk under either returns no meaningful neighbour set).
#[must_use]
pub fn euclidean_clusters_with(
    cloud: &PointCloud,
    tree: &KdTree,
    config: &SegmentationConfig,
    pool: Option<&WorkerPool>,
) -> Vec<Vec<usize>> {
    let lists = NeighbourLists::build(cloud.points(), tree, config.cluster_tolerance_m, pool);
    grow_regions(cloud.len(), config, |idx| {
        lists.of(idx).iter().map(|&nb| nb as usize)
    })
}

/// Clustering with a memory-trace callback: every neighbour list comes
/// from [`KdTree::radius_search_traced`], the walk Fig. 4b's traffic
/// model replays.
pub fn euclidean_clusters_traced(
    cloud: &PointCloud,
    tree: &KdTree,
    config: &SegmentationConfig,
    trace: &mut impl FnMut(Touch),
) -> Vec<Vec<usize>> {
    grow_regions(cloud.len(), config, |idx| {
        tree.radius_search_traced(
            cloud.points().get(idx).expect("index within cloud"),
            config.cluster_tolerance_m,
            trace,
        )
    })
}

/// PCL region growing over `n` points, each seed in index order taking
/// its neighbours' unvisited members depth-first until
/// `max_cluster_size`; clusters of at least `min_cluster_size`, largest
/// first (a stable sort, so equal sizes keep seed order).
fn grow_regions<I: IntoIterator<Item = usize>>(
    n: usize,
    config: &SegmentationConfig,
    mut neighbours: impl FnMut(usize) -> I,
) -> Vec<Vec<usize>> {
    let mut visited = vec![false; n];
    let mut clusters = Vec::new();
    let mut cluster = Vec::new();
    let mut frontier = Vec::new();
    for seed in 0..n {
        if visited[seed] {
            continue;
        }
        visited[seed] = true;
        cluster.clear();
        cluster.push(seed);
        frontier.clear();
        frontier.push(seed);
        while let Some(idx) = frontier.pop() {
            if cluster.len() >= config.max_cluster_size {
                break;
            }
            for nb in neighbours(idx) {
                if cluster.len() >= config.max_cluster_size {
                    break;
                }
                if !visited[nb] {
                    visited[nb] = true;
                    cluster.push(nb);
                    frontier.push(nb);
                }
            }
        }
        if cluster.len() >= config.min_cluster_size {
            clusters.push(cluster.clone());
        }
    }
    clusters.sort_by_key(|c| std::cmp::Reverse(c.len()));
    clusters
}

/// Every query's radius neighbours, CSR-style: query `i`'s tree indices
/// are `flat[offsets[i]..offsets[i + 1]]`, in arena order.
struct NeighbourLists {
    flat: Vec<u32>,
    offsets: Vec<usize>,
}

impl NeighbourLists {
    fn build(queries: &[Point], tree: &KdTree, r: f64, pool: Option<&WorkerPool>) -> Self {
        assert!(
            !(r < 0.0 || r * r == f64::INFINITY),
            "cluster tolerance must be non-negative with a finite square"
        );
        let grid = Grid::build(tree, r);
        let r_sq = r * r;
        let (flat, counts) = map_reduce_chunks(
            pool,
            queries,
            POINTS_PER_CHUNK,
            |_, chunk| {
                let mut flat = Vec::new();
                let mut counts = Vec::with_capacity(chunk.len());
                let mut hits = Vec::new();
                for q in chunk {
                    grid.hits(q, r_sq, &mut hits);
                    counts.push(hits.len());
                    flat.extend(hits.iter().map(|&rank| grid.order[rank as usize]));
                }
                (flat, counts)
            },
            (Vec::new(), Vec::new()),
            |(mut flat, mut counts): (Vec<u32>, Vec<usize>), (part_flat, part_counts)| {
                flat.extend_from_slice(&part_flat);
                counts.extend_from_slice(&part_counts);
                (flat, counts)
            },
        );
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        offsets.push(0);
        for c in counts {
            offsets.push(offsets.last().expect("non-empty") + c);
        }
        Self { flat, offsets }
    }

    /// Query `i`'s neighbours.
    fn of(&self, i: usize) -> &[u32] {
        &self.flat[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// A dense uniform grid over a tree's finite points. Each cell lists the
/// arena ranks of its points in ascending order; a cell is at least the
/// radius (plus [`CELL_HAIR`]) on a side, so a query's neighbours all
/// lie in the 3 × 3 × 3 cells around its own.
struct Grid<'a> {
    tree: &'a KdTree,
    /// Cloud index of each arena rank.
    order: Vec<u32>,
    /// Lower corner of the finite points' bounding box.
    lo: [f64; 3],
    /// Reciprocal cell edge; `0` puts every point in one cell.
    scale: f64,
    /// Cells per axis, x fastest in a cell's linear index.
    dims: [usize; 3],
    /// Cell `c`'s ranks are `ranks[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    ranks: Vec<u32>,
}

impl<'a> Grid<'a> {
    fn build(tree: &'a KdTree, r: f64) -> Self {
        let order: Vec<u32> = tree
            .arena_points()
            .map(|idx| u32::try_from(idx).expect("a tree holds at most u32::MAX points"))
            .collect();
        let (mut lo, mut hi) = ([f64::INFINITY; 3], [f64::NEG_INFINITY; 3]);
        let mut count = 0;
        for p in (0..tree.len())
            .map(|idx| tree.point(idx))
            .filter(|p| finite(p))
        {
            count += 1;
            for a in 0..3 {
                lo[a] = lo[a].min(p[a]);
                hi[a] = hi[a].max(p[a]);
            }
        }
        if count == 0 {
            (lo, hi) = ([0.0; 3], [0.0; 3]);
        }
        let ext = [hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]];
        let scale = cell_edge(r, ext, count).map_or(0.0, |edge| 1.0 / edge);
        let dims = ext.map(|e| (e * scale) as usize + 1);
        let mut grid = Self {
            tree,
            order,
            lo,
            scale,
            dims,
            starts: vec![0; dims.iter().product::<usize>() + 1],
            ranks: vec![0; count],
        };
        // Counting sort by cell: count, prefix-sum to each cell's end,
        // then fill back to front, so each cell's ranks end up ascending
        // and `starts[c]` at the cell's begin.
        let ranked = |grid: &Self, rank: usize| {
            let p = tree.point(grid.order[rank] as usize);
            finite(p).then(|| grid.cell(p))
        };
        for rank in 0..grid.order.len() {
            if let Some(c) = ranked(&grid, rank) {
                grid.starts[c] += 1;
            }
        }
        let mut end = 0;
        for s in &mut grid.starts {
            end += *s;
            *s = end;
        }
        for rank in (0..grid.order.len()).rev() {
            if let Some(c) = ranked(&grid, rank) {
                grid.starts[c] -= 1;
                grid.ranks[grid.starts[c] as usize] = rank as u32;
            }
        }
        grid
    }

    /// Linear index of the cell holding finite point `p` of the box.
    fn cell(&self, p: &Point) -> usize {
        let c = |a: usize| ((p[a] - self.lo[a]) * self.scale) as usize;
        (c(2) * self.dims[1] + c(1)) * self.dims[0] + c(0)
    }

    /// The arena ranks of the tree's points within `dist_sq <= r_sq` of
    /// `q`, ascending, into `out`.
    fn hits(&self, q: &Point, r_sq: f64, out: &mut Vec<u32>) {
        out.clear();
        if !finite(q) {
            return;
        }
        let mut span = [(0, 0); 3];
        for (a, s) in span.iter_mut().enumerate() {
            let c = ((q[a] - self.lo[a]) * self.scale).floor();
            let (first, last) = ((c - 1.0).max(0.0), (c + 1.0).min((self.dims[a] - 1) as f64));
            if first > last {
                return;
            }
            *s = (first as usize, last as usize);
        }
        for z in span[2].0..=span[2].1 {
            for y in span[1].0..=span[1].1 {
                let row = (z * self.dims[1] + y) * self.dims[0];
                let run = self.starts[row + span[0].0] as usize
                    ..self.starts[row + span[0].1 + 1] as usize;
                for &rank in &self.ranks[run] {
                    if dist_sq(q, self.tree.point(self.order[rank as usize] as usize)) <= r_sq {
                        out.push(rank);
                    }
                }
            }
        }
        out.sort_unstable();
    }
}

fn finite(p: &Point) -> bool {
    p.iter().all(|c| c.is_finite())
}

/// The cell edge for radius `r` over a box of extents `ext` holding
/// `points` points: `r` plus [`CELL_HAIR`], enlarged until there are at
/// most [`CELLS_PER_POINT`] cells per point. `None` (a degenerate box or
/// radius, or an extent past `f64::MAX`) asks for a single cell.
fn cell_edge(r: f64, ext: [f64; 3], points: usize) -> Option<f64> {
    let cap = CELLS_PER_POINT * points.max(1) as f64;
    let cells = |edge: f64| {
        ext.iter()
            .map(|e| (e / edge).floor() + 1.0)
            .product::<f64>()
    };
    let widest = ext.iter().fold(0.0f64, |m, &e| m.max(e));
    // From `widest / cap` up, every axis has at most `cap + 1` cells.
    let mut edge = (r * (1.0 + CELL_HAIR)).max(widest / cap);
    if !(edge > 0.0 && edge.is_finite()) {
        return None;
    }
    loop {
        let n = cells(edge);
        if n <= cap {
            return Some(edge);
        }
        edge *= (n / cap).cbrt().max(1.0 + 1.0 / 64.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kdtree::tie_heavy_cloud;
    use sov_math::SovRng;
    use sov_testkit::prelude::*;

    fn two_blob_cloud() -> PointCloud {
        let mut rng = SovRng::seed_from_u64(1);
        let mut points = Vec::new();
        for _ in 0..50 {
            points.push([
                rng.normal(0.0, 0.2),
                rng.normal(0.0, 0.2),
                rng.normal(0.0, 0.2),
            ]);
        }
        for _ in 0..30 {
            points.push([
                10.0 + rng.normal(0.0, 0.2),
                rng.normal(0.0, 0.2),
                rng.normal(0.0, 0.2),
            ]);
        }
        PointCloud::from_points(points)
    }

    #[test]
    fn separates_two_blobs() {
        let cloud = two_blob_cloud();
        let tree = KdTree::build(&cloud);
        let clusters = euclidean_clusters(&cloud, &tree, &SegmentationConfig::default());
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].len(), 50, "largest first");
        assert_eq!(clusters[1].len(), 30);
    }

    #[test]
    fn min_size_filters_noise() {
        let mut cloud = two_blob_cloud();
        cloud.push([100.0, 100.0, 100.0]); // isolated noise point
        let tree = KdTree::build(&cloud);
        let clusters = euclidean_clusters(&cloud, &tree, &SegmentationConfig::default());
        assert_eq!(clusters.len(), 2, "noise must not form a cluster");
        let total: usize = clusters.iter().map(Vec::len).sum();
        assert_eq!(total, 80);
    }

    #[test]
    fn clusters_partition_points() {
        let cloud = two_blob_cloud();
        let tree = KdTree::build(&cloud);
        let cfg = SegmentationConfig {
            min_cluster_size: 1,
            ..SegmentationConfig::default()
        };
        let clusters = euclidean_clusters(&cloud, &tree, &cfg);
        let mut all: Vec<usize> = clusters.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..cloud.len()).collect::<Vec<_>>(),
            "each point in exactly one cluster"
        );
    }

    #[test]
    fn max_size_caps_growth() {
        let cloud = two_blob_cloud();
        let tree = KdTree::build(&cloud);
        let cfg = SegmentationConfig {
            max_cluster_size: 20,
            min_cluster_size: 1,
            ..SegmentationConfig::default()
        };
        let clusters = euclidean_clusters(&cloud, &tree, &cfg);
        assert!(clusters.iter().all(|c| c.len() <= 20), "capped at max size");
        assert!(clusters.len() > 2, "capping splits the blobs");
    }

    #[test]
    fn pooled_clustering_is_bit_identical() {
        let mut rng = SovRng::seed_from_u64(11);
        let cloud = PointCloud::synthetic_street_scene(1500, 1, &mut rng);
        let tree = KdTree::build(&cloud);
        let cfg = SegmentationConfig {
            min_cluster_size: 5,
            ..SegmentationConfig::default()
        };
        let walked = euclidean_clusters_traced(&cloud, &tree, &cfg, &mut |_| {});
        assert_eq!(euclidean_clusters(&cloud, &tree, &cfg), walked);
        for lanes in [2, 4, 8] {
            let pool = WorkerPool::new(lanes);
            let pooled = euclidean_clusters_with(&cloud, &tree, &cfg, Some(&pool));
            assert_eq!(pooled, walked, "lanes = {lanes}");
        }
        // The cap path truncates growth identically too.
        let capped = SegmentationConfig {
            max_cluster_size: 25,
            min_cluster_size: 1,
            ..SegmentationConfig::default()
        };
        let walked_capped = euclidean_clusters_traced(&cloud, &tree, &capped, &mut |_| {});
        let pool = WorkerPool::new(4);
        assert_eq!(
            euclidean_clusters_with(&cloud, &tree, &capped, Some(&pool)),
            walked_capped
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn bitwise_oracle_grid_lists_equal_radius_search(
            n in 1usize..1_500,
            seed in 0u64..5_000,
            step_pick in 0usize..3,
            r_pick in 0usize..4,
            lanes in 0usize..4,
        ) {
            // Steps are powers of two, so differences and squares are
            // exact and many pairs sit exactly at a multiple-of-step
            // radius.
            let step = [0.25, 1.0, 4.0][step_pick];
            let r = [step, 2.0 * step, 3.0 * step, 0.9][r_pick];
            let cloud = tie_heavy_cloud(n, seed, step, seed % 2 == 0);
            let tree = KdTree::build(&cloud);
            let mut queries = cloud.points().to_vec();
            let mut rng = SovRng::seed_from_u64(seed ^ 0x9E1D);
            for _ in 0..20 {
                // Just outside the cloud, on the step grid.
                let out = |rng: &mut SovRng| step * (rng.index(13) as f64 - 6.0) + 20.0;
                queries.push([out(&mut rng), -out(&mut rng), step * rng.index(3) as f64]);
            }
            queries.extend([
                [f64::NAN, 0.0, 0.0],
                [f64::INFINITY, 0.0, 0.0],
                [0.0, f64::NEG_INFINITY, f64::INFINITY],
                [1e300, -1e300, 0.0],
            ]);
            let pool = (lanes > 0).then(|| WorkerPool::new(lanes));
            let lists = NeighbourLists::build(&queries, &tree, r, pool.as_ref());
            for (i, q) in queries.iter().enumerate() {
                let got: Vec<usize> = lists.of(i).iter().map(|&nb| nb as usize).collect();
                prop_assert_eq!(got, tree.radius_search(q, r), "query {:?}, r {}, step {}", q, r, step);
            }
        }
    }

    #[test]
    fn bitwise_oracle_grid_lists_on_degenerate_grids() {
        // One point, all points identical, a flat line, and no finite
        // point at all: one-cell and capped grids must stay exact.
        for (points, r) in [
            (vec![[3.0, -1.0, 2.0]], 0.5),
            (vec![[1.0, 1.0, 1.0]; 9], 0.0),
            (
                (0..400).map(|i| [f64::from(i) * 0.5, 0.0, 0.0]).collect(),
                0.5,
            ),
            (
                (0..50).map(|i| [f64::from(i) * 1e-6, 7.0, 7.0]).collect(),
                1e-9,
            ),
            (
                vec![[f64::INFINITY, 0.0, 0.0], [0.0, f64::NEG_INFINITY, 0.0]],
                1.0,
            ),
        ] {
            let cloud = PointCloud::from_points(points);
            let tree = KdTree::build(&cloud);
            let lists = NeighbourLists::build(cloud.points(), &tree, r, None);
            for (i, q) in cloud.points().iter().enumerate() {
                let got: Vec<usize> = lists.of(i).iter().map(|&nb| nb as usize).collect();
                assert_eq!(got, tree.radius_search(q, r), "query {q:?}, r {r}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cluster tolerance must be non-negative")]
    fn negative_tolerance_is_rejected() {
        let cloud = two_blob_cloud();
        let tree = KdTree::build(&cloud);
        let cfg = SegmentationConfig {
            cluster_tolerance_m: -0.7,
            ..SegmentationConfig::default()
        };
        let _ = euclidean_clusters(&cloud, &tree, &cfg);
    }

    #[test]
    fn empty_cloud_no_clusters() {
        let cloud = PointCloud::new();
        let tree = KdTree::build(&cloud);
        assert!(euclidean_clusters(&cloud, &tree, &SegmentationConfig::default()).is_empty());
    }

    #[test]
    fn tracing_counts_queries() {
        let cloud = two_blob_cloud();
        let tree = KdTree::build(&cloud);
        let mut touches = 0u64;
        let _ =
            euclidean_clusters_traced(&cloud, &tree, &SegmentationConfig::default(), &mut |_| {
                touches += 1
            });
        assert!(
            touches > cloud.len() as u64,
            "one radius query per point minimum"
        );
    }
}
