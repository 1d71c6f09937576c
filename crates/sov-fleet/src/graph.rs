//! Sparse on-demand routing over a [`LaneMap`] for fleet dispatch.
//!
//! The dispatcher and every vehicle tick need three queries — "how far is
//! vehicle V from pickup P", "move V a few meters along the shortest path
//! to P", and "give me a uniformly random position" — millions of times per
//! simulated day. The 0.9.0 engine answered them from a dense all-pairs
//! matrix: O(n³) scan-Dijkstra at construction and O(n²) memory, which is
//! exactly what capped the map size. This version keeps the same query
//! semantics but stores only the graph: lanes re-indexed `0..n` in
//! ascending [`LaneId`] order, forward **and reverse** adjacency in CSR
//! form, and a cumulative-length table for `O(log n)` position sampling.
//!
//! Distances come from [`RouteField`]s computed on demand: one binary-heap
//! Dijkstra over the *reverse* graph per destination lane — O(E log N) —
//! yields the distance from the start of **every** lane to that
//! destination, which is precisely the shape dispatch (many vehicles, one
//! pickup) and per-tick motion (`next_hop` toward one destination) consume.
//! Fields are memoized by [`RouteCache`], whose capacity follows from the
//! map and whose FIFO eviction order is mutated only on serial phases —
//! cache state is a pure function of the request/trip sequence, never of
//! worker timing, so sharded runs reproduce the serial reference byte for
//! byte.
//!
//! The heap Dijkstra pops in `(distance, lane)` order via `f64::total_cmp`
//! and relaxes predecessor lists in CSR order, so two tables built from
//! equal maps produce bit-identical fields — the same total-tie-break
//! discipline the dense matrix had.

use sov_math::Pose2;
use sov_world::map::{Lane, LaneId, LaneMap};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// A position on the network: dense lane index plus arclength within it.
///
/// `lane` indexes the [`RouteTable`]'s dense ordering (ascending
/// [`LaneId`]), not the raw lane id — use [`RouteTable::lane_id`] to map
/// back when talking to `sov-world`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetPos {
    /// Dense lane index in `[0, RouteTable::len())`.
    pub lane: u32,
    /// Arclength along the lane's centerline (meters).
    pub s: f64,
}

/// Result of one [`RouteTable::advance_with`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Advance {
    /// Distance actually moved (meters); at most the requested budget.
    pub moved_m: f64,
    /// Whether the destination was reached exactly.
    pub arrived: bool,
}

/// Axis-aligned bounding box of the network's centerlines (meters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// Smallest x over every centerline vertex.
    pub min_x: f64,
    /// Smallest y over every centerline vertex.
    pub min_y: f64,
    /// Largest x over every centerline vertex.
    pub max_x: f64,
    /// Largest y over every centerline vertex.
    pub max_y: f64,
}

/// The shortest-distance field toward one destination lane: for every lane
/// `a`, the driving distance start(`a`) → start(`dest`), where traversing
/// a lane costs its centerline length.
///
/// Produced by [`RouteTable::field_to`] (one reverse Dijkstra, O(E log N))
/// and shared via `Arc` between the dispatcher, the cache, and the
/// assignment that carries it for the ride's lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteField {
    dest: u32,
    dist: Vec<f64>,
}

impl RouteField {
    /// The destination lane this field routes toward.
    #[must_use]
    pub fn dest(&self) -> u32 {
        self.dest
    }

    /// Distance start(`lane`) → start of the destination lane (meters).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn to_start(&self, lane: u32) -> f64 {
        self.dist[lane as usize]
    }
}

/// Heap entry for the reverse Dijkstra. Ordered so the [`BinaryHeap`]
/// (a max-heap) pops the smallest `(distance, lane)` pair first — the
/// lane tie-break makes the pop order total and platform-independent.
#[derive(Debug, PartialEq)]
struct Visit {
    d: f64,
    lane: u32,
}

impl Eq for Visit {}

impl Ord for Visit {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .d
            .total_cmp(&self.d)
            .then_with(|| other.lane.cmp(&self.lane))
    }
}

impl PartialOrd for Visit {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Compiled routing structures over a strongly connected [`LaneMap`].
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// Lanes in ascending id order (dense index → lane).
    lanes: Vec<Lane>,
    /// Forward CSR: successors of lane `i` are
    /// `succ[succ_off[i]..succ_off[i + 1]]`, in the lane's original
    /// successor-list order (the `next_hop` tie-break order).
    succ_off: Vec<u32>,
    succ: Vec<u32>,
    /// Reverse CSR: predecessors of lane `i`, ascending.
    pred_off: Vec<u32>,
    pred: Vec<u32>,
    /// Centerline length per lane (meters), parallel to `lanes`.
    len_m: Vec<f64>,
    /// `cum[i]` = total length of lanes `0..i`; `cum[n]` = network length.
    cum: Vec<f64>,
    /// Centerline bounding box (spatial-index geometry).
    bounds: Bounds,
    /// Largest Euclidean gap between a lane's end vertex and a successor's
    /// start vertex. Exactly `0.0` for geometrically contiguous maps —
    /// the precondition for the spatial index's Euclidean lower bound.
    max_gap_m: f64,
}

impl RouteTable {
    /// Compiles the routing structures for `map`.
    ///
    /// Unlike the 0.9.0 dense build this is O(V + E): no all-pairs matrix
    /// is materialized, so OSM-scale maps (tens of thousands of lanes)
    /// stay loadable. Distances are computed on demand via
    /// [`RouteTable::field_to`].
    ///
    /// # Panics
    ///
    /// Panics if the map is empty or not strongly connected — fleet
    /// dispatch requires every position to be reachable from every other.
    #[must_use]
    pub fn new(map: &LaneMap) -> Self {
        assert!(!map.is_empty(), "fleet map must have at least one lane");
        let lanes: Vec<Lane> = map.iter().cloned().collect();
        let n = lanes.len();
        let index_of = |id: LaneId| -> u32 {
            lanes
                .binary_search_by_key(&id, Lane::id)
                .expect("successor ids exist in the map") as u32
        };
        // Forward CSR, preserving each lane's successor-list order.
        let mut succ_off = Vec::with_capacity(n + 1);
        let mut succ = Vec::new();
        succ_off.push(0u32);
        for lane in &lanes {
            for &id in lane.successors() {
                succ.push(index_of(id));
            }
            succ_off.push(succ.len() as u32);
        }
        // Reverse CSR via counting sort: predecessors end up ascending.
        let mut pred_off = vec![0u32; n + 1];
        for &v in &succ {
            pred_off[v as usize + 1] += 1;
        }
        for i in 0..n {
            pred_off[i + 1] += pred_off[i];
        }
        let mut cursor = pred_off.clone();
        let mut pred = vec![0u32; succ.len()];
        for u in 0..n {
            for &v in &succ[succ_off[u] as usize..succ_off[u + 1] as usize] {
                pred[cursor[v as usize] as usize] = u as u32;
                cursor[v as usize] += 1;
            }
        }
        let len_m: Vec<f64> = lanes.iter().map(Lane::length_m).collect();
        let mut cum = Vec::with_capacity(n + 1);
        cum.push(0.0);
        for &l in &len_m {
            cum.push(cum.last().expect("non-empty") + l);
        }
        // Bounding box + connection-gap audit for the spatial index.
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for lane in &lanes {
            for &(x, y) in lane.centerline() {
                min_x = min_x.min(x);
                min_y = min_y.min(y);
                max_x = max_x.max(x);
                max_y = max_y.max(y);
            }
        }
        let mut max_gap_m = 0.0f64;
        for (u, lane) in lanes.iter().enumerate() {
            let &(ex, ey) = lane.centerline().last().expect("non-empty centerline");
            for &v in &succ[succ_off[u] as usize..succ_off[u + 1] as usize] {
                let &(sx, sy) = lanes[v as usize]
                    .centerline()
                    .first()
                    .expect("non-empty centerline");
                max_gap_m = max_gap_m.max(((ex - sx).powi(2) + (ey - sy).powi(2)).sqrt());
            }
        }
        let table = Self {
            lanes,
            succ_off,
            succ,
            pred_off,
            pred,
            len_m,
            cum,
            bounds: Bounds {
                min_x,
                min_y,
                max_x,
                max_y,
            },
            max_gap_m,
        };
        // Strong connectivity: node 0 reaches everything forward and
        // backward. Two O(V + E) sweeps replace the 0.9.0 per-row
        // finiteness checks.
        let unreachable = |off: &[u32], adj: &[u32]| -> Option<usize> {
            let mut seen = vec![false; n];
            let mut frontier = vec![0usize];
            seen[0] = true;
            while let Some(u) = frontier.pop() {
                for &v in &adj[off[u] as usize..off[u + 1] as usize] {
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        frontier.push(v as usize);
                    }
                }
            }
            seen.iter().position(|&s| !s)
        };
        let forward = unreachable(&table.succ_off, &table.succ);
        let backward = unreachable(&table.pred_off, &table.pred);
        if let Some(lane) = forward.or(backward) {
            panic!("fleet map must be strongly connected (lane {lane} unreachable)");
        }
        table
    }

    /// Number of lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the table has no lanes (never true: `new` rejects it).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// The original [`LaneId`] of a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn lane_id(&self, lane: u32) -> LaneId {
        self.lanes[lane as usize].id()
    }

    /// Centerline length of a lane (meters).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn lane_length(&self, lane: u32) -> f64 {
        self.len_m[lane as usize]
    }

    /// Speed limit of a lane (m/s).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn speed_limit(&self, lane: u32) -> f64 {
        self.lanes[lane as usize].speed_limit_mps()
    }

    /// Total centerline length of the network (meters).
    #[must_use]
    pub fn total_length_m(&self) -> f64 {
        *self.cum.last().expect("cum has n+1 entries")
    }

    /// Successors of `lane` in tie-break order (the lane's original list).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn successors(&self, lane: u32) -> &[u32] {
        let lane = lane as usize;
        &self.succ[self.succ_off[lane] as usize..self.succ_off[lane + 1] as usize]
    }

    /// Centerline bounding box (the spatial index's fixed geometry).
    #[must_use]
    pub fn bounds(&self) -> Bounds {
        self.bounds
    }

    /// Largest Euclidean gap between a lane end and a successor start
    /// (meters). Exactly `0.0` on geometrically contiguous maps such as
    /// [`sov_world::map::grid_network`] — the precondition under which
    /// straight-line distance lower-bounds driving distance, which the
    /// spatial index's ring pruning relies on.
    #[must_use]
    pub fn max_connection_gap_m(&self) -> f64 {
        self.max_gap_m
    }

    /// World pose at a network position.
    ///
    /// # Panics
    ///
    /// Panics if the position's lane is out of range.
    #[must_use]
    pub fn pose(&self, pos: FleetPos) -> Pose2 {
        self.lanes[pos.lane as usize].pose_at(pos.s)
    }

    /// Maps `u ∈ [0, 1)` to a network position, uniform by arclength.
    ///
    /// Dense mirror of [`LaneMap::sample_position`]: identical semantics
    /// (lanes laid end to end in ascending id order), but `O(log n)` via
    /// the cumulative-length table.
    #[must_use]
    pub fn sample(&self, u: f64) -> FleetPos {
        let target = u.clamp(0.0, 1.0 - f64::EPSILON) * self.total_length_m();
        // partition_point: first lane whose *end* lies beyond target.
        let i = self.cum[1..].partition_point(|&end| end <= target);
        let i = i.min(self.lanes.len() - 1);
        FleetPos {
            lane: i as u32,
            s: (target - self.cum[i]).min(self.len_m[i]),
        }
    }

    /// Computes the shortest-distance field toward `dest`: one binary-heap
    /// Dijkstra over the reverse graph, O(E log N), bit-reproducible
    /// (pops ordered by `(distance, lane)` via `total_cmp`, predecessors
    /// relaxed in CSR order).
    ///
    /// # Panics
    ///
    /// Panics if `dest` is out of range.
    #[must_use]
    pub fn field_to(&self, dest: u32) -> RouteField {
        let n = self.lanes.len();
        assert!((dest as usize) < n, "destination lane out of range");
        let mut dist = vec![f64::INFINITY; n];
        let mut heap = BinaryHeap::with_capacity(64);
        dist[dest as usize] = 0.0;
        heap.push(Visit { d: 0.0, lane: dest });
        while let Some(Visit { d, lane }) = heap.pop() {
            if d > dist[lane as usize] {
                continue; // stale entry, already settled closer
            }
            let lane = lane as usize;
            for &u in &self.pred[self.pred_off[lane] as usize..self.pred_off[lane + 1] as usize] {
                // Arriving at `lane`'s start from `u`'s start costs `u`'s
                // full length — same edge weights as the dense build.
                let cand = self.len_m[u as usize] + d;
                if cand < dist[u as usize] {
                    dist[u as usize] = cand;
                    heap.push(Visit { d: cand, lane: u });
                }
            }
        }
        RouteField { dest, dist }
    }

    /// Shortest distance from the start of lane `a` to the start of lane
    /// `b` (meters; traversing a lane costs its length, `b` itself is not
    /// traversed).
    ///
    /// Convenience for tests and offline callers: computes a fresh
    /// [`RouteField`] per call (O(E log N)). Hot paths hold a field and
    /// use [`RouteField::to_start`].
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn start_to_start(&self, a: u32, b: u32) -> f64 {
        assert!((a as usize) < self.lanes.len(), "lane index out of range");
        self.field_to(b).to_start(a)
    }

    /// Shortest distance from the **end** of lane `a` to the start of the
    /// field's destination lane — the first hop of every route leaving `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    #[must_use]
    pub fn end_to_start_with(&self, a: u32, field: &RouteField) -> f64 {
        let mut best = f64::INFINITY;
        for &s in self.successors(a) {
            let d = field.to_start(s);
            if d < best {
                best = d;
            }
        }
        best
    }

    /// Shortest driving distance from `from` to `to` along the lane graph,
    /// answered from a precomputed field for `to`'s lane.
    ///
    /// # Panics
    ///
    /// Panics if a lane index is out of range, or (debug builds) if
    /// `field` was compiled for a different destination lane.
    #[must_use]
    pub fn travel_distance_with(&self, from: FleetPos, to: FleetPos, field: &RouteField) -> f64 {
        debug_assert_eq!(
            field.dest(),
            to.lane,
            "field compiled for a different destination lane"
        );
        if from.lane == to.lane && from.s <= to.s {
            return to.s - from.s;
        }
        (self.lane_length(from.lane) - from.s) + self.end_to_start_with(from.lane, field) + to.s
    }

    /// Shortest driving distance from `from` to `to` along the lane graph.
    ///
    /// Convenience for tests and offline callers: computes a fresh field
    /// per call. Hot paths use [`RouteTable::travel_distance_with`].
    ///
    /// # Panics
    ///
    /// Panics if either lane index is out of range.
    #[must_use]
    pub fn travel_distance(&self, from: FleetPos, to: FleetPos) -> f64 {
        if from.lane == to.lane && from.s <= to.s {
            return to.s - from.s;
        }
        self.travel_distance_with(from, to, &self.field_to(to.lane))
    }

    /// The successor of `lane` on the shortest path toward the field's
    /// destination, tie-broken on the first minimal entry of the lane's
    /// successor list (the dense build's tie-break, unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range, or if it has no successors
    /// (impossible for a strongly connected map).
    #[must_use]
    pub fn next_hop_with(&self, lane: u32, field: &RouteField) -> u32 {
        let mut best = f64::INFINITY;
        let mut hop = u32::MAX;
        for &s in self.successors(lane) {
            let d = field.to_start(s);
            if d < best {
                best = d;
                hop = s;
            }
        }
        assert!(hop != u32::MAX, "strongly connected maps have no dead ends");
        hop
    }

    /// Moves `pos` up to `budget_m` meters along the shortest path to
    /// `dest`, routed by a field for `dest.lane`. Arrival is exact: when
    /// the destination lies within the budget, `pos` is set to `dest`
    /// bit-for-bit and [`Advance::arrived`] is `true`.
    ///
    /// # Panics
    ///
    /// Panics if a lane index is out of range or `budget_m` is negative
    /// (debug builds), or (debug builds) if `field` routes elsewhere.
    pub fn advance_with(
        &self,
        pos: &mut FleetPos,
        dest: FleetPos,
        budget_m: f64,
        field: &RouteField,
    ) -> Advance {
        debug_assert!(budget_m >= 0.0, "advance budget cannot be negative");
        debug_assert_eq!(
            field.dest(),
            dest.lane,
            "field compiled for a different destination lane"
        );
        let mut budget = budget_m;
        let mut moved = 0.0;
        // Each iteration either exhausts the budget or crosses into the
        // next lane of a shortest path, whose remaining distance strictly
        // decreases — the loop terminates without an explicit cap.
        loop {
            if pos.lane == dest.lane && pos.s <= dest.s {
                let gap = dest.s - pos.s;
                if gap <= budget {
                    *pos = dest;
                    return Advance {
                        moved_m: moved + gap,
                        arrived: true,
                    };
                }
                pos.s += budget;
                return Advance {
                    moved_m: moved + budget,
                    arrived: false,
                };
            }
            let remain = self.lane_length(pos.lane) - pos.s;
            if budget < remain {
                pos.s += budget;
                return Advance {
                    moved_m: moved + budget,
                    arrived: false,
                };
            }
            moved += remain;
            budget -= remain;
            pos.lane = self.next_hop_with(pos.lane, field);
            pos.s = 0.0;
        }
    }
}

/// Byte budget of a [`RouteCache`]: a map whose every destination field
/// fits (`lanes × lanes × 8 B`) keeps them all resident; a larger map
/// keeps as many fields as fit.
pub(crate) const ROUTE_CACHE_BUDGET_BYTES: usize = 32 << 20;

/// Deterministic bounded memo of [`RouteField`]s, keyed by destination
/// lane.
///
/// Capacity follows from the map alone (a 32 MiB budget), and eviction
/// from the lookup sequence alone: slots evict in strict FIFO
/// **insertion** order (a hit never reorders), and the cache is touched
/// only on the serial phases of the fleet tick — so its state after tick
/// T is a pure function of the request/trip sequence, identical for every
/// worker count. Residency changes which Dijkstra runs, never what it
/// returns.
#[derive(Debug)]
pub struct RouteCache {
    capacity: usize,
    /// Slot per lane (dense index) — O(1) lookup, no hash order anywhere.
    slots: Vec<Option<Arc<RouteField>>>,
    /// Destinations currently resident, oldest first.
    fifo: VecDeque<u32>,
    hits: u64,
    misses: u64,
}

impl RouteCache {
    /// Creates an empty cache for `table`, sized from the map: every
    /// destination field when all of them fit 32 MiB
    /// (`lanes × lanes × 8 B`), otherwise as many as fit, and never fewer
    /// than one.
    #[must_use]
    pub fn new(table: &RouteTable) -> Self {
        let field_bytes = table.len() * std::mem::size_of::<f64>();
        Self::with_capacity(
            table,
            (ROUTE_CACHE_BUDGET_BYTES / field_bytes).clamp(1, table.len()),
        )
    }

    /// An empty cache holding at most `capacity ≥ 1` fields.
    pub(crate) fn with_capacity(table: &RouteTable, capacity: usize) -> Self {
        assert!(capacity > 0, "a route cache holds at least one field");
        Self {
            capacity,
            slots: vec![None; table.len()],
            fifo: VecDeque::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Returns the field toward `dest`, computing and memoizing it on a
    /// miss (evicting the oldest resident field when full).
    ///
    /// # Panics
    ///
    /// Panics if `dest` is out of range for `table`.
    pub fn field(&mut self, table: &RouteTable, dest: u32) -> Arc<RouteField> {
        if let Some(f) = &self.slots[dest as usize] {
            self.hits += 1;
            return Arc::clone(f);
        }
        self.misses += 1;
        let field = Arc::new(table.field_to(dest));
        if self.fifo.len() == self.capacity {
            let evict = self.fifo.pop_front().expect("capacity ≥ 1");
            self.slots[evict as usize] = None;
        }
        self.slots[dest as usize] = Some(Arc::clone(&field));
        self.fifo.push_back(dest);
        field
    }

    /// Fields currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether no field is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Most fields resident at once.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups served from a resident field.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that ran a fresh Dijkstra.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sov_world::map::{grid_network, rectangular_loop};

    fn table() -> RouteTable {
        RouteTable::new(&grid_network(3, 3, 50.0, 2.5, 8.0))
    }

    #[test]
    fn sample_matches_lane_map_sampler() {
        let map = grid_network(3, 4, 80.0, 2.5, 8.0);
        let t = RouteTable::new(&map);
        for k in 0..100 {
            let u = f64::from(k) / 100.0;
            let (id, s) = map.sample_position(u).expect("non-empty");
            let pos = t.sample(u);
            assert_eq!(t.lane_id(pos.lane), id, "u = {u}");
            assert!((pos.s - s).abs() < 1e-9, "u = {u}: {} vs {s}", pos.s);
        }
    }

    #[test]
    fn travel_distance_same_lane() {
        let t = table();
        let a = FleetPos { lane: 0, s: 10.0 };
        let b = FleetPos { lane: 0, s: 35.0 };
        assert!((t.travel_distance(a, b) - 25.0).abs() < 1e-12);
        // Behind on the same lane: must loop around, strictly positive.
        let back = t.travel_distance(b, a);
        assert!(back > 25.0, "loop-around distance {back}");
    }

    #[test]
    fn field_matches_dense_reference_dijkstra() {
        // Re-run the 0.9.0 dense scan-Dijkstra as an oracle and compare
        // every field entry against it.
        let t = table();
        let n = t.len();
        let mut dist = vec![f64::INFINITY; n * n];
        let mut visited = vec![false; n];
        for source in 0..n {
            let row = &mut dist[source * n..(source + 1) * n];
            row[source] = 0.0;
            visited.iter_mut().for_each(|v| *v = false);
            for _ in 0..n {
                let mut u = usize::MAX;
                let mut best = f64::INFINITY;
                for (i, &d) in row.iter().enumerate() {
                    if !visited[i] && d < best {
                        best = d;
                        u = i;
                    }
                }
                if u == usize::MAX {
                    break;
                }
                visited[u] = true;
                let through = row[u] + t.lane_length(u as u32);
                for &v in t.successors(u as u32) {
                    let v = v as usize;
                    if through < row[v] {
                        row[v] = through;
                    }
                }
            }
        }
        for dest in 0..n as u32 {
            let field = t.field_to(dest);
            for a in 0..n as u32 {
                let want = dist[a as usize * n + dest as usize];
                let got = field.to_start(a);
                assert!(
                    (got - want).abs() < 1e-9,
                    "{a} → {dest}: field {got} vs dense {want}"
                );
            }
        }
    }

    #[test]
    fn travel_distance_is_consistent_with_dijkstra() {
        let t = table();
        // From the start of lane a to the start of lane b equals the
        // field entry.
        for b in 0..t.len() as u32 {
            let field = t.field_to(b);
            for a in 0..t.len() as u32 {
                let d = t.travel_distance_with(
                    FleetPos { lane: a, s: 0.0 },
                    FleetPos { lane: b, s: 0.0 },
                    &field,
                );
                assert!(
                    (d - field.to_start(a)).abs() < 1e-9,
                    "{a} → {b}: {d} vs {}",
                    field.to_start(a)
                );
            }
        }
    }

    #[test]
    fn advance_reaches_destination_exactly() {
        let t = table();
        let dest = t.sample(0.73);
        let field = t.field_to(dest.lane);
        let mut pos = t.sample(0.11);
        let total = t.travel_distance(pos, dest);
        let mut moved = 0.0;
        let mut arrived = false;
        for _ in 0..10_000 {
            let a = t.advance_with(&mut pos, dest, 7.0, &field);
            moved += a.moved_m;
            if a.arrived {
                arrived = true;
                break;
            }
        }
        assert!(arrived, "never arrived");
        assert_eq!(pos, dest, "arrival must be exact");
        assert!(
            (moved - total).abs() < 1e-6,
            "moved {moved} vs shortest {total}"
        );
    }

    #[test]
    fn advance_zero_budget_is_a_no_op() {
        let t = table();
        let dest = t.sample(0.9);
        let field = t.field_to(dest.lane);
        let mut pos = t.sample(0.4);
        let before = pos;
        let a = t.advance_with(&mut pos, dest, 0.0, &field);
        assert_eq!(pos, before);
        assert_eq!(a.moved_m, 0.0);
        assert!(!a.arrived);
    }

    #[test]
    fn advance_already_there() {
        let t = table();
        let dest = t.sample(0.5);
        let field = t.field_to(dest.lane);
        let mut pos = dest;
        let a = t.advance_with(&mut pos, dest, 3.0, &field);
        assert!(a.arrived);
        assert_eq!(a.moved_m, 0.0);
    }

    #[test]
    fn loop_map_distances() {
        // 100 × 50 loop: start(0) → start(2) is 100 + 50 = 150 m.
        let t = RouteTable::new(&rectangular_loop(100.0, 50.0, 2.5, 8.9));
        assert!((t.start_to_start(0, 2) - 150.0).abs() < 1e-9);
        assert!((t.start_to_start(2, 0) - 150.0).abs() < 1e-9);
        assert!((t.total_length_m() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn grid_bounds_and_gap() {
        let t = RouteTable::new(&grid_network(3, 4, 80.0, 2.5, 8.0));
        let b = t.bounds();
        assert_eq!((b.min_x, b.min_y), (0.0, 0.0));
        assert_eq!((b.max_x, b.max_y), (240.0, 160.0));
        // Grid lanes share exact node coordinates: the Euclidean
        // lower bound precondition holds with zero slack.
        assert_eq!(t.max_connection_gap_m(), 0.0);
    }

    #[test]
    fn large_grid_builds_fast_without_dense_matrix() {
        // 40×40 intersections → 6 240 lanes: the 0.9.0 dense build would
        // need a 6 240² matrix (≈ 311 MB) and an O(n³) scan. The sparse
        // build is O(V + E) and a handful of MB.
        let t = RouteTable::new(&grid_network(40, 40, 50.0, 2.5, 8.0));
        assert_eq!(t.len(), 6240);
        let field = t.field_to(17);
        assert_eq!(field.to_start(17), 0.0);
        assert!((0..t.len() as u32).all(|a| field.to_start(a).is_finite()));
    }

    #[test]
    fn cache_fifo_eviction_is_insertion_ordered() {
        let t = table();
        let mut c = RouteCache::with_capacity(&t, 2);
        let _ = c.field(&t, 0);
        let _ = c.field(&t, 1);
        let _ = c.field(&t, 0); // hit: must NOT refresh 0's eviction slot
        assert_eq!((c.hits(), c.misses()), (1, 2));
        let _ = c.field(&t, 2); // evicts 0 (oldest inserted), not 1
        assert_eq!(c.len(), 2);
        let _ = c.field(&t, 1);
        assert_eq!((c.hits(), c.misses()), (2, 3), "1 must still be resident");
        let _ = c.field(&t, 0);
        assert_eq!(c.misses(), 4, "0 must have been evicted");
    }

    #[test]
    fn cache_fields_equal_fresh_dijkstra_for_any_capacity() {
        // Residency changes which Dijkstra runs, never what it returns:
        // a tiny cache, a small one and the map-derived one all serve the
        // exact field `field_to` computes, over a random lookup sequence
        // that revisits destinations.
        let t = table();
        let derived = RouteCache::new(&t).capacity();
        let mut rng = sov_math::SovRng::seed_from_u64(19);
        let lookups: Vec<u32> = (0..400).map(|_| rng.index(t.len()) as u32).collect();
        for capacity in [1, 8, derived] {
            let mut c = RouteCache::with_capacity(&t, capacity);
            for &dest in &lookups {
                assert_eq!(*c.field(&t, dest), t.field_to(dest), "capacity {capacity}");
                assert!(c.len() <= capacity);
            }
            assert_eq!(c.hits() + c.misses(), lookups.len() as u64);
        }
    }

    #[test]
    fn cache_holds_every_field_of_a_map_that_fits_the_budget() {
        let t = table();
        let mut c = RouteCache::new(&t);
        assert_eq!(c.capacity(), t.len());
        for dest in 0..t.len() as u32 {
            let _ = c.field(&t, dest);
        }
        for dest in 0..t.len() as u32 {
            let _ = c.field(&t, dest);
        }
        assert_eq!(c.misses(), t.len() as u64);
        assert_eq!(c.hits(), t.len() as u64);
        // The paper-calibrated 12 × 12 fleet grid (528 lanes) fits too.
        let fleet = RouteTable::new(&grid_network(12, 12, 80.0, 2.5, 5.6));
        assert_eq!(fleet.len(), 528);
        assert_eq!(RouteCache::new(&fleet).capacity(), 528);
    }

    #[test]
    fn cache_on_a_map_past_the_budget_stays_within_it() {
        // 40 × 40 intersections: all 6 240 fields would take ≈ 311 MB.
        let t = RouteTable::new(&grid_network(40, 40, 50.0, 2.5, 8.0));
        let field_bytes = t.len() * std::mem::size_of::<f64>();
        let c = RouteCache::new(&t);
        assert!(c.capacity() < t.len(), "must evict on this map");
        assert!(c.capacity() * field_bytes <= ROUTE_CACHE_BUDGET_BYTES);
        assert!((c.capacity() + 1) * field_bytes > ROUTE_CACHE_BUDGET_BYTES);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_map_rejected() {
        let _ = RouteTable::new(&LaneMap::new());
    }

    #[test]
    #[should_panic(expected = "strongly connected")]
    fn disconnected_map_rejected() {
        use sov_world::map::Lane;
        let mut map = LaneMap::new();
        for i in 0..2 {
            map.insert(
                Lane::new(
                    LaneId(i),
                    vec![(0.0, f64::from(i)), (10.0, f64::from(i))],
                    2.0,
                    5.0,
                )
                .expect("valid"),
            );
        }
        // No connections at all: nothing reachable from anything.
        let _ = RouteTable::new(&map);
    }
}
