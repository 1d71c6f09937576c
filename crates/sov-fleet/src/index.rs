//! Deterministic spatial dispatch index: grid buckets of available
//! vehicles over the lane graph's bounding box.
//!
//! The 0.9.0 dispatcher scanned every vehicle per queued request — O(V)
//! distance evaluations each, the serial scaling wall of the fleet tick.
//! [`SpatialIndex`] buckets available vehicles into a fixed-geometry grid
//! (cell size and extent come from config + map bounds, never from the
//! data), and [`SpatialIndex::nearest`] expands square rings of buckets
//! outward from the pickup until a geometric lower bound proves no farther
//! ring can beat the candidates already found.
//!
//! # Determinism and exactness
//!
//! * **Geometry is config-fixed.** Bucket count and cell size depend only
//!   on the map bounds and `cell_m`; vehicles are inserted in ascending
//!   id order by [`SpatialIndex::rebuild`], so bucket contents are
//!   id-sorted and ring traversal enumerates candidates in a fixed order.
//! * **The pruning bound is conservative and exact.** The index accepts
//!   only maps whose lane connections are geometrically contiguous
//!   ([`RouteTable::max_connection_gap_m`]` == 0.0`, asserted by
//!   [`SpatialIndex::new`]). There driving distance is at least
//!   straight-line distance, and every vehicle in ring `r`
//!   (Chebyshev distance `r` in cells) is at least `(r − 1) · cell_m`
//!   away in the plane. The search stops only when that bound **strictly**
//!   exceeds the current k-th best driving distance — on ties it keeps
//!   scanning — so the returned candidates are exactly the top-k by
//!   `(distance, id)`, bit-for-bit what the linear scan would pick.
//! * **Same comparator as the linear scan.** Candidates are ordered by
//!   driving distance with ties to the lower id — the dispatcher's
//!   strict-`<`-over-ascending-ids rule, made explicit.
//!
//! The proptests drive this equivalence directly: indexed dispatch must
//! reproduce the retained linear-scan reference byte for byte.

use crate::graph::{FleetPos, RouteField, RouteTable};

/// Maximum candidates a [`CandidateList`] holds — enough that a conflict
/// during the sharded dispatch commit almost never needs the fallback
/// search, small enough to live on the stack and stay `Copy`.
pub const MAX_CANDIDATES: usize = 8;

/// One dispatch candidate: driving distance to the pickup plus vehicle id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Driving distance vehicle → pickup (meters).
    pub distance_m: f64,
    /// Vehicle id (the tie-break key: lower wins at equal distance).
    pub id: u32,
}

/// A fixed-capacity list of the best candidates seen so far, ordered by
/// `(distance, id)` ascending — the dispatcher's exact comparator.
#[derive(Debug, Clone, Copy)]
pub struct CandidateList {
    cand: [Candidate; MAX_CANDIDATES],
    len: u8,
    /// Distance evaluations performed to fill this list (the
    /// deterministic work counter the bench gates on).
    pub evals: u32,
}

impl Default for CandidateList {
    fn default() -> Self {
        Self {
            cand: [Candidate {
                distance_m: f64::INFINITY,
                id: u32::MAX,
            }; MAX_CANDIDATES],
            len: 0,
            evals: 0,
        }
    }
}

impl CandidateList {
    /// Candidates currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether no candidate was found.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th best candidate, if present.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<Candidate> {
        (i < self.len()).then(|| self.cand[i])
    }

    /// Iterates candidates best-first.
    pub fn iter(&self) -> impl Iterator<Item = &Candidate> {
        self.cand[..self.len()].iter()
    }

    /// Worst distance currently kept, if the list holds `k` entries.
    fn kth_distance(&self, k: usize) -> Option<f64> {
        (self.len() >= k).then(|| self.cand[k - 1].distance_m)
    }

    /// Inserts `(distance_m, id)` if it beats the current k-th best under
    /// the `(distance, id)` order; keeps at most `k` entries.
    fn insert(&mut self, distance_m: f64, id: u32, k: usize) {
        let beats =
            |c: &Candidate| distance_m < c.distance_m || (distance_m == c.distance_m && id < c.id);
        let mut at = self.len();
        while at > 0 && beats(&self.cand[at - 1]) {
            at -= 1;
        }
        if at >= k {
            return;
        }
        let end = (self.len() + 1).min(k);
        self.cand.copy_within(at..end - 1, at + 1);
        self.cand[at] = Candidate { distance_m, id };
        self.len = end as u8;
    }
}

/// Fixed-geometry grid buckets of available vehicles.
///
/// Rebuilt from the id-ordered vehicle array at the start of every
/// dispatch phase (bucket storage is retained, so the steady-state
/// rebuild allocates nothing) and queried read-only by the sharded
/// candidate search.
#[derive(Debug)]
pub struct SpatialIndex {
    min_x: f64,
    min_y: f64,
    cell_m: f64,
    cols: u32,
    rows: u32,
    buckets: Vec<Vec<u32>>,
}

impl SpatialIndex {
    /// Builds an empty index over `table`'s bounding box with square
    /// cells of `cell_m` meters.
    ///
    /// # Panics
    ///
    /// Panics if `cell_m` is not a positive finite number, or if some
    /// lane's end does not touch a successor's start
    /// ([`RouteTable::max_connection_gap_m`]` > 0`): on such a map
    /// straight-line distance no longer lower-bounds driving distance, and
    /// the ring search could prune the true nearest vehicle.
    #[must_use]
    pub fn new(table: &RouteTable, cell_m: f64) -> Self {
        assert!(
            cell_m.is_finite() && cell_m > 0.0,
            "index cell size must be positive"
        );
        assert!(
            table.max_connection_gap_m() == 0.0,
            "spatial index needs touching lane connections (largest gap {} m)",
            table.max_connection_gap_m()
        );
        let b = table.bounds();
        let span = |lo: f64, hi: f64| (((hi - lo) / cell_m).floor() as u32).saturating_add(1);
        let cols = span(b.min_x, b.max_x);
        let rows = span(b.min_y, b.max_y);
        Self {
            min_x: b.min_x,
            min_y: b.min_y,
            cell_m,
            cols,
            rows,
            buckets: vec![Vec::new(); cols as usize * rows as usize],
        }
    }

    /// Grid dimensions `(cols, rows)`.
    #[must_use]
    pub fn dims(&self) -> (u32, u32) {
        (self.cols, self.rows)
    }

    /// Cell coordinates of a world point (clamped into the grid).
    fn cell_of(&self, x: f64, y: f64) -> (u32, u32) {
        let clamp = |v: f64, n: u32| (((v / self.cell_m).floor()).max(0.0) as u32).min(n - 1);
        (
            clamp(x - self.min_x, self.cols),
            clamp(y - self.min_y, self.rows),
        )
    }

    /// Clears every bucket and re-inserts `vehicles`.
    ///
    /// Call with vehicles in **ascending id order** (the fleet array
    /// order): bucket contents end up id-sorted, which is what makes the
    /// ring traversal's candidate order — and therefore the tie-break —
    /// deterministic.
    pub fn rebuild(&mut self, table: &RouteTable, vehicles: impl Iterator<Item = (u32, FleetPos)>) {
        for b in &mut self.buckets {
            b.clear();
        }
        for (id, pos) in vehicles {
            let p = table.pose(pos);
            let (cx, cy) = self.cell_of(p.x, p.y);
            self.buckets[(cy * self.cols + cx) as usize].push(id);
        }
    }

    /// Finds the `k` nearest non-skipped vehicles to `target` by driving
    /// distance (ties to the lower id), writing them into `out`.
    ///
    /// `field` must be the route field toward `target.lane`; `pos_of`
    /// maps a vehicle id to its position; `skip` excludes vehicles (the
    /// conflict-resolution fallback passes the claimed set). `out.evals`
    /// counts distance evaluations performed.
    ///
    /// Exact because [`SpatialIndex::new`] only accepts maps with
    /// [`RouteTable::max_connection_gap_m`]` == 0.0` (see the module docs).
    // A query is genuinely eight-dimensional (table, field, target, depth,
    // two predicates, output); bundling them into a struct would only move
    // the arguments.
    #[allow(clippy::too_many_arguments)]
    pub fn nearest(
        &self,
        table: &RouteTable,
        field: &RouteField,
        target: FleetPos,
        k: usize,
        pos_of: impl Fn(u32) -> FleetPos,
        skip: impl Fn(u32) -> bool,
        out: &mut CandidateList,
    ) {
        *out = CandidateList::default();
        let k = k.clamp(1, MAX_CANDIDATES);
        let p = table.pose(target);
        let (cx, cy) = self.cell_of(p.x, p.y);
        let max_ring = cx.max(self.cols - 1 - cx).max(cy.max(self.rows - 1 - cy));
        for r in 0..=max_ring {
            // Every vehicle in ring r is ≥ (r − 1)·cell_m away in the
            // plane, hence at least that far by road. Stop only on a
            // strict beat: at equality a ring-r vehicle could still tie
            // the k-th candidate with a lower id.
            if let Some(kth) = out.kth_distance(k) {
                let lower_bound = f64::from(r.saturating_sub(1)) * self.cell_m;
                if lower_bound > kth {
                    break;
                }
            }
            self.for_ring(cx, cy, r, |bucket| {
                for &id in &self.buckets[bucket] {
                    if skip(id) {
                        continue;
                    }
                    out.evals += 1;
                    let d = table.travel_distance_with(pos_of(id), target, field);
                    out.insert(d, id, k);
                }
            });
        }
    }

    /// Visits every in-bounds bucket at Chebyshev ring `r` around
    /// `(cx, cy)` in a fixed order (top row, bottom row, then side
    /// columns, each ascending).
    fn for_ring(&self, cx: u32, cy: u32, r: u32, mut visit: impl FnMut(usize)) {
        let (cx, cy, r) = (i64::from(cx), i64::from(cy), i64::from(r));
        let (cols, rows) = (i64::from(self.cols), i64::from(self.rows));
        let mut cell = |x: i64, y: i64| {
            if (0..cols).contains(&x) && (0..rows).contains(&y) {
                visit((y * cols + x) as usize);
            }
        };
        if r == 0 {
            cell(cx, cy);
            return;
        }
        for x in (cx - r)..=(cx + r) {
            cell(x, cy - r);
        }
        for x in (cx - r)..=(cx + r) {
            cell(x, cy + r);
        }
        for y in (cy - r + 1)..=(cy + r - 1) {
            cell(cx - r, y);
            cell(cx + r, y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sov_world::map::grid_network;

    fn table() -> RouteTable {
        RouteTable::new(&grid_network(4, 4, 60.0, 2.5, 8.0))
    }

    /// The linear scan the index must reproduce: best (distance, id).
    fn brute_nearest(
        table: &RouteTable,
        field: &RouteField,
        target: FleetPos,
        vehicles: &[(u32, FleetPos)],
        skip: impl Fn(u32) -> bool,
    ) -> Option<(f64, u32)> {
        let mut best: Option<(f64, u32)> = None;
        for &(id, pos) in vehicles {
            if skip(id) {
                continue;
            }
            let d = table.travel_distance_with(pos, target, field);
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, id));
            }
        }
        best
    }

    fn spread(table: &RouteTable, n: u32) -> Vec<(u32, FleetPos)> {
        (0..n)
            .map(|i| (i, table.sample((f64::from(i) + 0.37) / f64::from(n))))
            .collect()
    }

    #[test]
    fn nearest_matches_linear_scan_exactly() {
        let t = table();
        assert_eq!(t.max_connection_gap_m(), 0.0);
        let mut index = SpatialIndex::new(&t, 45.0);
        let vehicles = spread(&t, 37);
        index.rebuild(&t, vehicles.iter().copied());
        let mut out = CandidateList::default();
        for q in 0..60 {
            let target = t.sample(f64::from(q) / 60.0);
            let field = t.field_to(target.lane);
            index.nearest(
                &t,
                &field,
                target,
                1,
                |id| vehicles[id as usize].1,
                |_| false,
                &mut out,
            );
            let want = brute_nearest(&t, &field, target, &vehicles, |_| false);
            let got = out.get(0).map(|c| (c.distance_m, c.id));
            assert_eq!(got, want, "query {q}: index disagrees with linear scan");
        }
    }

    #[test]
    #[should_panic(expected = "touching lane connections")]
    fn gapped_map_is_rejected() {
        use sov_world::map::{Lane, LaneId, LaneMap};
        // Two parallel lanes 5 m apart, each connected to the other: a
        // strongly connected map whose every connection jumps 5 m.
        let mut map = LaneMap::new();
        for (i, line) in [[(0.0, 0.0), (10.0, 0.0)], [(10.0, 5.0), (0.0, 5.0)]]
            .into_iter()
            .enumerate()
        {
            let lane = Lane::new(LaneId(i as u32), line.to_vec(), 2.0, 5.0).expect("valid");
            map.insert(lane);
        }
        map.connect(LaneId(0), LaneId(1)).expect("lanes exist");
        map.connect(LaneId(1), LaneId(0)).expect("lanes exist");
        let t = RouteTable::new(&map);
        assert_eq!(t.max_connection_gap_m(), 5.0);
        let _ = SpatialIndex::new(&t, 10.0);
    }

    #[test]
    fn ties_go_to_the_lower_id() {
        let t = table();
        let mut index = SpatialIndex::new(&t, 60.0);
        // Two vehicles at the same position: identical distance, ids 3, 9.
        let pos = t.sample(0.41);
        let vehicles = [(3u32, pos), (9u32, pos)];
        index.rebuild(&t, vehicles.iter().copied());
        let target = t.sample(0.88);
        let field = t.field_to(target.lane);
        let mut out = CandidateList::default();
        index.nearest(
            &t,
            &field,
            target,
            2,
            |id| pos_for(id, &vehicles),
            |_| false,
            &mut out,
        );
        assert_eq!(out.get(0).map(|c| c.id), Some(3));
        assert_eq!(out.get(1).map(|c| c.id), Some(9));
        assert_eq!(
            out.get(0).map(|c| c.distance_m),
            out.get(1).map(|c| c.distance_m)
        );
    }

    fn pos_for(id: u32, vehicles: &[(u32, FleetPos)]) -> FleetPos {
        vehicles
            .iter()
            .find(|&&(v, _)| v == id)
            .expect("known id")
            .1
    }

    #[test]
    fn skip_predicate_excludes_claimed_vehicles() {
        let t = table();
        let mut index = SpatialIndex::new(&t, 45.0);
        let vehicles = spread(&t, 20);
        index.rebuild(&t, vehicles.iter().copied());
        let target = t.sample(0.5);
        let field = t.field_to(target.lane);
        let mut all = CandidateList::default();
        index.nearest(
            &t,
            &field,
            target,
            1,
            |id| vehicles[id as usize].1,
            |_| false,
            &mut all,
        );
        let winner = all.get(0).expect("non-empty fleet").id;
        let mut rest = CandidateList::default();
        index.nearest(
            &t,
            &field,
            target,
            1,
            |id| vehicles[id as usize].1,
            |id| id == winner,
            &mut rest,
        );
        let want = brute_nearest(&t, &field, target, &vehicles, |id| id == winner);
        assert_eq!(rest.get(0).map(|c| (c.distance_m, c.id)), want);
    }

    #[test]
    fn candidate_list_truncates_at_k() {
        let mut list = CandidateList::default();
        for id in 0..20 {
            list.insert(f64::from(20 - id), id, 3);
        }
        assert_eq!(list.len(), 3);
        // Last three inserts had the smallest distances: 1, 2, 3.
        let dists: Vec<f64> = list.iter().map(|c| c.distance_m).collect();
        assert_eq!(dists, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ring_search_prunes_far_buckets() {
        // One vehicle adjacent to the query, many far away: the ring
        // search must settle without evaluating the whole fleet.
        let t = RouteTable::new(&grid_network(8, 8, 60.0, 2.5, 8.0));
        let mut index = SpatialIndex::new(&t, 60.0);
        let target = t.sample(0.02);
        let mut vehicles = vec![(0u32, target)];
        for i in 1..200u32 {
            vehicles.push((i, t.sample(0.5 + f64::from(i) / 500.0)));
        }
        index.rebuild(&t, vehicles.iter().copied());
        let field = t.field_to(target.lane);
        let mut out = CandidateList::default();
        index.nearest(
            &t,
            &field,
            target,
            1,
            |id| vehicles[id as usize].1,
            |_| false,
            &mut out,
        );
        assert_eq!(out.get(0).map(|c| c.id), Some(0));
        assert!(
            (out.evals as usize) < vehicles.len() / 2,
            "ring search evaluated {} of {} vehicles",
            out.evals,
            vehicles.len()
        );
    }
}
