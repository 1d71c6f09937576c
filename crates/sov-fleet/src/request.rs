//! Seeded Poisson ride demand over the lane graph.
//!
//! Ride requests arrive as a Poisson process (`λ` requests per tick) with
//! origins and destinations drawn uniformly by arclength from the network
//! via [`RouteTable::sample`]. Everything is driven by one [`SovRng`]
//! stream consumed in a fixed order on the serial phase of the fleet tick,
//! so a seed fully determines the demand trace independent of worker
//! count.

use crate::graph::{FleetPos, RouteCache, RouteTable};
use sov_math::SovRng;

/// One ride request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RideRequest {
    /// Unique, densely increasing request id.
    pub id: u64,
    /// Tick the request arrived on.
    pub tick: u64,
    /// Pickup position.
    pub origin: FleetPos,
    /// Drop-off position.
    pub dest: FleetPos,
    /// Shortest driving distance origin → destination (meters).
    pub direct_m: f64,
}

/// Seeded Poisson request generator.
#[derive(Debug, Clone, PartialEq)]
pub struct RideGen {
    rng: SovRng,
    rate_per_tick: f64,
    min_trip_m: f64,
    next_id: u64,
}

/// Destination re-draws before a short trip is accepted anyway: keeps the
/// RNG consumption bounded per request regardless of map geometry.
const MAX_DEST_DRAWS: u32 = 16;

impl RideGen {
    /// Creates a generator producing on average `rate_per_tick` requests
    /// per tick, rejecting trips shorter than `min_trip_m` (re-drawing the
    /// destination up to a fixed retry budget).
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_tick` is not positive or `min_trip_m` is
    /// negative.
    #[must_use]
    pub fn new(seed: u64, rate_per_tick: f64, min_trip_m: f64) -> Self {
        assert!(rate_per_tick > 0.0, "request rate must be positive");
        assert!(min_trip_m >= 0.0, "minimum trip length cannot be negative");
        Self {
            rng: SovRng::seed_from_u64(seed),
            rate_per_tick,
            min_trip_m,
            next_id: 0,
        }
    }

    /// Total requests generated so far.
    #[must_use]
    pub fn generated(&self) -> u64 {
        self.next_id
    }

    /// Appends this tick's arrivals to `out` (which is not cleared).
    ///
    /// The arrival count is Poisson-distributed via Knuth's product
    /// method; each request then draws an origin and up to
    /// [`MAX_DEST_DRAWS`] destinations from the network sampler. Direct
    /// distances are answered through `cache`, which also pre-warms the
    /// destination fields the dispatcher and the ride itself will reuse —
    /// generation runs on the serial phase, so the cache's state stays a
    /// pure function of the demand trace.
    pub fn generate(
        &mut self,
        tick: u64,
        table: &RouteTable,
        cache: &mut RouteCache,
        out: &mut Vec<RideRequest>,
    ) {
        let mut direct_to = |origin: FleetPos, dest: FleetPos| {
            let field = cache.field(table, dest.lane);
            table.travel_distance_with(origin, dest, &field)
        };
        let arrivals = self.poisson();
        for _ in 0..arrivals {
            let origin = table.sample(self.rng.next_f64());
            let mut dest = table.sample(self.rng.next_f64());
            let mut direct = direct_to(origin, dest);
            for _ in 1..MAX_DEST_DRAWS {
                if direct >= self.min_trip_m {
                    break;
                }
                dest = table.sample(self.rng.next_f64());
                direct = direct_to(origin, dest);
            }
            out.push(RideRequest {
                id: self.next_id,
                tick,
                origin,
                dest,
                direct_m: direct,
            });
            self.next_id += 1;
        }
    }

    /// Knuth's Poisson sampler: counts uniform draws until the running
    /// product falls below `e^{-λ}`. For the fleet's per-tick rates
    /// (λ ≤ ~30) the product stays far above `f64` underflow.
    fn poisson(&mut self) -> u64 {
        let l = (-self.rate_per_tick).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.rng.next_f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sov_world::map::grid_network;

    fn table() -> RouteTable {
        RouteTable::new(&grid_network(3, 3, 50.0, 2.5, 8.0))
    }

    #[test]
    fn same_seed_same_trace() {
        let t = table();
        let mut a = RideGen::new(7, 2.5, 100.0);
        let mut b = RideGen::new(7, 2.5, 100.0);
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        let mut cache_a = RouteCache::new(&t);
        // Different cache capacities must not change the trace: the cache
        // memoizes exact fields, it never changes a distance.
        let mut cache_b = RouteCache::with_capacity(&t, 1);
        for tick in 0..50 {
            a.generate(tick, &t, &mut cache_a, &mut out_a);
            b.generate(tick, &t, &mut cache_b, &mut out_b);
        }
        assert_eq!(out_a, out_b);
        assert_eq!(a.generated(), out_a.len() as u64);
    }

    #[test]
    fn poisson_mean_tracks_rate() {
        let t = table();
        let mut gen = RideGen::new(11, 3.0, 0.0);
        let mut cache = RouteCache::new(&t);
        let mut out = Vec::new();
        for tick in 0..2000 {
            gen.generate(tick, &t, &mut cache, &mut out);
        }
        let mean = out.len() as f64 / 2000.0;
        assert!((mean - 3.0).abs() < 0.15, "Poisson mean {mean}");
    }

    #[test]
    fn request_ids_are_dense_and_increasing() {
        let t = table();
        let mut gen = RideGen::new(3, 4.0, 50.0);
        let mut cache = RouteCache::new(&t);
        let mut out = Vec::new();
        for tick in 0..100 {
            gen.generate(tick, &t, &mut cache, &mut out);
        }
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
    }

    #[test]
    fn min_trip_is_mostly_respected() {
        let t = table();
        let mut gen = RideGen::new(5, 5.0, 120.0);
        let mut cache = RouteCache::new(&t);
        let mut out = Vec::new();
        for tick in 0..200 {
            gen.generate(tick, &t, &mut cache, &mut out);
        }
        assert!(cache.hits() > 0, "repeated destinations must hit the cache");
        assert!(!out.is_empty());
        let short = out.iter().filter(|r| r.direct_m < 120.0).count();
        // The retry budget makes short trips rare, not impossible.
        assert!(
            short * 10 < out.len(),
            "{short} of {} trips under the minimum",
            out.len()
        );
        for r in &out {
            assert!((r.direct_m - t.travel_distance(r.origin, r.dest)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = RideGen::new(0, 0.0, 10.0);
    }
}
