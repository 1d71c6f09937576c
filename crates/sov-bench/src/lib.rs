//! Experiment harness for the SoV reproduction.
//!
//! Each paper table/figure has a binary in `src/bin/` that regenerates its
//! rows/series (see DESIGN.md §4 for the index); criterion benches in
//! `benches/` measure the real Rust implementations. This library holds the
//! shared report formatting, argument handling and report digests.

#![deny(missing_docs)]

use sov_core::sov::DriveReport;
use sov_math::stats::Summary;

/// SplitMix64 step — the bit mixer behind the drive-report digests and
/// the pipeline replay checksums.
#[must_use]
pub fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Digest of a [`DriveReport`] for display and for the committed
/// baselines; equality gates themselves use the report's exact bitwise
/// `PartialEq`.
#[must_use]
pub fn digest_report(r: &DriveReport) -> u64 {
    let mut h = mix(0, r.frames);
    for v in [
        r.distance_m,
        r.min_obstacle_gap_m,
        r.energy_used_kwh,
        r.final_localization_error_m,
        r.mean_cross_track_error_m,
        r.computing.mean(),
    ] {
        h = mix(h, v.to_bits());
    }
    for v in [
        r.override_engagements,
        r.override_ticks,
        r.mode_transitions,
        r.deadline_misses,
        r.can_frames_lost,
    ] {
        h = mix(h, v);
    }
    for t in r.mode_ticks {
        h = mix(h, t);
    }
    h
}

/// `[p50, p99, p99.9, max]` of a summary — the four points every latency
/// and attribution column reports. Sorts `s` in place.
pub fn quad(s: &mut Summary) -> [f64; 4] {
    [s.percentile(50.0), s.p99(), s.p999(), s.max()]
}

/// A [`quad`] as a JSON object with millisecond-style three-decimal
/// fields.
#[must_use]
pub fn quad_json(q: [f64; 4]) -> String {
    format!(
        "{{\"p50\": {:.3}, \"p99\": {:.3}, \"p999\": {:.3}, \"max\": {:.3}}}",
        q[0], q[1], q[2], q[3]
    )
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("==============================================================");
    println!("{id} — {title}");
    println!("==============================================================");
}

/// Prints a section divider.
pub fn section(name: &str) {
    println!("\n--- {name} ---");
}

/// Parses `--seed N` from the command line (default 42).
#[must_use]
pub fn seed_from_args() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Formats a ratio as `N.N×`.
#[must_use]
pub fn times(ratio: f64) -> String {
    format!("{ratio:.1}×")
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_seed() {
        assert_eq!(super::seed_from_args(), 42);
    }

    #[test]
    fn times_formats() {
        assert_eq!(super::times(1.6), "1.6×");
    }
}
