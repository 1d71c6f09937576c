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
///
/// Folds every field that `PartialEq` compares, in declaration order,
/// and nothing of the wall-clock `tail`. A [`Summary`] contributes its
/// sample count and its samples' bits in stored order.
#[must_use]
pub fn digest_report(r: &DriveReport) -> u64 {
    let summary = |h: u64, s: &Summary| {
        s.samples()
            .iter()
            .fold(mix(h, s.len() as u64), |h, v| mix(h, v.to_bits()))
    };
    let mut h = [
        r.outcome as u64,
        r.frames,
        r.distance_m.to_bits(),
        r.override_engagements,
        r.override_ticks,
    ]
    .into_iter()
    .fold(0, mix);
    h = summary(h, &r.computing);
    for v in [
        r.min_obstacle_gap_m,
        r.energy_used_kwh,
        r.final_localization_error_m,
        r.mean_cross_track_error_m,
    ] {
        h = mix(h, v.to_bits());
    }
    for t in r.mode_ticks {
        h = mix(h, t);
    }
    h = mix(h, r.mode_transitions);
    h = summary(h, &r.recovery_ms);
    for v in [
        r.deadline_misses,
        r.can_frames_lost,
        r.frames_shed,
        r.safety.checked_ticks,
        r.safety.violations,
    ] {
        h = mix(h, v);
    }
    match &r.safety.first {
        None => mix(h, 0),
        Some(v) => [
            1,
            v.frame,
            v.invariant as u64,
            v.gap_m.to_bits(),
            v.speed_mps.to_bits(),
        ]
        .into_iter()
        .fold(h, mix),
    }
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

/// The first argument in `args` that `flags` does not accept. A flag is
/// written as in a usage line, `"--json PATH"`: the flag, then one word
/// per value it takes; a flag short of its values counts as unknown.
#[must_use]
pub fn first_unknown_arg<'a>(args: &'a [String], flags: &[&str]) -> Option<&'a str> {
    let mut i = 0;
    while let Some(arg) = args.get(i) {
        let values = flags.iter().find_map(|flag| {
            let mut words = flag.split_whitespace();
            (words.next() == Some(arg.as_str())).then(|| words.count())
        });
        match values {
            Some(n) if i + n < args.len() => i += 1 + n,
            _ => return Some(arg),
        }
    }
    None
}

/// Exits with status 2, listing the accepted flags on stderr, unless each
/// command-line argument is one of `flags` (see [`first_unknown_arg`]) or
/// `--seed N`.
pub fn check_args(flags: &[&str]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags: Vec<&str> = flags.iter().copied().chain(["--seed N"]).collect();
    if let Some(arg) = first_unknown_arg(&args, &flags) {
        eprintln!(
            "`{arg}` is not an accepted flag or lacks its values; accepted: {}",
            flags.join(", ")
        );
        std::process::exit(2);
    }
}

/// Formats a ratio as `N.N×`.
#[must_use]
pub fn times(ratio: f64) -> String {
    format!("{ratio:.1}×")
}

#[cfg(test)]
mod tests {
    use super::digest_report;
    use sov_core::safety::{Invariant, SafetyViolation};
    use sov_core::sov::{DriveOutcome, DriveReport};
    use sov_math::stats::Summary;

    fn report() -> DriveReport {
        DriveReport {
            outcome: DriveOutcome::Completed,
            frames: 300,
            distance_m: 812.5,
            override_engagements: 2,
            override_ticks: 9,
            computing: [4.0, 5.5, 4.25].into_iter().collect(),
            min_obstacle_gap_m: 3.75,
            energy_used_kwh: 0.125,
            final_localization_error_m: 0.5,
            mean_cross_track_error_m: 0.25,
            mode_ticks: [280, 12, 6, 2],
            mode_transitions: 4,
            recovery_ms: [900.0, 1200.0].into_iter().collect(),
            deadline_misses: 3,
            can_frames_lost: 1,
            frames_shed: 7,
            safety: sov_core::SafetyReport {
                checked_ticks: 300,
                violations: 1,
                first: Some(SafetyViolation {
                    frame: 40,
                    invariant: Invariant::MinGap,
                    gap_m: 1.5,
                    speed_mps: 2.0,
                }),
            },
            tail: sov_core::TailReport::default(),
        }
    }

    #[test]
    fn digest_sees_every_compared_field() {
        type Perturb = fn(&mut DriveReport);
        let perturbations: [(&str, Perturb); 25] = [
            ("outcome", |r| r.outcome = DriveOutcome::Stopped),
            ("frames", |r| r.frames += 1),
            ("distance_m", |r| r.distance_m += 1.0),
            ("override_engagements", |r| r.override_engagements += 1),
            ("override_ticks", |r| r.override_ticks += 1),
            ("computing sample", |r| {
                r.computing = [4.0, 5.5, 4.5].into_iter().collect();
            }),
            ("computing order", |r| {
                r.computing = [5.5, 4.0, 4.25].into_iter().collect();
            }),
            ("computing count", |r| r.computing.record(0.0)),
            ("min_obstacle_gap_m", |r| r.min_obstacle_gap_m += 1.0),
            ("energy_used_kwh", |r| r.energy_used_kwh += 1.0),
            ("final_localization_error_m", |r| {
                r.final_localization_error_m += 1.0;
            }),
            ("mean_cross_track_error_m", |r| {
                r.mean_cross_track_error_m += 1.0
            }),
            ("mode_ticks", |r| r.mode_ticks[3] += 1),
            ("mode_transitions", |r| r.mode_transitions += 1),
            ("recovery_ms", |r| r.recovery_ms = Summary::new()),
            ("deadline_misses", |r| r.deadline_misses += 1),
            ("can_frames_lost", |r| r.can_frames_lost += 1),
            ("frames_shed", |r| r.frames_shed += 1),
            ("safety.checked_ticks", |r| r.safety.checked_ticks += 1),
            ("safety.violations", |r| r.safety.violations += 1),
            ("safety.first", |r| r.safety.first = None),
            ("safety.first.frame", |r| {
                r.safety.first.as_mut().expect("set").frame += 1;
            }),
            ("safety.first.invariant", |r| {
                r.safety.first.as_mut().expect("set").invariant = Invariant::NoCollision;
            }),
            ("safety.first.gap_m", |r| {
                r.safety.first.as_mut().expect("set").gap_m += 1.0;
            }),
            ("safety.first.speed_mps", |r| {
                r.safety.first.as_mut().expect("set").speed_mps += 1.0;
            }),
        ];
        let base = report();
        let digest = digest_report(&base);
        for (field, perturb) in perturbations {
            let mut changed = report();
            perturb(&mut changed);
            assert_ne!(
                changed, base,
                "{field}: the perturbation must be visible to PartialEq"
            );
            assert_ne!(digest_report(&changed), digest, "{field}");
        }
        // The wall-clock tail is outside both equality and the digest.
        let mut timed = report();
        timed.tail.stage_compute_ms[2].record(12.0);
        timed.tail.overruns_predicted = 99;
        assert_eq!(timed, base);
        assert_eq!(digest_report(&timed), digest);
    }

    #[test]
    fn default_seed() {
        assert_eq!(super::seed_from_args(), 42);
    }

    #[test]
    fn first_unknown_arg_checks_flags_and_their_values() {
        let flags = ["--json PATH", "--smoke", "--repro S F FRAME", "--seed N"];
        let check = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            super::first_unknown_arg(&args, &flags).map(String::from)
        };
        assert_eq!(check(""), None);
        assert_eq!(check("--smoke --json out.json --seed 7"), None);
        assert_eq!(check("--repro 1 2 3 --smoke"), None);
        assert_eq!(check("--help").as_deref(), Some("--help"));
        assert_eq!(check("--smoke --frames 9").as_deref(), Some("--frames"));
        assert_eq!(check("--json").as_deref(), Some("--json"), "missing value");
        assert_eq!(check("--repro 1 2").as_deref(), Some("--repro"));
        assert_eq!(check("--smoke stray").as_deref(), Some("stray"));
    }

    #[test]
    fn times_formats() {
        assert_eq!(super::times(1.6), "1.6×");
    }
}
