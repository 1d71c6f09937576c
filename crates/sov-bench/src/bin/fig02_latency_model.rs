//! Fig. 2 / Eq. 1 — the end-to-end latency model.
//!
//! Prints the latency chain with the paper's measured parameters and the
//! derived safety quantities quoted in Sec. III-A.

use sov_vehicle::dynamics::LatencyBudget;

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner("Fig. 2 / Eq. 1", "End-to-end latency model");
    let b = LatencyBudget::perceptin_defaults();
    println!("parameters (paper, Sec. III-A):");
    println!("  v       = {:.1} m/s (typical speed)", b.speed_mps);
    println!("  a       = {:.1} m/s² (brake deceleration)", b.decel_mps2);
    println!("  T_data  = {:.0} ms (CAN bus)", b.t_data_s * 1000.0);
    println!(
        "  T_mech  = {:.0} ms (mechanical onset)",
        b.t_mech_s * 1000.0
    );
    println!("  T_stop  = v/a = {:.2} s", b.speed_mps / b.decel_mps2);
    sov_bench::section("derived quantities");
    println!(
        "  braking distance v²/2a        = {:.2} m   (paper: ~4 m)",
        b.braking_distance_m()
    );
    for (label, tcomp) in [
        ("mean T_comp = 164 ms", 0.164),
        ("worst T_comp = 740 ms", 0.740),
        ("reactive path = 30 ms", 0.030),
    ] {
        println!(
            "  min avoidable distance @ {label:<22} = {:.2} m",
            b.min_avoidable_distance_m(tcomp)
        );
    }
    sov_bench::section("latency requirement inversion (Eq. 1 solved for T_comp)");
    for d in [5.0, 6.0, 8.0, 10.0] {
        println!(
            "  obstacle at {d:>4.1} m → T_comp must be ≤ {:>6.1} ms",
            b.max_tcomp_s(d) * 1000.0
        );
    }
}
