//! Fig. 3a — computing-latency requirement vs. object distance.
//!
//! Regenerates the curve: the requirement tightens as the object gets
//! closer, with the paper's annotated points (164 ms mean, 740 ms worst
//! case, 4 m braking distance).

use sov_vehicle::dynamics::LatencyBudget;

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner(
        "Fig. 3a",
        "Computing latency requirement vs object distance",
    );
    let b = LatencyBudget::perceptin_defaults();
    println!("{:>14} | {:>22}", "distance (m)", "T_comp requirement (s)");
    println!("{:->14}-+-{:->22}", "", "");
    let mut d = 3.0;
    while d <= 10.01 {
        let t = b.max_tcomp_s(d);
        let marker = if t < 0.0 {
            "  (unavoidable: inside braking distance)"
        } else if (d - 5.0).abs() < 0.26 {
            "  ← ~164 ms: our mean T_comp avoids ≥5 m"
        } else if (d - 8.3).abs() < 0.26 {
            "  ← ~740 ms: our worst-case T_comp"
        } else {
            ""
        };
        println!("{d:>14.2} | {:>22.3}{marker}", t.max(-0.1));
        d += 0.5;
    }
    println!(
        "\nbraking distance (theoretical avoidance bound): {:.2} m",
        b.braking_distance_m()
    );
}
