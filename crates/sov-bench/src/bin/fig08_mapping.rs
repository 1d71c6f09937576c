//! Fig. 8 — latency of different perception→hardware mapping strategies.

use sov_platform::mapping::{end_to_end_reduction, PerceptionMapping};
use sov_platform::processor::Platform;

fn name(p: Platform) -> &'static str {
    p.name()
}

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner("Fig. 8", "Perception mapping strategies");
    println!(
        "{:<28} | {:>10} | {:>10} | {:>12}",
        "mapping (SU / localization)", "SU (ms)", "loc (ms)", "perception"
    );
    println!("{:-<28}-+-{:->10}-+-{:->10}-+-{:->12}", "", "", "", "");
    let ours = PerceptionMapping::ours();
    for m in PerceptionMapping::fig8_strategies() {
        let lat = m.latency();
        let marker = if m == ours { "  ← our design" } else { "" };
        println!(
            "{:<28} | {:>10.1} | {:>10.1} | {:>10.1}ms{marker}",
            format!("{} / {}", name(m.scene_understanding), name(m.localization)),
            lat.scene_understanding_ms,
            lat.localization_ms,
            lat.perception_ms()
        );
    }
    let shared = PerceptionMapping {
        scene_understanding: Platform::Gtx1060Gpu,
        localization: Platform::Gtx1060Gpu,
    };
    println!(
        "\nperception speedup of our design over shared-GPU: {} (paper: 1.6×)",
        sov_bench::times(ours.speedup_over(&shared))
    );
    println!(
        "end-to-end latency reduction (sensing+planning ≈ 84 ms held fixed): {:.0}% (paper: ~23%)",
        end_to_end_reduction(&ours, &shared, 84.0) * 100.0
    );
}
