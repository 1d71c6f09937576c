//! Fig. 9 / Sec. V-B3 — the runtime partial reconfiguration engine.
//!
//! Simulates the decoupled Tx/FIFO/Rx/ICAP engine cycle by cycle and
//! compares it against the stock CPU-driven path, including the
//! feature-extraction ↔ feature-tracking swap scenario that motivates RPR.

use sov_platform::rpr::{RprConfig, RprEngine, RprFootprint, RprPath};

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner(
        "Fig. 9 / Sec. V-B3",
        "Runtime partial reconfiguration engine",
    );
    let engine = RprEngine::default();
    println!(
        "{:>14} | {:>18} | {:>14} | {:>12} | {:>10}",
        "bitstream", "path", "time", "MB/s", "energy"
    );
    println!(
        "{:->14}-+-{:->18}-+-{:->14}-+-{:->12}-+-{:->10}",
        "", "", "", "", ""
    );
    for size_mb in [1u64, 4, 10] {
        let bytes = size_mb * 1024 * 1024;
        for (label, path) in [
            ("CPU-driven (stock)", RprPath::CpuDriven),
            ("decoupled engine", RprPath::DecoupledEngine),
        ] {
            let r = engine.reconfigure(bytes, path);
            println!(
                "{:>12}MB | {:>18} | {:>14} | {:>12.1} | {:>8.1}mJ",
                size_mb,
                label,
                format!("{}", r.duration),
                r.throughput_mbps(),
                r.energy_j * 1000.0
            );
        }
    }
    sov_bench::section("localization bitstream swap (keyframe ↔ tracked frame)");
    let swap = engine.reconfigure(1024 * 1024, RprPath::DecoupledEngine);
    println!(
        "  1 MB partial bitstream: {} and {:.1} mJ per swap (paper: <3 ms, 2.1 mJ)",
        swap.duration,
        swap.energy_j * 1000.0
    );
    println!(
        "  peak FIFO occupancy: {} B (paper: a 128 B FIFO is sufficient)",
        swap.peak_fifo_occupancy
    );
    sov_bench::section("resources");
    let fp = RprFootprint::PAPER;
    println!(
        "  engine footprint: {} FFs, {} LUTs (paper: ~400/~400)",
        fp.ffs, fp.luts
    );
    sov_bench::section("FIFO-depth ablation");
    for fifo in [8usize, 32, 128, 512] {
        let cfg = RprConfig {
            fifo_bytes: fifo,
            tx_burst_bytes: fifo.min(64),
            ..RprConfig::default()
        };
        let r = RprEngine::new(cfg).reconfigure(4 * 1024 * 1024, RprPath::DecoupledEngine);
        println!("  FIFO {fifo:>4} B → {:>7.1} MB/s", r.throughput_mbps());
    }
}
