//! Fig. 6 — latency and energy of three perception tasks on four platforms
//! (CPU, GPU, TX2, FPGA).

use sov_platform::processor::{Platform, Task};

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner("Fig. 6", "Perception tasks across platforms");
    sov_bench::section("(a) latency (ms, mean of the execution profile)");
    print!("{:<24}", "task");
    for p in Platform::ALL {
        print!(" | {:>9}", p.name());
    }
    println!();
    println!(
        "{:-<24}-+-{:->9}-+-{:->9}-+-{:->9}-+-{:->9}",
        "", "", "", "", ""
    );
    for t in Task::FIG6_TASKS {
        print!("{:<24}", t.name());
        for p in Platform::ALL {
            print!(" | {:>9.1}", t.profile(p).mean_latency_ms());
        }
        println!();
    }
    let tx2_total: f64 = Task::FIG6_TASKS
        .iter()
        .map(|t| t.profile(Platform::JetsonTx2).mean_latency_ms())
        .sum();
    println!("\nTX2 cumulative perception latency: {tx2_total:.1} ms (paper: 844.2 ms)");

    sov_bench::section("(b) energy per invocation (J)");
    print!("{:<24}", "task");
    for p in Platform::ALL {
        print!(" | {:>9}", p.name());
    }
    println!();
    println!(
        "{:-<24}-+-{:->9}-+-{:->9}-+-{:->9}-+-{:->9}",
        "", "", "", "", ""
    );
    for t in Task::FIG6_TASKS {
        print!("{:<24}", t.name());
        for p in Platform::ALL {
            print!(" | {:>9.2}", t.profile(p).mean_energy_j());
        }
        println!();
    }
    println!(
        "\nObservations (paper): TX2 is much slower than the GPU everywhere;\n\
         its energy advantage is marginal or negative because of the long\n\
         latency; the embedded FPGA beats the GPU only for localization."
    );
}
