//! Sec. VII — accelerator-level parallelism across chips and the edge.
//!
//! Sweeps all 3125 assignments of the Fig. 5 DAG onto
//! {CPU, GPU, TX2, FPGA, edge server} and prints the latency/energy Pareto
//! frontier, the deployed design's position, and the edge-offload
//! sensitivity to network latency.

use sov_platform::alp::{
    deployed_assignment, pareto_frontier, schedule, DagNode, EdgeConfig, Site,
};

fn describe(assignment: &std::collections::BTreeMap<DagNode, Site>) -> String {
    DagNode::MOVABLE
        .iter()
        .map(|n| format!("{:?}@{}", n, assignment[n].name()))
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner("ALP explorer", "Cross-accelerator scheduling (Sec. VII)");
    let edge = EdgeConfig::default();

    sov_bench::section("the deployed design");
    let deployed = schedule(&deployed_assignment(), &edge);
    println!("  {}", describe(&deployed.assignment));
    println!(
        "  end-to-end latency {:.1} ms, vehicle energy {:.2} J/frame",
        deployed.latency_ms, deployed.energy_j
    );

    sov_bench::section("latency/energy Pareto frontier over 3125 assignments");
    println!("{:>12} | {:>12} | assignment", "latency (ms)", "energy (J)");
    println!("{:->12}-+-{:->12}-+-{:->50}", "", "", "");
    for s in pareto_frontier(&edge).iter().take(12) {
        println!(
            "{:>12.1} | {:>12.2} | {}",
            s.latency_ms,
            s.energy_j,
            describe(&s.assignment)
        );
    }

    sov_bench::section("edge-offload sensitivity (detection offloaded)");
    let mut offload = deployed_assignment();
    offload.insert(DagNode::Detection, Site::Edge);
    println!(
        "{:>14} | {:>14} | {:>10}",
        "RTT (ms)", "latency (ms)", "vs local"
    );
    println!("{:->14}-+-{:->14}-+-{:->10}", "", "", "");
    for rtt in [2.0, 5.0, 10.0, 15.0, 30.0, 60.0] {
        let cfg = EdgeConfig {
            rtt_ms: rtt,
            ..EdgeConfig::default()
        };
        let s = schedule(&offload, &cfg);
        let delta = s.latency_ms - deployed.latency_ms;
        println!("{rtt:>14.0} | {:>14.1} | {:>+9.1}ms", s.latency_ms, delta);
    }
    println!(
        "\nthe paper: 'efforts that exploit ALP while taking into account\n\
         constraints arising in different contexts would significantly\n\
         improve on-vehicle processing.'"
    );
}
