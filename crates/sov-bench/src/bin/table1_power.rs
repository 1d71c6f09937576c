//! Table I — power breakdown of the vehicle.

use sov_vehicle::battery::{table1_power_breakdown, table1_total_pad_w, LidarPower};

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner("Table I", "Power breakdown");
    println!(
        "{:<50} | {:>10} | {:>8}",
        "Component(s)", "Power (W)", "Quantity"
    );
    println!("{:-<50}-+-{:->10}-+-{:->8}", "", "", "");
    for c in table1_power_breakdown() {
        println!("{:<50} | {:>10.1} | {:>8}", c.name, c.total_w(), c.quantity);
    }
    println!("{:-<50}-+-{:->10}-+-{:->8}", "", "", "");
    println!(
        "{:<50} | {:>10.0} |",
        "Total for AD (P_AD)",
        table1_total_pad_w()
    );
    println!("{:<50} | {:>10.0} |", "Vehicle without AD (P_V)", 600.0);
    sov_bench::section("LiDAR reference (not used by the vehicle)");
    println!(
        "{:<50} | {:>10.0} | {:>8}",
        "Long-range LiDAR",
        LidarPower::LONG_RANGE_W,
        1
    );
    println!(
        "{:<50} | {:>10.0} | {:>8}",
        "Short-range LiDAR",
        LidarPower::SHORT_RANGE_W,
        1
    );
    println!(
        "{:<50} | {:>10.0} |",
        "Waymo-style suite (1 long + 4 short)",
        LidarPower::waymo_suite_w()
    );
}
