//! Table II — cost breakdown and LiDAR comparison, plus the Sec. VII TCO
//! extension.

use sov_vehicle::cost::{TcoModel, VehicleBom};

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner(
        "Table II",
        "Cost breakdown of our vehicle vs LiDAR-based vehicles",
    );
    for bom in [VehicleBom::camera_based(), VehicleBom::lidar_based()] {
        sov_bench::section(bom.name);
        for c in &bom.components {
            println!("  {c}");
        }
        println!("  sensor subtotal: ${:.0}", bom.sensor_total_usd());
        println!(
            "  retail price:    ${:.0}{}",
            bom.retail_price_usd,
            if bom.retail_price_usd >= 300_000.0 {
                " (estimated lower bound)"
            } else {
                ""
            }
        );
    }
    sov_bench::section("TCO extension (Sec. VII)");
    let tco = TcoModel::tourist_site_defaults();
    println!("  tourist-site deployment, camera-based vehicle:");
    println!("    annual cost:    ${:.0}", tco.annual_cost_usd());
    println!(
        "    cost per trip:  ${:.2}  (supports the $1/trip fare)",
        tco.cost_per_trip_usd()
    );
    let lidar_tco = TcoModel {
        vehicle_usd: VehicleBom::lidar_based().retail_price_usd,
        ..TcoModel::tourist_site_defaults()
    };
    println!("  same deployment with a LiDAR-based vehicle:");
    println!("    annual cost:    ${:.0}", lidar_tco.annual_cost_usd());
    println!(
        "    cost per trip:  ${:.2}  ({} the camera-based cost)",
        lidar_tco.cost_per_trip_usd(),
        sov_bench::times(lidar_tco.cost_per_trip_usd() / tco.cost_per_trip_usd())
    );
}
