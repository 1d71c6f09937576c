//! Fig. 3b — reduced driving time vs. autonomous-driving power `P_AD`.
//!
//! Regenerates the sweep plus the annotated design points: the current
//! system (175 W), the LiDAR suite (+92 W), and one extra server at idle
//! (+31 W) or full load (+149 W).

use sov_platform::power::{ServerLoad, SovPowerModel};
use sov_vehicle::battery::DrivingTimeModel;

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner("Fig. 3b", "Driving time reduction vs P_AD (Eq. 2)");
    let m = DrivingTimeModel::perceptin_defaults();
    println!(
        "battery E = {} kWh, base load P_V = {} kW → {:.1} h without autonomy\n",
        m.capacity_kwh,
        m.base_load_kw,
        m.driving_time_h(0.0)
    );
    println!(
        "{:>12} | {:>18} | {:>20}",
        "P_AD (kW)", "driving time (h)", "reduction (h)"
    );
    println!("{:->12}-+-{:->18}-+-{:->20}", "", "", "");
    let mut pad = 0.15;
    while pad <= 0.351 {
        println!(
            "{pad:>12.2} | {:>18.2} | {:>20.2}",
            m.driving_time_h(pad),
            m.reduced_driving_time_h(pad)
        );
        pad += 0.02;
    }
    sov_bench::section("annotated design points");
    let points = [
        ("current system", SovPowerModel::deployed()),
        (
            "use LiDAR",
            SovPowerModel {
                lidar_suite: true,
                ..SovPowerModel::deployed()
            },
        ),
        (
            "+1 server idle",
            SovPowerModel {
                num_servers: 2,
                ..SovPowerModel::deployed()
            },
        ),
        (
            "+1 server full load",
            SovPowerModel {
                num_servers: 2,
                extra_server_load: ServerLoad::FullLoad,
                ..SovPowerModel::deployed()
            },
        ),
    ];
    for (name, model) in points {
        let pad = model.total_pad_kw();
        println!(
            "  {name:<22} P_AD = {:>5.0} W → driving time {:.2} h (−{:.2} h vs no autonomy)",
            pad * 1000.0,
            m.driving_time_h(pad),
            m.reduced_driving_time_h(pad)
        );
    }
    println!(
        "\nper-day revenue impact of the idle extra server on a 10 h site: {:.1}%",
        m.revenue_loss_fraction(0.175, 0.031, 10.0) * 100.0
    );
}
