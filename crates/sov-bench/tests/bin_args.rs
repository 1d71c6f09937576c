//! Every experiment bin rejects the arguments it cannot use: an unknown
//! flag, or a `--seed` (`fig04b_traffic`: `--points`) value that does not
//! parse, exits with status 2 and names the flag on stderr, before the
//! bin does its work.

use std::process::Command;

/// `(name, executable)` of every bin in `src/bin`.
const BINS: &[(&str, &str)] = &[
    ("ablation_planner", env!("CARGO_BIN_EXE_ablation_planner")),
    ("ablation_sync", env!("CARGO_BIN_EXE_ablation_sync")),
    ("alp_explorer", env!("CARGO_BIN_EXE_alp_explorer")),
    ("cloud_loop", env!("CARGO_BIN_EXE_cloud_loop")),
    ("codesign_gpsvio", env!("CARGO_BIN_EXE_codesign_gpsvio")),
    ("codesign_tracking", env!("CARGO_BIN_EXE_codesign_tracking")),
    ("deployment_sites", env!("CARGO_BIN_EXE_deployment_sites")),
    ("fault_matrix", env!("CARGO_BIN_EXE_fault_matrix")),
    (
        "fig02_latency_model",
        env!("CARGO_BIN_EXE_fig02_latency_model"),
    ),
    (
        "fig03a_latency_requirement",
        env!("CARGO_BIN_EXE_fig03a_latency_requirement"),
    ),
    (
        "fig03b_driving_time",
        env!("CARGO_BIN_EXE_fig03b_driving_time"),
    ),
    ("fig04a_reuse", env!("CARGO_BIN_EXE_fig04a_reuse")),
    ("fig04b_traffic", env!("CARGO_BIN_EXE_fig04b_traffic")),
    ("fig05_tlp", env!("CARGO_BIN_EXE_fig05_tlp")),
    ("fig06_platforms", env!("CARGO_BIN_EXE_fig06_platforms")),
    ("fig08_mapping", env!("CARGO_BIN_EXE_fig08_mapping")),
    ("fig09_rpr", env!("CARGO_BIN_EXE_fig09_rpr")),
    (
        "fig10a_latency_dist",
        env!("CARGO_BIN_EXE_fig10a_latency_dist"),
    ),
    (
        "fig10b_task_latency",
        env!("CARGO_BIN_EXE_fig10b_task_latency"),
    ),
    ("fig11a_sync_depth", env!("CARGO_BIN_EXE_fig11a_sync_depth")),
    ("fig11b_sync_vio", env!("CARGO_BIN_EXE_fig11b_sync_vio")),
    (
        "fig12_sensor_pipeline",
        env!("CARGO_BIN_EXE_fig12_sensor_pipeline"),
    ),
    ("fleet_matrix", env!("CARGO_BIN_EXE_fleet_matrix")),
    ("localizer_compare", env!("CARGO_BIN_EXE_localizer_compare")),
    ("measured_tasks", env!("CARGO_BIN_EXE_measured_tasks")),
    ("perf_matrix", env!("CARGO_BIN_EXE_perf_matrix")),
    ("pipeline_matrix", env!("CARGO_BIN_EXE_pipeline_matrix")),
    ("planner_compare", env!("CARGO_BIN_EXE_planner_compare")),
    ("reactive_path", env!("CARGO_BIN_EXE_reactive_path")),
    ("rpr_timeshare", env!("CARGO_BIN_EXE_rpr_timeshare")),
    ("scenario_matrix", env!("CARGO_BIN_EXE_scenario_matrix")),
    ("sync_scaling", env!("CARGO_BIN_EXE_sync_scaling")),
    ("table1_power", env!("CARGO_BIN_EXE_table1_power")),
    ("table2_cost", env!("CARGO_BIN_EXE_table2_cost")),
];

fn assert_rejects(bin: &str, exe: &str, args: &[&str], flag: &str) {
    let out = Command::new(exe).args(args).output().expect("bin starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(flag), "{bin} {args:?}: {stderr}");
}

#[test]
fn every_bin_rejects_an_unknown_flag_and_an_unparsable_seed() {
    for &(bin, exe) in BINS {
        assert_rejects(bin, exe, &["--no-such-flag"], "--no-such-flag");
        assert_rejects(bin, exe, &["--seed", "x"], "--seed");
    }
}

#[test]
fn fig04b_rejects_an_unparsable_point_count() {
    let exe = env!("CARGO_BIN_EXE_fig04b_traffic");
    assert_rejects("fig04b_traffic", exe, &["--points", "x"], "--points");
}

#[test]
fn the_list_names_every_bin() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
    let mut on_disk: Vec<String> = std::fs::read_dir(dir)
        .expect("bin directory reads")
        .map(|e| {
            e.expect("entry reads")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter_map(|f| f.strip_suffix(".rs").map(String::from))
        .collect();
    on_disk.sort();
    let listed: Vec<&str> = BINS.iter().map(|&(bin, _)| bin).collect();
    assert_eq!(on_disk, listed);
}
