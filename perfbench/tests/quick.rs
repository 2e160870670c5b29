//! Quick mode runs every workload, measured and traced, with every output
//! check on; it must pass and print a complete result line per run.

use std::process::Command;

#[test]
fn quick_mode_passes_every_check() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--quick")
        .output()
        .expect("run perfbench --quick");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "quick mode failed:\n{stdout}");
    let results: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(
        results.len(),
        6,
        "one result line per workload and mode:\n{stdout}"
    );
    for line in results {
        assert!(line.contains("\"correct\": true"), "{line}");
        assert!(line.contains("\"failed\": 0"), "{line}");
    }
    for metric in [
        "setup_s",
        "throughput_ops_s",
        "latency_p50_us",
        "sim_fps",
        "tensor.fanouts_per_op",
    ] {
        assert!(
            stdout.contains(&format!("\"{metric}\"")),
            "{metric} missing:\n{stdout}"
        );
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1"])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
