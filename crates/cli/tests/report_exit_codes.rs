//! Exit codes of the `prophunt` binary on malformed input: a corrupt
//! `--metrics` file or an oversized code family is an operation failure
//! (exit 1), never a panic (exit 101) or an out-of-memory kill.

use std::path::PathBuf;
use std::process::Command;

/// A metrics file whose one histogram claims bucket index 99, past the last
/// of the 65 log2 buckets.
fn bad_metrics_file() -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bucket_99.jsonl");
    std::fs::write(
        &path,
        concat!(
            r#"{"type":"meta","version":"0.1.0","seed":7,"threads":1,"chunk_size":64,"engine":"frames"}"#,
            "\n",
            r#"{"type":"metrics","counters":{"ler.shots":64},"gauges":{},"#,
            r#""histograms":[{"name":"job.ler.ns","count":1,"sum":5,"buckets":[[99,1]]}]}"#,
            "\n",
        ),
    )
    .expect("write the metrics fixture");
    path
}

#[test]
fn report_and_check_reject_an_out_of_range_bucket_with_exit_code_1() {
    let path = bad_metrics_file();
    for command in ["report", "check"] {
        let out = Command::new(env!("CARGO_BIN_EXE_prophunt"))
            .arg(command)
            .arg(&path)
            .output()
            .expect("run prophunt");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(stderr.contains("out of range"), "{command}: {stderr}");
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
    }
}

#[test]
fn an_oversized_code_family_exits_1_without_building_it() {
    for family in ["surface:4000", "surface:99999999999"] {
        let out = Command::new(env!("CARGO_BIN_EXE_prophunt"))
            .args(["code", "--family", family])
            .output()
            .expect("run prophunt");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{family}: {stderr}");
        assert!(stderr.contains("10000"), "{family}: {stderr}");
    }
}
