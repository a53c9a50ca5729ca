//! Binary-level checks of `ladm-perf` at test scale: every workload prints
//! every metric `BENCHMARK.json` declares, a corrupted golden line fails
//! exactly one op, and bad arguments are usage errors, not panics.

use ladm_obs::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = [
    "suite-ladm",
    "suite-hcoda",
    "suite-ladm-t2",
    "decode-session",
];

fn ladm_perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ladm-perf"))
        .args(args)
        .output()
        .expect("ladm-perf runs")
}

/// The JSON object on the last line of standard output.
fn result(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e:?}): {last}"))
}

fn count(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).expect(key)
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let rows = doc.get(section).and_then(Json::as_array).expect(section);
    rows.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn golden_test() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/test.txt")
}

#[test]
fn every_workload_prints_every_declared_metric() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(section);
        for w in WORKLOADS {
            let out = ladm_perf(&[
                "--workload",
                w,
                "--scale",
                "test",
                "--seconds",
                "0",
                "--trace",
                trace,
            ]);
            assert!(out.status.success(), "{w} trace {trace}: {out:?}");
            let v = result(&out);
            assert_eq!(v.get("correct"), Some(&Json::Bool(true)), "{w}");
            assert!(count(&v, "attempted") >= 1.0);
            assert_eq!(count(&v, "failed"), 0.0);
            let Some(Json::Object(metrics)) = v.get("metrics") else {
                panic!("{w}: no metrics object");
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value").and_then(Json::as_f64).is_some(),
                        "{w} {name}"
                    );
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            let mut sorted = want.clone();
            sorted.sort();
            assert_eq!(got, sorted, "{w} trace {trace}: metric set");
            let stdout = String::from_utf8_lossy(&out.stdout);
            for (name, unit) in &want {
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.contains(name.as_str()) && l.ends_with(unit.as_str())),
                    "{w}: no table row for {name} [{unit}]"
                );
            }
        }
    }
}

#[test]
fn corrupted_golden_line_fails_exactly_one_op() {
    let text = std::fs::read_to_string(golden_test()).expect("test golden");
    let corrupted: String = text
        .lines()
        .map(|line| match line.strip_prefix("LADM VecAdd ") {
            Some(hash) => {
                let flipped = if hash.starts_with('0') { "1" } else { "0" };
                format!("LADM VecAdd {flipped}{}\n", &hash[1..])
            }
            None => format!("{line}\n"),
        })
        .collect();
    assert_ne!(corrupted, text, "the golden has a LADM VecAdd line");
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("corrupted-golden.txt");
    std::fs::write(&path, corrupted).expect("write corrupted golden");
    let out = ladm_perf(&[
        "--workload",
        "suite-ladm",
        "--scale",
        "test",
        "--seconds",
        "0",
        "--golden",
        path.to_str().expect("utf-8 path"),
    ]);
    assert!(!out.status.success(), "a mismatch must exit non-zero");
    let v = result(&out);
    assert_eq!(count(&v, "failed"), 1.0);
    assert_eq!(count(&v, "attempted"), 27.0);
    assert_eq!(v.get("correct"), Some(&Json::Bool(false)));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("FAILED LADM VecAdd"), "{stderr}");
}

#[test]
fn bad_arguments_exit_2_with_a_message() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--workload", "suite-ladm", "--frobnicate"],
        &["--workload", "suite-ladm", "--seed", "x"],
        &[],
    ] {
        let out = ladm_perf(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: ladm-perf"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
