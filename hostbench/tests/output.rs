//! Self-tests of the printed output: every registry metric appears by
//! name and with its unit in both modes, the table names each metric the
//! way the workload's users know it, and `BENCHMARK.json` lists exactly
//! what the binary prints.

#[path = "../src/report.rs"]
#[allow(dead_code)]
mod report;

use report::{per_layer_specs, END_TO_END};
use std::process::Command;

const WORKLOADS: [&str; 2] = ["train_hep_hybrid", "train_climate_semi"];

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hostbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
        ])
        .output()
        .expect("run hostbench");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The last line is the JSON result: correct, and naming every expected
/// metric once with a numeric value and its unit.
fn assert_result(workload: &str, stdout: &str, expected: &[(String, &str)]) {
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload}: {stdout}"
    );
    for (name, unit) in expected {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&key)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        let (value, tail) = last[at + key.len()..]
            .split_once(", \"unit\": ")
            .expect("unit follows value");
        assert!(value.parse::<f64>().is_ok(), "{workload}: {name} = {value}");
        assert!(
            tail.starts_with(&format!("\"{unit}\"}}")),
            "{workload}: {name} unit"
        );
    }
    assert_eq!(
        last.matches("\"unit\"").count(),
        expected.len(),
        "{workload}: extra metrics"
    );
}

#[test]
fn end_to_end_output_names_every_metric_with_its_unit() {
    let expected: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for w in WORKLOADS {
        let out = run(w, 0);
        assert_result(w, &out, &expected);
        for a in ["train_img_per_s", "iter_ms_p50", "iter_ms_p90"] {
            assert!(
                out.contains(&format!("({a})")),
                "{w}: table does not name {a}"
            );
        }
        assert!(out.contains("setup_s") && out.contains("peak_rss_mb"));
    }
}

#[test]
fn per_layer_output_names_every_metric_with_its_unit() {
    let expected = per_layer_specs();
    for w in WORKLOADS {
        assert_result(w, &run(w, 1), &expected);
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "train_hep_hybrid", "--trace", "2"],
        &["--workload", "train_hep_wide"],
        &["--seed"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hostbench"))
            .args(args)
            .output()
            .expect("run hostbench");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn benchmark_json_lists_what_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let e2e_at = json.find("\"end_to_end\"").expect("end_to_end section");
    let layer_at = json.find("\"per_layer\"").expect("per_layer section");
    let (e2e, layers) = if e2e_at < layer_at {
        (&json[e2e_at..layer_at], &json[layer_at..])
    } else {
        (&json[e2e_at..], &json[layer_at..e2e_at])
    };
    for (name, unit) in END_TO_END {
        assert!(
            e2e.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name}"
        );
    }
    assert_eq!(e2e.matches("\"name\"").count(), END_TO_END.len());
    let specs = per_layer_specs();
    for (name, unit) in &specs {
        assert!(
            layers.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name}"
        );
    }
    assert_eq!(layers.matches("\"name\"").count(), specs.len());
    let listed: Vec<&str> = json
        .split("{\"name\": \"")
        .filter_map(|s| s.split_once("\", \"why\": ").map(|(name, _)| name))
        .collect();
    assert!(listed.len() >= 2, "{listed:?}");
    for w in listed {
        assert!(
            WORKLOADS.contains(&w),
            "BENCHMARK.json lists unknown workload {w}"
        );
    }
}

#[test]
fn registry_covers_every_named_metric() {
    let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    names.extend(report::ALIASES.iter().map(|a| a.1.to_string()));
    names.extend(per_layer_specs().into_iter().map(|(n, _)| n));
    let wanted = [
        "train_img_per_s",
        "iter_ms_p50",
        "iter_ms_p90",
        "loss_final",
        "setup_s",
        "peak_rss_mb",
        "tensor.gemm_gflops_per_image",
        "tensor.gemm_gflops_whole_batch",
        "nn.conv1.fwd_ms",
        "nn.fc.bwd_ms",
        "nn.loss_ms",
        "nn.flat_grads_ms",
        "nn.train_gflops",
        "nn.gemm_efficiency",
        "nn.bwd_over_fwd",
        "nn.fwd_bwd_labelled_ms",
        "nn.fwd_bwd_unlabelled_ms",
        "nn.enc1.fwd_ms",
        "nn.dec3.bwd_ms",
        "nn.infer_ms_per_img",
        "data.gather_ms",
        "data.targets_ms",
        "core.step_ms_p50",
        "core.sync_ms_p50",
        "core.step_share",
        "core.step_unexplained_ms",
        "core.phase_explained",
        "comm.allreduce_ms_p50",
        "comm.ps_ms_p50",
        "comm.wire_bytes_per_update",
        "comm.staleness_mean",
        "comm.ps_respawns",
        "serve.submit_us_p50",
        "serve.queue_ms_p50",
        "serve.compute_ms_p50",
        "serve.batch_mean",
        "serve.reply_ms_p50",
        "serve.gen_late_ms_max",
        "serve.served",
        "serve.shed",
        "serve.expired",
        "serve.panics",
        "serve.requeued",
        "serve.worker_lost",
        "trace.overhead_frac",
    ];
    for w in wanted {
        assert!(names.iter().any(|n| n == w), "{w} is not reported");
    }
}
