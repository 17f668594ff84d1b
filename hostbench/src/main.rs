//! Host benchmark of the real training engine and server.
//!
//! ```text
//! hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `train_hep_hybrid` and `train_climate_semi` (see
//! `README.md` beside this crate). With `--trace 0` the run prints the
//! end-to-end metrics; with `--trace 1` it prints the per-layer metrics.
//! Either way the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod inputs;
mod layers;
mod report;
mod serve;
mod stats;
mod train;

use inputs::Seeds;
use report::{per_layer_specs, Report, END_TO_END};
use std::process::ExitCode;
use train::TrainSpec;

/// The workloads, by name.
const WORKLOADS: [(&str, &TrainSpec); 2] = [
    ("train_hep_hybrid", &train::HYBRID),
    ("train_climate_semi", &train::CLIMATE),
];

struct Args {
    workload: &'static str,
    spec: &'static TrainSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let &(workload, spec) = WORKLOADS
        .iter()
        .find(|(name, _)| *name == workload)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            format!("unknown workload {workload}; expected one of {names:?}")
        })?;
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        spec,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Traced run: the workload's own traced pass, then direct measurements
/// of the layers it does not exercise, so every per-layer metric is
/// measured in every traced run. A metric keeps the first value recorded
/// under its name, so a probe never replaces the workload's own.
fn per_layer(spec: &TrainSpec, seeds: &Seeds, seconds: f64) -> Report {
    let mut rep = Report::default();
    train::run_traced(spec, seeds, seconds, &mut rep);
    train::probe_hep(seeds, &mut rep);
    layers::gemm_ceiling(seeds, train::hep_layers_batch(spec), &mut rep.metrics);
    layers::climate_profile(seeds, &mut rep.metrics);
    if rep.metrics.missing_any(&["nn.fwd_bwd", "data."]) {
        layers::climate_probe(seeds, &mut rep.metrics);
    }
    serve::probe(seeds, &mut rep);
    rep
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let seeds = Seeds::new(args.seed);
    eprintln!(
        "hostbench: {} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    if args.trace {
        per_layer(args.spec, &seeds, args.seconds).print(&per_layer_specs());
    } else {
        let rep = train::run(args.spec, &seeds, args.seconds);
        let expected: Vec<(String, &'static str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        rep.print(&expected);
    }
    ExitCode::SUCCESS
}
