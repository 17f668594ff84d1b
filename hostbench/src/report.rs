//! Metric registry and output. The names and units here are the ones
//! `BENCHMARK.json` lists; the self-tests keep the two in step.

/// `hep_small`'s layers, in order.
pub const HEP_LAYERS: [&str; 10] = [
    "conv1", "relu1", "pool1", "conv2", "relu2", "pool2", "conv3", "relu3", "gap", "fc",
];

/// `ClimateNet::small`'s encoder then decoder layers, in order.
pub const CLIMATE_LAYERS: [&str; 11] = [
    "enc1",
    "enc_relu1",
    "enc2",
    "enc_relu2",
    "enc3",
    "enc_relu3",
    "dec1",
    "dec_relu1",
    "dec2",
    "dec_relu2",
    "dec3",
];

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("loss_final", "loss"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The name each end-to-end metric goes by on a training workload.
pub const ALIASES: [(&str, &str); 3] = [
    ("throughput_per_s", "train_img_per_s"),
    ("latency_p50_ms", "iter_ms_p50"),
    ("latency_tail_ms", "iter_ms_p90"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
pub fn per_layer_specs() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("tensor.gemm_gflops_per_image".into(), "GF/s"),
        ("tensor.gemm_gflops_whole_batch".into(), "GF/s"),
    ];
    for l in HEP_LAYERS {
        v.push((format!("nn.{l}.fwd_ms"), "ms"));
        v.push((format!("nn.{l}.bwd_ms"), "ms"));
    }
    let fixed: [(&str, &'static str); 7] = [
        ("nn.loss_ms", "ms"),
        ("nn.flat_grads_ms", "ms"),
        ("nn.train_gflops", "GF/s"),
        ("nn.gemm_efficiency", "ratio"),
        ("nn.bwd_over_fwd", "ratio"),
        ("nn.fwd_bwd_labelled_ms", "ms"),
        ("nn.fwd_bwd_unlabelled_ms", "ms"),
    ];
    v.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    for l in CLIMATE_LAYERS {
        v.push((format!("nn.{l}.fwd_ms"), "ms"));
        v.push((format!("nn.{l}.bwd_ms"), "ms"));
    }
    let rest: [(&str, &'static str); 27] = [
        ("nn.infer_ms_per_img", "ms"),
        ("data.gather_ms", "ms"),
        ("data.targets_ms", "ms"),
        ("core.step_ms_p50", "ms"),
        ("core.sync_ms_p50", "ms"),
        ("core.step_share", "ratio"),
        ("core.step_unexplained_ms", "ms"),
        ("core.step_explained", "ratio"),
        ("core.phase_explained", "ratio"),
        ("comm.allreduce_ms_p50", "ms"),
        ("comm.ps_ms_p50", "ms"),
        ("comm.wire_bytes_per_update", "B"),
        ("comm.staleness_mean", "updates"),
        ("comm.ps_respawns", "count"),
        ("serve.submit_us_p50", "us"),
        ("serve.queue_ms_p50", "ms"),
        ("serve.compute_ms_p50", "ms"),
        ("serve.batch_mean", "requests"),
        ("serve.reply_ms_p50", "ms"),
        ("serve.gen_late_ms_max", "ms"),
        ("serve.served", "count"),
        ("serve.shed", "count"),
        ("serve.expired", "count"),
        ("serve.panics", "count"),
        ("serve.requeued", "count"),
        ("serve.worker_lost", "count"),
        ("trace.overhead_frac", "ratio"),
    ];
    v.extend(rest.iter().map(|&(n, u)| (n.to_string(), u)));
    v
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Registry name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit from the registry.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or count).
    pub samples: usize,
}

/// Metrics collected by one run. The first value recorded under a name
/// wins, so a workload's own measurement is never replaced by a probe's.
#[derive(Default)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    /// Records `name` unless it is already set.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        if !self.has(name) {
            self.items.push(Metric {
                name: name.to_string(),
                value,
                unit,
                samples,
            });
        }
    }

    /// Whether `name` is set.
    pub fn has(&self, name: &str) -> bool {
        self.items.iter().any(|m| m.name == name)
    }

    /// Value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.items.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Whether any registry name starting with one of `prefixes` is unset.
    pub fn missing_any(&self, prefixes: &[&str]) -> bool {
        per_layer_specs()
            .iter()
            .any(|(n, _)| prefixes.iter().any(|p| n.starts_with(p)) && !self.has(n))
    }
}

/// Outcome of one benchmark run.
#[derive(Default)]
pub struct Report {
    /// Measured values.
    pub metrics: Metrics,
    /// Operations attempted (updates expected, requests submitted).
    pub attempted: u64,
    /// Operations that did not complete.
    pub failed: u64,
    /// Failed output checks.
    pub problems: Vec<String>,
}

impl Report {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Prints a human-readable table, then the one-line JSON result as
    /// the last line of standard output. `expected` is the registry for
    /// the run's mode; any name it lists that was not measured is an
    /// error.
    pub fn print(mut self, expected: &[(String, &'static str)]) {
        let mut ordered = Vec::with_capacity(expected.len());
        for (name, unit) in expected {
            match self.metrics.items.iter().find(|m| &m.name == name) {
                Some(m) if m.unit == *unit => ordered.push(m.clone()),
                Some(m) => self
                    .problems
                    .push(format!("{name}: unit {} not {unit}", m.unit)),
                None => self.problems.push(format!("{name}: not measured")),
            }
        }
        for m in &ordered {
            if m.value.is_nan() {
                self.problems.push(format!("{}: not a number", m.name));
            }
        }
        let correct = self.problems.is_empty();
        for m in &ordered {
            let alias = ALIASES
                .iter()
                .find(|a| a.0 == m.name)
                .map_or(String::new(), |a| format!("  ({})", a.1));
            println!(
                "{:<32} {:>16.6} {:<9} n={}{}",
                m.name, m.value, m.unit, m.samples, alias
            );
        }
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        println!(
            "attempted={} failed={} correct={}",
            self.attempted, self.failed, correct
        );
        let body: Vec<String> = ordered
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives. `+inf` (a latency percentile that fell on a failed request)
/// prints as the largest finite double; NaN was already reported.
fn json_number(v: f64) -> String {
    if v.is_nan() {
        "-1".to_string()
    } else if v == f64::INFINITY {
        format!("{:e}", f64::MAX)
    } else if v == f64::NEG_INFINITY {
        format!("{:e}", f64::MIN)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer_specs().into_iter().map(|(n, _)| n));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.203456789), "1.203456789");
        assert_eq!(json_number(3.0), "3");
        assert!(json_number(f64::INFINITY)
            .parse::<f64>()
            .unwrap()
            .is_finite());
    }
}
