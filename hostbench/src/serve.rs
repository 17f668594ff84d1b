//! The serving probe: the threaded `Server` answering `hep_small` with
//! one worker and dynamic batching (32 requests or 2 ms), under an
//! installed trace sink. Every traced run makes one short serving run.
//!
//! After a short warm-up, phase 1 is an open loop: Poisson arrivals at a
//! fixed rate, with the generator's lateness behind each due time
//! recorded. Phase 2 is a closed loop that keeps a fixed number of
//! requests outstanding.

use crate::inputs::{self, Requests, Seeds};
use crate::report::{Metrics, Report};
use crate::stats::{mean, median, secs};
use scidl_nn::network::Network;
use scidl_serve::{
    BatchPolicy, Client, InferResult, ModelRegistry, ServeError, Server, ServerConfig,
    ServerReport, ServingModel,
};
use scidl_tensor::TensorRng;
use scidl_trace::{IterRow, TraceSink};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered open-loop rate (requests per second), about 40% of the
/// closed-loop capacity measured on a 2-core x86-64 host.
const RATE: f64 = 2000.0;
/// Requests kept outstanding in the closed loop.
const OUTSTANDING: usize = 64;
/// Distinct request inputs the requests cycle through.
const DISTINCT: usize = 1024;
/// Seconds of closed-loop warm-up, open loop and closed loop.
const WARM_S: f64 = 0.05;
const OPEN_S: f64 = 0.5;
const CLOSED_S: f64 = 1.0;

/// One request's fate.
struct Reply {
    input: usize,
    /// Time inside `Client::submit`.
    submit_s: f64,
    /// Time from `submit` returning to the reply arriving.
    after_submit_s: f64,
    outcome: Result<InferResult, ServeError>,
}

/// Client-side tally of terminal outcomes.
#[derive(Default, Debug)]
struct Tally {
    submitted: u64,
    ok: u64,
    shed: u64,
    expired: u64,
    lost: u64,
    errored: u64,
}

impl Tally {
    fn add(&mut self, r: &Result<InferResult, ServeError>) {
        self.submitted += 1;
        match r {
            Ok(_) => self.ok += 1,
            Err(ServeError::Shed { .. }) => self.shed += 1,
            Err(ServeError::DeadlineExceeded) => self.expired += 1,
            Err(ServeError::WorkerLost) => self.lost += 1,
            Err(_) => self.errored += 1,
        }
    }
}

fn build_model(seeds: &Seeds) -> Network {
    scidl_nn::arch::hep_small(&mut TensorRng::new(seeds.engine))
}

/// Open loop: submit request `i` at `schedule[i]` seconds after the
/// phase starts, whatever the server is doing. Returns the replies and
/// the generator's lateness per request.
fn open_loop(client: &Client, reqs: &Requests, schedule: &[f64]) -> (Vec<Reply>, Vec<f64>) {
    type Pending = (usize, f64, Instant, scidl_serve::ReplyReceiver);
    let (tx, rx) = mpsc::channel::<Pending>();
    let mut lateness = Vec::with_capacity(schedule.len());
    let mut replies = Vec::with_capacity(schedule.len());
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut out = Vec::new();
            for (input, submit_s, submitted, reply) in rx {
                let outcome = reply.recv().unwrap_or(Err(ServeError::WorkerLost));
                let after_submit_s = secs(submitted);
                out.push(Reply {
                    input,
                    submit_s,
                    after_submit_s,
                    outcome,
                });
            }
            out
        });
        let base = Instant::now() + Duration::from_millis(2);
        for (i, &due_s) in schedule.iter().enumerate() {
            let input = reqs.pick(i);
            let x = reqs.inputs[input].clone();
            let due = base + Duration::from_secs_f64(due_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let t = Instant::now();
            lateness.push((t - due).as_secs_f64());
            let sent = client.submit(x);
            let submitted = Instant::now();
            let submit_s = (submitted - t).as_secs_f64();
            match sent {
                Ok(reply) => tx
                    .send((input, submit_s, submitted, reply))
                    .expect("collector alive"),
                Err(e) => replies.push(Reply {
                    input,
                    submit_s,
                    after_submit_s: 0.0,
                    outcome: Err(e),
                }),
            }
        }
        drop(tx);
        replies.extend(collector.join().expect("collector panicked"));
    });
    (replies, lateness)
}

/// Closed loop: keep `OUTSTANDING` requests in flight for `duration`
/// seconds. Returns every reply, the drain after the window included.
fn closed_loop(client: &Client, reqs: &Requests, duration: f64) -> Vec<Reply> {
    let mut inflight: VecDeque<(usize, Instant, f64, scidl_serve::ReplyReceiver)> = VecDeque::new();
    let mut replies = Vec::new();
    let mut next = 0;
    let start = Instant::now();
    let submit = |next: &mut usize, inflight: &mut VecDeque<_>, replies: &mut Vec<Reply>| {
        let input = reqs.pick(*next);
        *next += 1;
        let x = reqs.inputs[input].clone();
        let t = Instant::now();
        let sent = client.submit(x);
        let submit_s = secs(t);
        match sent {
            Ok(rx) => inflight.push_back((input, t, submit_s, rx)),
            Err(e) => replies.push(Reply {
                input,
                submit_s,
                after_submit_s: 0.0,
                outcome: Err(e),
            }),
        }
    };
    for _ in 0..OUTSTANDING {
        submit(&mut next, &mut inflight, &mut replies);
    }
    while let Some((input, t, submit_s, rx)) = inflight.pop_front() {
        let outcome = rx.recv().unwrap_or(Err(ServeError::WorkerLost));
        replies.push(Reply {
            input,
            submit_s,
            after_submit_s: secs(t) - submit_s,
            outcome,
        });
        if secs(start) < duration {
            submit(&mut next, &mut inflight, &mut replies);
        }
    }
    replies
}

/// Everything one serving run observed.
struct ServeRun {
    open: Vec<Reply>,
    lateness: Vec<f64>,
    closed: Vec<Reply>,
    warm: Vec<Reply>,
    report: ServerReport,
    reqs: Requests,
    /// Trace rows of the closed-loop phase.
    closed_rows: Vec<IterRow>,
    dropped: u64,
}

/// Generates the inputs and schedule, starts the server under a trace
/// sink and runs the three phases.
fn drive(seeds: &Seeds) -> ServeRun {
    let reqs = inputs::requests(seeds, DISTINCT, 4096);
    let schedule = inputs::schedule(seeds, RATE, (RATE * OPEN_S).ceil() as usize);
    // The server's workers bind to the installed sink when they start.
    let sink = Arc::new(TraceSink::new());
    scidl_trace::install(Arc::clone(&sink));
    let registry = Arc::new(ModelRegistry::new(ServingModel::new(
        build_model(seeds),
        0,
        seeds.engine,
    )));
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 8192,
        policy: BatchPolicy::dynamic(32, Duration::from_millis(2)),
        ..ServerConfig::default()
    };
    let server = Server::start(registry, cfg);
    let client = server.client();
    let warm = closed_loop(&client, &reqs, WARM_S);
    let (open, lateness) = open_loop(&client, &reqs, &schedule);
    let closed_from = sink.now();
    let closed = closed_loop(&client, &reqs, CLOSED_S);
    drop(client);
    let (_, report) = server.shutdown_with_report();
    scidl_trace::uninstall();
    let closed_rows = sink
        .rows()
        .into_iter()
        .filter(|r| r.kind == "serve" && r.start_s >= closed_from)
        .collect();
    ServeRun {
        open,
        lateness,
        closed,
        warm,
        report,
        reqs,
        closed_rows,
        dropped: sink.dropped(),
    }
}

/// Output checks: exactly-once accounting against the server's report,
/// and every reply's logits against `Network::infer` on the same input.
fn check(seeds: &Seeds, run: &ServeRun, rep: &mut Report) {
    let mut tally = Tally::default();
    for r in run.warm.iter().chain(&run.open).chain(&run.closed) {
        tally.add(&r.outcome);
    }
    let s = &run.report;
    rep.attempted += tally.submitted;
    rep.failed += tally.submitted - tally.ok;
    rep.check(
        s.served == tally.ok
            && s.shed == tally.shed
            && s.expired == tally.expired
            && s.worker_lost == tally.lost,
        || format!("server report {s:?} disagrees with client tally {tally:?}"),
    );
    rep.check(
        s.served + s.shed + s.expired + s.worker_lost + tally.errored == tally.submitted,
        || format!("served+shed+expired+lost+errored != submitted ({s:?}, {tally:?})"),
    );
    let net = build_model(seeds);
    let mut reference: Vec<Option<Vec<f32>>> = vec![None; run.reqs.inputs.len()];
    let (mut worst, mut mismatches) = (0.0f32, 0u64);
    for r in run.warm.iter().chain(&run.open).chain(&run.closed) {
        let Ok(res) = &r.outcome else { continue };
        let want = reference[r.input]
            .get_or_insert_with(|| net.infer(&run.reqs.inputs[r.input]).data().to_vec());
        let diff = res
            .logits
            .iter()
            .zip(want.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        worst = worst.max(if res.logits.len() == want.len() {
            diff
        } else {
            f32::INFINITY
        });
        if scidl_tensor::ops::argmax(&res.logits) != scidl_tensor::ops::argmax(want) {
            mismatches += 1;
        }
    }
    rep.check(mismatches == 0, || {
        format!("{mismatches} replies with a different argmax than Network::infer")
    });
    rep.check(worst <= 1e-4, || {
        format!("max |logit - Network::infer| = {worst}")
    });
}

/// The answered requests among `replies`.
fn served(replies: &[Reply]) -> impl Iterator<Item = (&Reply, &InferResult)> {
    replies
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok().map(|x| (r, x)))
}

/// Per-layer serving metrics from a traced run: submit, queue and reply
/// from the open loop; compute and batch size from the closed loop.
fn record(run: &ServeRun, m: &mut Metrics) {
    let ms = |xs: &[f64]| median(xs) * 1e3;
    let submit: Vec<f64> = run.open.iter().map(|r| r.submit_s).collect();
    let queue: Vec<f64> = served(&run.open)
        .map(|(_, x)| x.queue_wait.as_secs_f64())
        .collect();
    let reply: Vec<f64> = served(&run.open)
        .map(|(r, x)| r.after_submit_s - x.queue_wait.as_secs_f64() - x.compute.as_secs_f64())
        .collect();
    let compute: Vec<f64> = served(&run.closed)
        .map(|(_, x)| x.compute.as_secs_f64())
        .collect();
    let per_img: Vec<f64> = served(&run.closed)
        .map(|(_, x)| x.compute.as_secs_f64() / x.batch_size as f64)
        .collect();
    let batches: Vec<f64> = run.closed_rows.iter().map(|r| r.batch as f64).collect();
    let late = run.lateness.iter().copied().fold(0.0, f64::max);
    m.set(
        "serve.submit_us_p50",
        median(&submit) * 1e6,
        "us",
        submit.len(),
    );
    m.set("serve.queue_ms_p50", ms(&queue), "ms", queue.len());
    m.set("serve.reply_ms_p50", ms(&reply), "ms", reply.len());
    m.set(
        "serve.gen_late_ms_max",
        late * 1e3,
        "ms",
        run.lateness.len(),
    );
    m.set("serve.compute_ms_p50", ms(&compute), "ms", compute.len());
    m.set("nn.infer_ms_per_img", ms(&per_img), "ms", per_img.len());
    m.set(
        "serve.batch_mean",
        mean(&batches),
        "requests",
        batches.len(),
    );
    let s = &run.report;
    for (name, v) in [
        ("serve.served", s.served),
        ("serve.shed", s.shed),
        ("serve.expired", s.expired),
        ("serve.panics", s.panics),
        ("serve.requeued", s.requeued),
        ("serve.worker_lost", s.worker_lost),
    ] {
        m.set(name, v as f64, "count", 1);
    }
}

/// Fills the serving metrics of a traced run from a short traced
/// serving run.
pub fn probe(seeds: &Seeds, rep: &mut Report) {
    let run = drive(seeds);
    check(seeds, &run, rep);
    rep.check(run.dropped == 0, || {
        format!("trace sink dropped {} serving events", run.dropped)
    });
    record(&run, &mut rep.metrics);
}
