//! Fleet-scale serving: a replicated router in front of N per-replica
//! [`Server`]s, with pluggable dispatch, fleet-level priority admission,
//! an SLO-driven autoscaler and zero-downtime canary rollouts.
//!
//! PR 6 built the single-replica resilience primitives (supervised
//! worker pool, deadline admission, guarded hot-swap, chaos injection).
//! This module composes N of those replicas behind a [`Router`]:
//!
//! * **Dispatch** — [`DispatchPolicy`]: round-robin, least-loaded, or
//!   power-of-two-choices over queue depth. Under skewed load (one slow
//!   replica) p2c avoids the hot replica with two cheap depth probes,
//!   beating round-robin's p99 — the property the `scidl-bench serving
//!   --fleet` acceptance check pins.
//! * **Admission** — [`PriorityAdmission`] layers fleet-wide priority
//!   classes on top of each replica's shed watermark: lower-priority
//!   classes shed at a smaller fraction of aggregate fleet headroom, so
//!   interactive traffic survives overload that drops batch traffic.
//! * **Autoscaling** — [`AutoscalerConfig`] sizes the fleet from the
//!   observed arrival rate and windowed p99 against the calibrated KNL
//!   cost model's per-replica sustainable rate, stepping ±1 replica per
//!   [`Router::autoscale_tick`]. Scale-down drains the victim replica
//!   (its in-flight work completes) — zero downtime.
//! * **Canary** — [`Router::begin_canary`] routes a seeded fraction of
//!   traffic to a candidate model on a dedicated replica, then
//!   [`Router::resolve_canary`] auto-promotes (p99 within tolerance of
//!   the live model) or auto-rolls-back. Rollbacks charge the model
//!   registry's circuit breaker; an open breaker refuses new canaries.
//! * **Fault routing** — a [`FaultPlan`] with *global* worker indices is
//!   sliced per replica ([`FaultPlan::for_replica`]); when a replica
//!   loses its whole pool the router reroutes in-flight work to a
//!   sibling instead of losing it (budgeted by
//!   [`FleetConfig::reroute_budget`]).
//!
//! Every semantic is mirrored bit-deterministically in the virtual-time
//! simulator ([`simulate_fleet`] / [`FleetSimConfig`]), which the fleet
//! frontier benchmark and the differential integration tests drive from
//! the same seed and fault plan as the threaded router.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use crate::registry::{ModelRegistry, ServingModel, SwapError};
use crate::server::{
    xorshift64, Client, InferResult, ServeError, Server, ServerConfig, ServerReport,
};
use crate::sim::{ServiceModel, SimConfig};
use scidl_cluster::faults::FaultPlan;
use scidl_core::metrics::LatencyRecorder;
use scidl_tensor::stats::percentile;
use scidl_tensor::Tensor;
use scidl_trace::{EventKind, TraceHandle};

// ---------------------------------------------------------------------------
// Seeded routing randomness (shared by the threaded router and the sim).
// ---------------------------------------------------------------------------

const SALT_PRIORITY: u64 = 0x9E37_79B9_7F4A_7C15;
const SALT_CANARY: u64 = 0xD1B5_4A32_D192_ED03;
const SALT_P2C_A: u64 = 0xA076_1D64_78BD_642F;
const SALT_P2C_B: u64 = 0xE703_7ED1_A0B4_28DB;

/// Deterministic uniform draw in `[0, 1)` from `(seed, salt, ordinal)`.
/// Both the threaded router and the simulator route request `ordinal`
/// through this, so a shared seed yields identical routing decisions.
fn rand01(seed: u64, salt: u64, ordinal: u64) -> f64 {
    let mut x = seed
        .wrapping_mul(0x2545_F491_4F6C_DD1D)
        ^ salt
        ^ ordinal.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    if x == 0 {
        x = salt | 1;
    }
    x = xorshift64(xorshift64(xorshift64(x)));
    (x >> 11) as f64 / (1u64 << 53) as f64
}

// ---------------------------------------------------------------------------
// Policy / configuration types.
// ---------------------------------------------------------------------------

/// How the router picks a replica for an admitted request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Cycle through live replicas in order, ignoring load.
    RoundRobin,
    /// Scan every live replica and pick the shallowest queue
    /// (ties break toward the lowest replica id).
    LeastLoaded,
    /// Sample two replicas with the seeded RNG and pick the shallower —
    /// near-least-loaded balance at O(1) probe cost.
    PowerOfTwoChoices,
}

impl DispatchPolicy {
    /// Stable name used in traces and benchmark CSV rows.
    pub fn name(&self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::LeastLoaded => "least-loaded",
            DispatchPolicy::PowerOfTwoChoices => "p2c",
        }
    }
}

/// Fleet-level request priority class. Lower classes shed earlier under
/// overload (see [`PriorityAdmission`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Priority {
    /// User-facing traffic: sheds only when the whole fleet is full.
    Interactive,
    /// Default class.
    Standard,
    /// Offline / bulk traffic: first to shed.
    Batch,
}

impl Priority {
    /// Index into per-class arrays (`Interactive = 0 … Batch = 2`).
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Standard => 1,
            Priority::Batch => 2,
        }
    }
}

/// Fleet-wide admission thresholds by priority class.
///
/// A class-`p` request is shed when the aggregate fleet backlog has
/// reached `shed_frac[p]` of the fleet's total shed headroom
/// (`live_replicas × per-replica watermark`). `shed_frac[0] = 1.0`
/// means interactive traffic only sheds when every replica is at its
/// own watermark.
#[derive(Clone, Copy, Debug)]
pub struct PriorityAdmission {
    /// Backlog fraction, per [`Priority::index`], at which the class
    /// sheds. Each entry must be in `(0, 1]`.
    pub shed_frac: [f64; 3],
}

impl Default for PriorityAdmission {
    fn default() -> Self {
        Self { shed_frac: [1.0, 0.7, 0.45] }
    }
}

/// SLO-driven fleet sizing for the threaded [`Router`].
///
/// The router cannot see virtual time, so the calibrated per-replica
/// sustainable rate is supplied explicitly (from
/// [`ServiceModel::saturated_rate`] × workers per replica).
#[derive(Clone, Copy, Debug)]
pub struct AutoscalerConfig {
    /// Lower bound on live replicas.
    pub min_replicas: usize,
    /// Upper bound on live replicas.
    pub max_replicas: usize,
    /// Target utilisation of the per-replica sustainable rate; desired
    /// size is `ceil(rate / (replica_rate × target_util))`.
    pub target_util: f64,
    /// Windowed p99 above this forces at least one scale-up step.
    pub slo_p99_secs: f64,
    /// Scale-down only when the fleet backlog is at most this many
    /// requests per live replica (don't shrink into a backlog).
    pub scale_down_backlog: usize,
    /// Requests/s one replica sustains, from the calibrated cost model.
    pub replica_rate: f64,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        Self {
            min_replicas: 1,
            max_replicas: 8,
            target_util: 0.7,
            slo_p99_secs: 0.2,
            scale_down_backlog: 2,
            replica_rate: 100.0,
        }
    }
}

/// Canary rollout tuning.
#[derive(Clone, Copy, Debug)]
pub struct CanaryConfig {
    /// Fraction of admitted traffic routed to the canary replica.
    pub fraction: f64,
    /// Promote iff `canary_p99 ≤ base_p99 × (1 + regression_tol)`.
    pub regression_tol: f64,
    /// Minimum completed samples on *both* arms before a decision.
    pub min_samples: usize,
}

impl Default for CanaryConfig {
    fn default() -> Self {
        Self { fraction: 0.2, regression_tol: 0.25, min_samples: 20 }
    }
}

/// Outcome of [`Router::resolve_canary`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CanaryDecision {
    /// The candidate met the SLO bar and was published fleet-wide.
    Promoted,
    /// The candidate regressed p99; it was retired and the failure was
    /// charged to the registry's circuit breaker.
    RolledBack,
    /// Not enough samples yet (or no canary in flight); keep serving.
    Pending,
    /// The candidate passed, but the breaker opened during the rollout;
    /// the canary was retired without publishing.
    BreakerOpen,
}

/// Fleet configuration: a per-replica [`ServerConfig`] template plus
/// fleet-level routing, admission, scaling and chaos knobs.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Initial replica count.
    pub replicas: usize,
    /// Template for every replica. Its `faults` field is ignored: the
    /// fleet-level [`FleetConfig::faults`] plan (global worker indices)
    /// is sliced per replica instead.
    pub replica: ServerConfig,
    /// Dispatch policy.
    pub dispatch: DispatchPolicy,
    /// Seed for the routing RNG (p2c probes, canary traffic split).
    pub seed: u64,
    /// Fleet-level priority admission thresholds.
    pub admission: PriorityAdmission,
    /// How many times a request that lost its replica (pool death) is
    /// rerouted to a sibling before the error surfaces to the caller.
    pub reroute_budget: u32,
    /// Autoscaler tuning, applied on explicit [`Router::autoscale_tick`]
    /// calls.
    pub autoscaler: AutoscalerConfig,
    /// Chaos plan with *global* worker indices: replica `r` owns workers
    /// `[r·w, (r+1)·w)` where `w` is the template worker count.
    pub faults: FaultPlan,
}

impl FleetConfig {
    /// A fleet of `replicas` copies of `replica` with default admission,
    /// autoscaling and no chaos.
    pub fn new(replicas: usize, replica: ServerConfig, dispatch: DispatchPolicy) -> Self {
        Self {
            replicas,
            replica,
            dispatch,
            seed: 0,
            admission: PriorityAdmission::default(),
            reroute_budget: 1,
            autoscaler: AutoscalerConfig::default(),
            faults: FaultPlan::none(),
        }
    }
}

/// What the fleet machinery did over the router's lifetime.
#[derive(Clone, Debug, Default)]
pub struct FleetReport {
    /// Requests the router dispatched to a replica.
    pub routed: u64,
    /// Requests shed by fleet-level priority admission, per class.
    pub fleet_shed: [u64; 3],
    /// Reroutes after a replica lost the request (pool death).
    pub rerouted: u64,
    /// Replicas retired after losing their pool.
    pub replicas_lost: u64,
    /// Autoscaler scale-up steps.
    pub scale_ups: u64,
    /// Autoscaler scale-down steps.
    pub scale_downs: u64,
    /// Whether a canary was promoted.
    pub canary_promoted: bool,
    /// Whether a canary was rolled back.
    pub canary_rolled_back: bool,
    /// Live (non-canary) replicas at shutdown.
    pub final_replicas: usize,
    /// Aggregated per-replica resilience counters (live + retired).
    pub servers: ServerReport,
}

fn merge_reports(into: &mut ServerReport, r: &ServerReport) {
    into.served += r.served;
    into.shed += r.shed;
    into.expired += r.expired;
    into.panics += r.panics;
    into.respawns += r.respawns;
    into.replacements += r.replacements;
    into.requeued += r.requeued;
    into.worker_lost += r.worker_lost;
}

// ---------------------------------------------------------------------------
// The threaded router.
// ---------------------------------------------------------------------------

struct Slot {
    id: usize,
    server: Server,
    client: Client,
    canary: bool,
}

struct CanaryState {
    registry: Arc<ModelRegistry>,
    cfg: CanaryConfig,
    slot_id: usize,
    base_lat: Vec<f64>,
    canary_lat: Vec<f64>,
}

struct Window {
    arrivals: u64,
    since: Instant,
    samples: Vec<f64>,
}

#[derive(Default)]
struct Retired {
    recorder: LatencyRecorder,
    reports: Vec<ServerReport>,
}

#[derive(Default)]
struct Flags {
    canary_promoted: bool,
    canary_rolled_back: bool,
}

/// Replicated serving front end: owns N replica [`Server`]s and routes
/// every request through fleet admission, the canary split and the
/// configured dispatch policy. All methods take `&self`; the router is
/// shared across client threads behind an `Arc`.
pub struct Router {
    registry: Arc<ModelRegistry>,
    cfg: FleetConfig,
    slots: RwLock<Vec<Slot>>,
    next_id: AtomicUsize,
    rr: AtomicUsize,
    ordinal: AtomicU64,
    routed: AtomicU64,
    fleet_shed: [AtomicU64; 3],
    rerouted: AtomicU64,
    replicas_lost: AtomicU64,
    scale_ups: AtomicU64,
    scale_downs: AtomicU64,
    flags: Mutex<Flags>,
    window: Mutex<Window>,
    canary: Mutex<Option<CanaryState>>,
    retired: Mutex<Retired>,
    tr: TraceHandle,
}

fn spawn_slot(
    registry: &Arc<ModelRegistry>,
    template: &ServerConfig,
    id: usize,
    faults: FaultPlan,
    canary: bool,
) -> Slot {
    let mut cfg = template.clone();
    cfg.faults = faults;
    let server = Server::start(Arc::clone(registry), cfg);
    let client = server.client();
    Slot { id, server, client, canary }
}

impl Router {
    /// Starts `cfg.replicas` replica servers against `registry` and
    /// returns the router.
    pub fn start(registry: Arc<ModelRegistry>, cfg: FleetConfig) -> Self {
        assert!(cfg.replicas >= 1, "fleet needs at least one replica");
        assert!(
            cfg.admission.shed_frac.iter().all(|&f| f > 0.0 && f <= 1.0),
            "admission shed fractions must be in (0, 1]"
        );
        let wpr = cfg.replica.workers;
        let slots: Vec<Slot> = (0..cfg.replicas)
            .map(|id| {
                spawn_slot(&registry, &cfg.replica, id, cfg.faults.for_replica(id, wpr), false)
            })
            .collect();
        Self {
            registry,
            next_id: AtomicUsize::new(cfg.replicas),
            cfg,
            slots: RwLock::new(slots),
            rr: AtomicUsize::new(0),
            ordinal: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            fleet_shed: Default::default(),
            rerouted: AtomicU64::new(0),
            replicas_lost: AtomicU64::new(0),
            scale_ups: AtomicU64::new(0),
            scale_downs: AtomicU64::new(0),
            flags: Mutex::new(Flags::default()),
            window: Mutex::new(Window {
                arrivals: 0,
                since: Instant::now(),
                samples: Vec::new(),
            }),
            canary: Mutex::new(None),
            retired: Mutex::new(Retired::default()),
            tr: TraceHandle::begin("fleet"),
        }
    }

    /// Live non-canary replicas.
    pub fn live_replicas(&self) -> usize {
        self.slots.read().unwrap().iter().filter(|s| !s.canary).count()
    }

    /// Aggregate queued requests across live non-canary replicas.
    pub fn fleet_depth(&self) -> usize {
        self.slots
            .read()
            .unwrap()
            .iter()
            .filter(|s| !s.canary)
            .map(|s| s.server.queue_depth())
            .sum()
    }

    fn per_replica_watermark(&self) -> usize {
        self.cfg
            .replica
            .shed_watermark
            .unwrap_or(self.cfg.replica.queue_capacity)
            .min(self.cfg.replica.queue_capacity)
    }

    /// [`Router::infer_with_priority`] at [`Priority::Standard`] with no
    /// deadline.
    pub fn infer(&self, input: Tensor) -> Result<InferResult, ServeError> {
        self.infer_with_priority(input, Priority::Standard, None)
    }

    /// Routes one request through fleet admission, the canary split and
    /// the dispatch policy; a replica that dies holding the request is
    /// retired and the request rerouted within
    /// [`FleetConfig::reroute_budget`].
    pub fn infer_with_priority(
        &self,
        input: Tensor,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<InferResult, ServeError> {
        let ordinal = self.ordinal.fetch_add(1, Ordering::Relaxed);
        {
            let mut w = self.window.lock().unwrap();
            w.arrivals += 1;
        }
        // Fleet-level priority admission against aggregate headroom.
        let p = priority.index();
        let backlog = self.fleet_depth();
        let live = self.live_replicas().max(1);
        let headroom = (live * self.per_replica_watermark()) as f64;
        if backlog as f64 >= self.cfg.admission.shed_frac[p] * headroom {
            self.fleet_shed[p].fetch_add(1, Ordering::Relaxed);
            let bpd = self.cfg.replica.policy.max_batch.max(1);
            let hint = self
                .cfg
                .replica
                .policy
                .max_delay
                .max(Duration::from_millis(1))
                .saturating_mul((backlog / bpd) as u32 + 1);
            return Err(ServeError::Shed { depth: backlog, retry_after: hint });
        }
        // Seeded canary traffic split.
        let canary_slot = {
            let c = self.canary.lock().unwrap();
            c.as_ref().and_then(|st| {
                (rand01(self.cfg.seed, SALT_CANARY, ordinal) < st.cfg.fraction)
                    .then_some(st.slot_id)
            })
        };
        let start = Instant::now();
        let mut avoid: Option<usize> = None;
        let mut attempt: u32 = 0;
        loop {
            let remaining = match deadline {
                Some(d) => {
                    let left = d.saturating_sub(start.elapsed());
                    if left.is_zero() {
                        return Err(ServeError::DeadlineExceeded);
                    }
                    Some(left)
                }
                None => None,
            };
            let picked = self.pick(ordinal, canary_slot.filter(|_| attempt == 0), avoid);
            let (rid, depth, client, is_canary) = match picked {
                Some(t) => t,
                None => return Err(ServeError::Closed),
            };
            if self.tr.enabled() {
                self.tr.instant(rid as u64, EventKind::Route {
                    replica: rid as u64,
                    depth: depth as u64,
                    policy: if is_canary { "canary" } else { self.cfg.dispatch.name() },
                });
            }
            match client.infer_with_deadline(input.clone(), remaining) {
                Ok(r) => {
                    self.routed.fetch_add(1, Ordering::Relaxed);
                    let lat = r.queue_wait.as_secs_f64() + r.compute.as_secs_f64();
                    self.window.lock().unwrap().samples.push(lat);
                    let mut c = self.canary.lock().unwrap();
                    if let Some(st) = c.as_mut() {
                        if is_canary {
                            st.canary_lat.push(lat);
                        } else {
                            st.base_lat.push(lat);
                        }
                    }
                    return Ok(r);
                }
                Err(e @ (ServeError::WorkerLost | ServeError::Closed)) => {
                    if matches!(e, ServeError::Closed) {
                        // The replica's pool is gone: retire it so no
                        // future request routes there.
                        self.retire_slot(rid, true);
                    }
                    if attempt >= self.cfg.reroute_budget {
                        return Err(e);
                    }
                    attempt += 1;
                    avoid = Some(rid);
                    self.rerouted.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Picks `(replica id, depth, client, is_canary)` under the read
    /// lock, then drops the lock so the blocking infer call cannot
    /// deadlock scale operations.
    fn pick(
        &self,
        ordinal: u64,
        canary_slot: Option<usize>,
        avoid: Option<usize>,
    ) -> Option<(usize, usize, Client, bool)> {
        let slots = self.slots.read().unwrap();
        if let Some(cid) = canary_slot {
            if let Some(s) = slots.iter().find(|s| s.id == cid && s.canary) {
                return Some((s.id, s.server.queue_depth(), s.client.clone(), true));
            }
        }
        let live: Vec<&Slot> = slots
            .iter()
            .filter(|s| !s.canary && Some(s.id) != avoid)
            .collect();
        let live = if live.is_empty() {
            // Only the avoided replica remains: better to retry it than
            // to fail outright.
            slots.iter().filter(|s| !s.canary).collect::<Vec<_>>()
        } else {
            live
        };
        if live.is_empty() {
            return None;
        }
        let n = live.len();
        let s = match self.cfg.dispatch {
            DispatchPolicy::RoundRobin => live[self.rr.fetch_add(1, Ordering::Relaxed) % n],
            DispatchPolicy::LeastLoaded => live
                .iter()
                .map(|s| (s.server.queue_depth(), s.id, *s))
                .min_by_key(|(d, id, _)| (*d, *id))
                .map(|(_, _, s)| s)
                .unwrap(),
            DispatchPolicy::PowerOfTwoChoices => {
                let i = ((rand01(self.cfg.seed, SALT_P2C_A, ordinal) * n as f64) as usize)
                    .min(n - 1);
                let j = ((rand01(self.cfg.seed, SALT_P2C_B, ordinal) * n as f64) as usize)
                    .min(n - 1);
                let (a, b) = (live[i], live[j]);
                if b.server.queue_depth() < a.server.queue_depth() { b } else { a }
            }
        };
        Some((s.id, s.server.queue_depth(), s.client.clone(), false))
    }

    /// Removes slot `id` (if still present), drains it and merges its
    /// latency recorder and report into the retired pool.
    fn retire_slot(&self, id: usize, lost: bool) {
        let slot = {
            let mut slots = self.slots.write().unwrap();
            match slots.iter().position(|s| s.id == id) {
                Some(i) => slots.remove(i),
                None => return,
            }
        };
        if lost {
            self.replicas_lost.fetch_add(1, Ordering::Relaxed);
            if self.tr.enabled() {
                self.tr.instant(id as u64, EventKind::ScaleDown {
                    replicas: self.live_replicas() as u64,
                    backlog: self.fleet_depth() as u64,
                });
            }
        }
        let (rec, rep) = slot.server.shutdown_with_report();
        let mut retired = self.retired.lock().unwrap();
        retired.recorder.merge(&rec);
        retired.reports.push(rep);
    }

    /// Starts a canary rollout: spawns a dedicated replica serving
    /// `candidate` (behind its own registry) and routes
    /// `cfg.fraction` of admitted traffic to it. Refused with
    /// [`SwapError::BreakerOpen`] while the live registry's breaker is
    /// open.
    ///
    /// # Panics
    /// If a canary is already in flight.
    pub fn begin_canary(
        &self,
        candidate: ServingModel,
        cfg: CanaryConfig,
        canary_faults: FaultPlan,
    ) -> Result<usize, SwapError> {
        if self.registry.breaker_open() {
            return Err(SwapError::BreakerOpen {
                failures: self.registry.consecutive_failures(),
            });
        }
        let mut guard = self.canary.lock().unwrap();
        assert!(guard.is_none(), "a canary rollout is already in flight");
        let registry = Arc::new(ModelRegistry::new(candidate));
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = spawn_slot(&registry, &self.cfg.replica, id, canary_faults, true);
        self.slots.write().unwrap().push(slot);
        if self.tr.enabled() {
            self.tr.instant(id as u64, EventKind::Canary {
                action: "begin",
                replica: id as u64,
                fraction: cfg.fraction,
            });
        }
        *guard = Some(CanaryState {
            registry,
            cfg,
            slot_id: id,
            base_lat: Vec::new(),
            canary_lat: Vec::new(),
        });
        Ok(id)
    }

    /// Decides the in-flight canary: promotes the candidate fleet-wide
    /// (publishing its model through the shared registry and clearing
    /// the breaker streak) when its p99 is within tolerance of the base
    /// arms', rolls it back (charging the breaker) otherwise. Returns
    /// [`CanaryDecision::Pending`] while either arm lacks
    /// [`CanaryConfig::min_samples`].
    pub fn resolve_canary(&self) -> CanaryDecision {
        let state = {
            let mut guard = self.canary.lock().unwrap();
            match guard.as_ref() {
                None => return CanaryDecision::Pending,
                Some(st)
                    if st.base_lat.len() < st.cfg.min_samples
                        || st.canary_lat.len() < st.cfg.min_samples =>
                {
                    return CanaryDecision::Pending;
                }
                Some(_) => guard.take().unwrap(),
            }
        };
        let p99_base = percentile(&state.base_lat, 0.99);
        let p99_canary = percentile(&state.canary_lat, 0.99);
        let pass = p99_canary <= p99_base * (1.0 + state.cfg.regression_tol);
        self.retire_slot(state.slot_id, false);
        let decision = if pass && self.registry.breaker_open() {
            CanaryDecision::BreakerOpen
        } else if pass {
            self.registry.publish(state.registry.current());
            self.registry.record_rollout_success();
            self.flags.lock().unwrap().canary_promoted = true;
            CanaryDecision::Promoted
        } else {
            self.registry.record_rollout_failure("canary_slo");
            self.flags.lock().unwrap().canary_rolled_back = true;
            CanaryDecision::RolledBack
        };
        if self.tr.enabled() {
            self.tr.instant(state.slot_id as u64, EventKind::Canary {
                action: match decision {
                    CanaryDecision::Promoted => "promote",
                    _ => "rollback",
                },
                replica: state.slot_id as u64,
                fraction: state.cfg.fraction,
            });
        }
        decision
    }

    /// One autoscaler step: consumes the observation window (arrival
    /// rate, p99) accumulated since the previous tick, computes the
    /// desired size against [`AutoscalerConfig`], and grows or shrinks
    /// the fleet by at most one replica. Returns the live replica count
    /// after the step.
    pub fn autoscale_tick(&self) -> usize {
        let a = self.cfg.autoscaler;
        let (rate, p99) = {
            let mut w = self.window.lock().unwrap();
            let secs = w.since.elapsed().as_secs_f64().max(1e-9);
            let rate = w.arrivals as f64 / secs;
            let p99 = if w.samples.is_empty() { 0.0 } else { percentile(&w.samples, 0.99) };
            w.arrivals = 0;
            w.samples.clear();
            w.since = Instant::now();
            (rate, p99)
        };
        let live = self.live_replicas();
        let mut desired =
            ((rate / (a.replica_rate * a.target_util)).ceil() as usize).max(1);
        if p99 > a.slo_p99_secs {
            desired = desired.max(live + 1);
        }
        let desired = desired.clamp(a.min_replicas, a.max_replicas);
        let backlog = self.fleet_depth();
        if desired > live {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let wpr = self.cfg.replica.workers;
            let slot = spawn_slot(
                &self.registry,
                &self.cfg.replica,
                id,
                self.cfg.faults.for_replica(id, wpr),
                false,
            );
            self.slots.write().unwrap().push(slot);
            self.scale_ups.fetch_add(1, Ordering::Relaxed);
            if self.tr.enabled() {
                self.tr.instant(id as u64, EventKind::ScaleUp {
                    replicas: (live + 1) as u64,
                    backlog: backlog as u64,
                });
            }
        } else if desired < live && live > a.min_replicas && backlog <= a.scale_down_backlog * live
        {
            // Victim: the shallowest non-canary queue, ties toward the
            // youngest replica.
            let victim = {
                let slots = self.slots.read().unwrap();
                slots
                    .iter()
                    .filter(|s| !s.canary)
                    .map(|s| (s.server.queue_depth(), std::cmp::Reverse(s.id), s.id))
                    .min()
                    .map(|(_, _, id)| id)
            };
            if let Some(id) = victim {
                self.retire_slot(id, false);
                self.scale_downs.fetch_add(1, Ordering::Relaxed);
                if self.tr.enabled() {
                    self.tr.instant(id as u64, EventKind::ScaleDown {
                        replicas: (live - 1) as u64,
                        backlog: backlog as u64,
                    });
                }
            }
        }
        self.live_replicas()
    }

    /// Snapshot of the fleet counters plus aggregated per-replica
    /// reports (live and retired).
    pub fn report(&self) -> FleetReport {
        let mut servers = ServerReport::default();
        for s in self.slots.read().unwrap().iter() {
            merge_reports(&mut servers, &s.server.report());
        }
        for r in &self.retired.lock().unwrap().reports {
            merge_reports(&mut servers, r);
        }
        let flags = self.flags.lock().unwrap();
        FleetReport {
            routed: self.routed.load(Ordering::Relaxed),
            fleet_shed: [
                self.fleet_shed[0].load(Ordering::Relaxed),
                self.fleet_shed[1].load(Ordering::Relaxed),
                self.fleet_shed[2].load(Ordering::Relaxed),
            ],
            rerouted: self.rerouted.load(Ordering::Relaxed),
            replicas_lost: self.replicas_lost.load(Ordering::Relaxed),
            scale_ups: self.scale_ups.load(Ordering::Relaxed),
            scale_downs: self.scale_downs.load(Ordering::Relaxed),
            canary_promoted: flags.canary_promoted,
            canary_rolled_back: flags.canary_rolled_back,
            final_replicas: self.slots.read().unwrap().iter().filter(|s| !s.canary).count(),
            servers,
        }
    }

    /// Drains and shuts down every replica; returns the merged latency
    /// recorder and the final fleet report.
    pub fn shutdown_with_report(self) -> (LatencyRecorder, FleetReport) {
        let mut report = self.report();
        report.final_replicas = self.live_replicas();
        let slots: Vec<Slot> = self.slots.write().unwrap().drain(..).collect();
        let mut retired = self.retired.into_inner().unwrap();
        for s in slots {
            let (rec, rep) = s.server.shutdown_with_report();
            retired.recorder.merge(&rec);
            retired.reports.push(rep);
        }
        let mut servers = ServerReport::default();
        for r in &retired.reports {
            merge_reports(&mut servers, r);
        }
        report.servers = servers;
        (retired.recorder, report)
    }
}

// ---------------------------------------------------------------------------
// Virtual-time fleet simulator.
// ---------------------------------------------------------------------------

/// Autoscaler knobs for the fleet simulator, evaluated at fixed
/// virtual-time ticks.
#[derive(Clone, Copy, Debug)]
pub struct SimAutoscaler {
    /// Lower bound on routable replicas.
    pub min_replicas: usize,
    /// Upper bound on routable replicas.
    pub max_replicas: usize,
    /// Target utilisation of the per-replica saturated rate.
    pub target_util: f64,
    /// Interval between autoscaler evaluations (virtual seconds).
    pub tick_secs: f64,
    /// Delay before a scaled-up replica's workers accept batches.
    pub startup_secs: f64,
    /// Scale-down only when fleet backlog ≤ this per live replica.
    pub scale_down_backlog: usize,
}

impl Default for SimAutoscaler {
    fn default() -> Self {
        Self {
            min_replicas: 1,
            max_replicas: 8,
            target_util: 0.7,
            tick_secs: 0.25,
            startup_secs: 0.05,
            scale_down_backlog: 2,
        }
    }
}

/// Canary rollout knobs for the fleet simulator.
#[derive(Clone, Copy, Debug)]
pub struct SimCanary {
    /// Virtual time the canary replica starts taking traffic.
    pub start_secs: f64,
    /// Virtual time the promote/rollback decision is taken.
    pub decide_secs: f64,
    /// Fraction of admitted traffic routed to the canary.
    pub fraction: f64,
    /// Service-time multiplier of the candidate model (1.0 = identical
    /// cost to the live model; larger = an injected SLO regression).
    pub service_factor: f64,
    /// Promote iff `canary_p99 ≤ base_p99 × (1 + regression_tol)`.
    pub regression_tol: f64,
    /// Iteration stamp of the candidate model (the outcome's
    /// `final_iteration` proves which model ended up serving).
    pub candidate_iteration: u64,
}

/// Fleet-level virtual-time configuration, extending the per-replica
/// [`SimConfig`].
///
/// `base` supplies the per-replica semantics (workers per replica,
/// queue, policy, watermark, deadlines, breaker threshold, re-queue
/// budget). Two `base` fields are reinterpreted at fleet scope:
///
/// * `base.faults` worker indices are **global**: replica `r` owns
///   workers `[r·w, (r+1)·w)` for `w = base.workers`, exactly like the
///   threaded [`FleetConfig::faults`] plan.
/// * `base.swap_schedule` / `base.breaker_resets` are **ignored** —
///   fleet rollouts happen through the [`SimCanary`] machinery, whose
///   rollbacks charge the same breaker model
///   (`base.breaker_threshold`).
#[derive(Clone, Debug)]
pub struct FleetSimConfig {
    /// Per-replica serving semantics (see the type-level docs for the
    /// fields reinterpreted at fleet scope).
    pub base: SimConfig,
    /// Initial replica count.
    pub replicas: usize,
    /// Dispatch policy.
    pub dispatch: DispatchPolicy,
    /// Seed for the routing RNG (priority draw, canary split, p2c).
    pub seed: u64,
    /// Fleet-level priority admission thresholds.
    pub admission: PriorityAdmission,
    /// Relative weights of the three priority classes assigned to
    /// arrivals by the seeded draw (need not sum to 1).
    pub priority_mix: [f64; 3],
    /// Reroutes a request survives after its replica dies holding it.
    pub reroute_budget: u32,
    /// Optional SLO autoscaler.
    pub autoscaler: Option<SimAutoscaler>,
    /// Optional canary rollout.
    pub canary: Option<SimCanary>,
}

impl FleetSimConfig {
    /// A fleet of `replicas` identical replicas with default admission,
    /// a standard-heavy priority mix, and neither autoscaler nor canary.
    pub fn new(replicas: usize, base: SimConfig, dispatch: DispatchPolicy) -> Self {
        Self {
            base,
            replicas,
            dispatch,
            seed: 0,
            admission: PriorityAdmission::default(),
            priority_mix: [0.2, 0.5, 0.3],
            reroute_budget: 1,
            autoscaler: None,
            canary: None,
        }
    }
}

/// Everything the fleet simulation observed.
pub struct FleetSimOutcome {
    /// Queue-wait / compute split of every served request.
    pub recorder: LatencyRecorder,
    /// Requests served to completion (any replica).
    pub completed: usize,
    /// Requests shed at a replica's watermark (after routing).
    pub rejected: usize,
    /// Requests shed by fleet-level priority admission, per class.
    pub fleet_shed: [usize; 3],
    /// Requests shed in a queue when their deadline lapsed.
    pub expired: usize,
    /// Requests lost to crashes after exhausting both the re-queue and
    /// the reroute budgets.
    pub lost: usize,
    /// Cross-replica reroutes of crash-orphaned requests.
    pub rerouted: usize,
    /// Same-replica re-queues of crash-recovered requests.
    pub requeued: usize,
    /// Worker crashes that fired.
    pub crashes: usize,
    /// Autoscaler scale-up steps.
    pub scale_ups: usize,
    /// Autoscaler scale-down steps.
    pub scale_downs: usize,
    /// Σ over replicas of (retirement − birth) virtual seconds — the
    /// fleet's cost denominator.
    pub replica_seconds: f64,
    /// Routable replicas when the simulation ended.
    pub final_replicas: usize,
    /// Whether the canary was promoted.
    pub canary_promoted: bool,
    /// Whether the canary was rolled back.
    pub canary_rolled_back: bool,
    /// Requests the canary replica served.
    pub canary_served: usize,
    /// Whether rollout failures opened the breaker.
    pub breaker_opened: bool,
    /// Iteration of the model serving at the end (the candidate's after
    /// a promotion, the original's otherwise).
    pub final_iteration: u64,
    /// Ids of served requests, in dispatch order.
    pub served_ids: Vec<usize>,
    /// Ids of requests shed at admission (fleet or watermark), in
    /// arrival order.
    pub rejected_ids: Vec<usize>,
    /// Ids of deadline-expired requests, in expiry order.
    pub expired_ids: Vec<usize>,
    /// Ids of crash-lost requests, in loss order.
    pub lost_ids: Vec<usize>,
    /// Size of every dispatched batch, in dispatch order.
    pub batch_sizes: Vec<usize>,
    /// Virtual time at which the fleet went fully idle.
    pub makespan: f64,
}

impl FleetSimOutcome {
    /// Sustained goodput: served requests per virtual second.
    pub fn throughput(&self) -> f64 {
        if self.makespan > 0.0 { self.completed as f64 / self.makespan } else { 0.0 }
    }

    /// Total requests offered across every terminal category.
    pub fn offered(&self) -> usize {
        self.completed
            + self.rejected
            + self.fleet_shed.iter().sum::<usize>()
            + self.expired
            + self.lost
    }

    /// Fraction of offered requests that did not get an answer.
    pub fn shed_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            (offered - self.completed) as f64 / offered as f64
        }
    }

    /// p99 of served total latency (0 when nothing was served).
    pub fn p99(&self) -> f64 {
        self.recorder.total_summary().map(|s| s.p99).unwrap_or(0.0)
    }
}

#[derive(Clone, Copy)]
struct FQ {
    id: usize,
    arrived: f64,
    deadline: Option<f64>,
    attempts: u32,
    reroutes: u32,
}

struct Rep {
    id: usize,
    canary: bool,
    /// Service-time multiplier (canary candidates may be slower).
    factor: f64,
    born: f64,
    draining: Option<f64>,
    retired: Option<f64>,
    queue: Vec<FQ>,
    worker_free: Vec<f64>,
    slot_batches: Vec<u64>,
}

impl Rep {
    fn new(id: usize, workers: usize, born: f64, ready: f64, canary: bool, factor: f64) -> Self {
        Self {
            id,
            canary,
            factor,
            born,
            draining: None,
            retired: None,
            queue: Vec::new(),
            worker_free: vec![ready; workers],
            slot_batches: vec![0; workers],
        }
    }

    /// Whether the router may send new traffic here.
    fn routable(&self) -> bool {
        !self.canary && self.draining.is_none() && self.retired.is_none()
    }

    /// Whether the canary split may send traffic here.
    fn canary_routable(&self) -> bool {
        self.canary && self.draining.is_none() && self.retired.is_none()
    }
}

struct FleetSim<'a> {
    model: &'a ServiceModel,
    cfg: &'a FleetSimConfig,
    wpr: usize,
    watermark: usize,
    max_delay: f64,
    reps: Vec<Rep>,
    next_rep_id: usize,
    crash_fired: Vec<bool>,
    rr: usize,
    arrivals_since_tick: u64,
    canary_active: bool,
    base_lat: Vec<f64>,
    canary_lat: Vec<f64>,
    rollout_failures: u32,
    current_iteration: u64,
    tr: TraceHandle,
    out: FleetSimOutcome,
}

impl FleetSim<'_> {
    fn backlog(&self) -> usize {
        self.reps.iter().filter(|r| r.routable()).map(|r| r.queue.len()).sum()
    }

    fn live(&self) -> usize {
        self.reps.iter().filter(|r| r.routable()).count()
    }

    /// Sheds deadline-lapsed requests from one replica's queue.
    fn expire_rep(&mut self, ri: usize, cut: f64) -> usize {
        if self.cfg.base.deadline_secs.is_none() {
            return 0;
        }
        let rep = &mut self.reps[ri];
        let before = rep.queue.len();
        let mut kept = Vec::with_capacity(before);
        for q in rep.queue.drain(..) {
            if q.deadline.is_some_and(|d| d <= cut) {
                self.out.expired += 1;
                self.out.expired_ids.push(q.id);
            } else {
                kept.push(q);
            }
        }
        rep.queue = kept;
        before - self.reps[ri].queue.len()
    }

    /// Drains one replica's batches up to `t_limit`, pushing
    /// crash-orphaned requests that exhausted their re-queue budget (but
    /// still hold reroute budget) into `reroutes`. Mirrors the
    /// single-replica `SimState::drain_until` semantics exactly, with
    /// crash/straggler plans indexed by *global* worker id.
    fn drain_rep(&mut self, ri: usize, t_limit: f64, reroutes: &mut Vec<(FQ, usize)>) {
        loop {
            if self.reps[ri].queue.is_empty() {
                break;
            }
            let max_batch = self.cfg.base.policy.max_batch;
            let rep = &self.reps[ri];
            let trigger = if rep.queue.len() >= max_batch {
                rep.queue[max_batch - 1].arrived
            } else {
                rep.queue[0].arrived + self.max_delay
            };
            let free = rep.worker_free.iter().cloned().fold(f64::INFINITY, f64::min);
            let start = trigger.max(free).max(rep.queue[0].arrived);
            if self.expire_rep(ri, start.min(t_limit)) > 0 {
                continue;
            }
            if start > t_limit {
                break;
            }
            let rep = &self.reps[ri];
            let eligible = rep.queue.iter().take_while(|q| q.arrived <= start).count();
            let b = eligible.min(max_batch);
            let slot = rep
                .worker_free
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            let global = rep.id * self.wpr + slot;
            let svc = self.model.batch_secs(b)
                * self.cfg.base.faults.slow_worker_factor(global, rep.slot_batches[slot])
                * rep.factor;
            let crash = self.cfg.base.faults.worker_crashes.iter().enumerate().find(
                |(ci, c)| {
                    c.worker == global
                        && rep.slot_batches[slot] >= c.after_batches
                        && !self.crash_fired[*ci]
                },
            );
            if let Some((ci, c)) = crash {
                let t_crash = start + 0.5 * svc;
                let respawn = c.respawn_secs;
                self.crash_fired[ci] = true;
                self.out.crashes += 1;
                let max_requeues = self.cfg.base.max_requeues;
                let budget = self.cfg.reroute_budget;
                let rep = &mut self.reps[ri];
                rep.worker_free[slot] = t_crash + respawn;
                self.out.makespan = self.out.makespan.max(rep.worker_free[slot]);
                let mut recovered = Vec::with_capacity(b);
                for mut q in rep.queue.drain(..b) {
                    q.attempts += 1;
                    if q.attempts > max_requeues {
                        if q.reroutes < budget {
                            q.reroutes += 1;
                            q.attempts = 0;
                            q.arrived = t_crash;
                            reroutes.push((q, ri));
                        } else {
                            self.out.lost += 1;
                            self.out.lost_ids.push(q.id);
                        }
                    } else {
                        q.arrived = t_crash;
                        self.out.requeued += 1;
                        recovered.push(q);
                    }
                }
                let n = recovered.len() as u64;
                rep.queue.splice(0..0, recovered);
                if self.tr.enabled() {
                    self.tr.event_at(
                        global as u64,
                        t_crash,
                        respawn,
                        EventKind::WorkerRespawn {
                            worker: global as u64,
                            incarnation: self.out.crashes as u64,
                            backoff_s: respawn,
                            requeued: n,
                        },
                    );
                }
                continue;
            }
            let rep = &self.reps[ri];
            if self.tr.enabled() {
                let queue_s = start - rep.queue[0].arrived;
                self.tr.event_at(global as u64, start, svc, EventKind::BatchDispatch {
                    worker: global as u64,
                    batch: b as u64,
                    queue_s,
                    compute_s: svc,
                });
            }
            let is_canary = rep.canary;
            let canary_window = self.canary_active;
            for q in &rep.queue[..b] {
                let wait = start - q.arrived;
                self.out.recorder.push(wait, svc);
                self.out.served_ids.push(q.id);
                if canary_window {
                    if is_canary {
                        self.canary_lat.push(wait + svc);
                    } else {
                        self.base_lat.push(wait + svc);
                    }
                }
            }
            if is_canary {
                self.out.canary_served += b;
            }
            self.out.batch_sizes.push(b);
            self.out.completed += b;
            let end = start + svc;
            self.out.makespan = self.out.makespan.max(end);
            let rep = &mut self.reps[ri];
            rep.worker_free[slot] = end;
            rep.slot_batches[slot] += 1;
            rep.queue.drain(..b);
        }
        // A draining replica retires once its queue is empty: record the
        // instant its last worker goes idle.
        let rep = &mut self.reps[ri];
        if rep.queue.is_empty() && rep.retired.is_none() {
            if let Some(since) = rep.draining {
                let idle = rep.worker_free.iter().cloned().fold(since, f64::max);
                rep.retired = Some(idle);
                self.out.makespan = self.out.makespan.max(idle);
            }
        }
    }

    /// Drains every replica up to `t`, rerouting crash-orphaned work to
    /// sibling replicas until no reroutes remain.
    fn drain_all(&mut self, t: f64) {
        loop {
            let mut buf: Vec<(FQ, usize)> = Vec::new();
            for ri in 0..self.reps.len() {
                self.drain_rep(ri, t, &mut buf);
            }
            if buf.is_empty() {
                return;
            }
            for (q, src) in buf {
                // Least-loaded placement, excluding the dead replica —
                // unless it is the only one left.
                let target = self
                    .reps
                    .iter()
                    .enumerate()
                    .filter(|(i, r)| r.routable() && *i != src)
                    .min_by_key(|(_, r)| (r.queue.len(), r.id))
                    .map(|(i, _)| i)
                    .or_else(|| {
                        self.reps
                            .iter()
                            .enumerate()
                            .filter(|(_, r)| r.routable())
                            .min_by_key(|(_, r)| (r.queue.len(), r.id))
                            .map(|(i, _)| i)
                    });
                match target {
                    Some(ti) => {
                        self.out.rerouted += 1;
                        if self.tr.enabled() {
                            self.tr.event_at(
                                self.reps[ti].id as u64,
                                q.arrived,
                                0.0,
                                EventKind::Route {
                                    replica: self.reps[ti].id as u64,
                                    depth: self.reps[ti].queue.len() as u64,
                                    policy: "reroute",
                                },
                            );
                        }
                        let rep = &mut self.reps[ti];
                        let pos = rep.queue.partition_point(|x| x.arrived <= q.arrived);
                        rep.queue.insert(pos, q);
                    }
                    None => {
                        self.out.lost += 1;
                        self.out.lost_ids.push(q.id);
                    }
                }
            }
        }
    }

    /// Routes one arrival: priority draw, fleet admission, canary
    /// split, dispatch policy, replica watermark.
    fn arrival(&mut self, id: usize, t: f64) {
        self.arrivals_since_tick += 1;
        let mix = self.cfg.priority_mix;
        let total: f64 = mix.iter().sum();
        let draw = rand01(self.cfg.seed, SALT_PRIORITY, id as u64) * total;
        let p = if draw < mix[0] {
            0
        } else if draw < mix[0] + mix[1] {
            1
        } else {
            2
        };
        let live = self.live();
        if live == 0 {
            self.out.rejected += 1;
            self.out.rejected_ids.push(id);
            return;
        }
        let backlog = self.backlog();
        let headroom = (live * self.watermark) as f64;
        if backlog as f64 >= self.cfg.admission.shed_frac[p] * headroom {
            self.out.fleet_shed[p] += 1;
            self.out.rejected_ids.push(id);
            if self.tr.enabled() {
                self.tr.event_at(u64::MAX, t, 0.0, EventKind::Shed {
                    worker: u64::MAX,
                    count: 1,
                    depth: backlog as u64,
                    reason: "fleet",
                });
            }
            return;
        }
        // Canary split.
        if self.canary_active {
            let fraction = self.cfg.canary.map(|c| c.fraction).unwrap_or(0.0);
            if rand01(self.cfg.seed, SALT_CANARY, id as u64) < fraction {
                if let Some(ci) = self.reps.iter().position(|r| r.canary_routable()) {
                    self.admit(ci, id, t, "canary");
                    return;
                }
            }
        }
        let candidates: Vec<usize> = self
            .reps
            .iter()
            .enumerate()
            .filter(|(_, r)| r.routable())
            .map(|(i, _)| i)
            .collect();
        let n = candidates.len();
        let chosen = match self.cfg.dispatch {
            DispatchPolicy::RoundRobin => {
                let i = candidates[self.rr % n];
                self.rr += 1;
                i
            }
            DispatchPolicy::LeastLoaded => *candidates
                .iter()
                .min_by_key(|&&i| (self.reps[i].queue.len(), self.reps[i].id))
                .unwrap(),
            DispatchPolicy::PowerOfTwoChoices => {
                let a = ((rand01(self.cfg.seed, SALT_P2C_A, id as u64) * n as f64) as usize)
                    .min(n - 1);
                let b = ((rand01(self.cfg.seed, SALT_P2C_B, id as u64) * n as f64) as usize)
                    .min(n - 1);
                let (ca, cb) = (candidates[a], candidates[b]);
                if self.reps[cb].queue.len() < self.reps[ca].queue.len() { cb } else { ca }
            }
        };
        self.admit(chosen, id, t, self.cfg.dispatch.name());
    }

    /// Admits one request onto replica `ri`, or sheds it at the
    /// replica's watermark.
    fn admit(&mut self, ri: usize, id: usize, t: f64, policy: &'static str) {
        let depth = self.reps[ri].queue.len();
        if depth >= self.watermark {
            self.out.rejected += 1;
            self.out.rejected_ids.push(id);
            if self.tr.enabled() {
                self.tr.event_at(self.reps[ri].id as u64, t, 0.0, EventKind::Shed {
                    worker: u64::MAX,
                    count: 1,
                    depth: depth as u64,
                    reason: "watermark",
                });
            }
            return;
        }
        if self.tr.enabled() {
            self.tr.event_at(self.reps[ri].id as u64, t, 0.0, EventKind::Route {
                replica: self.reps[ri].id as u64,
                depth: depth as u64,
                policy,
            });
        }
        let deadline = self.cfg.base.deadline_secs.map(|d| t + d);
        self.reps[ri].queue.push(FQ { id, arrived: t, deadline, attempts: 0, reroutes: 0 });
    }

    /// Handles a scheduled event (0 = autoscaler tick, 1 = canary
    /// start, 2 = canary decision) at virtual time `et`.
    fn handle_event(&mut self, et: f64, kind: u8) {
        match kind {
            0 => self.autoscale(et),
            1 => {
                let c = self.cfg.canary.expect("canary event without config");
                let id = self.next_rep_id;
                self.next_rep_id += 1;
                self.reps.push(Rep::new(id, self.wpr, et, et, true, c.service_factor));
                self.canary_active = true;
                if self.tr.enabled() {
                    self.tr.event_at(id as u64, et, 0.0, EventKind::Canary {
                        action: "begin",
                        replica: id as u64,
                        fraction: c.fraction,
                    });
                }
            }
            2 => self.decide_canary(et),
            _ => unreachable!(),
        }
    }

    fn autoscale(&mut self, et: f64) {
        let a = self.cfg.autoscaler.expect("autoscale tick without config");
        let rate = self.arrivals_since_tick as f64 / a.tick_secs;
        self.arrivals_since_tick = 0;
        let per_rep = self.wpr as f64
            * self.model.saturated_rate(self.cfg.base.policy.max_batch);
        let desired = (((rate / (per_rep * a.target_util)).ceil() as usize).max(1))
            .clamp(a.min_replicas, a.max_replicas);
        let live = self.live();
        let backlog = self.backlog();
        if desired > live {
            let id = self.next_rep_id;
            self.next_rep_id += 1;
            self.reps
                .push(Rep::new(id, self.wpr, et, et + a.startup_secs, false, 1.0));
            self.out.scale_ups += 1;
            if self.tr.enabled() {
                self.tr.event_at(id as u64, et, a.startup_secs, EventKind::ScaleUp {
                    replicas: (live + 1) as u64,
                    backlog: backlog as u64,
                });
            }
        } else if desired < live
            && live > a.min_replicas
            && backlog <= a.scale_down_backlog * live
        {
            let victim = self
                .reps
                .iter()
                .enumerate()
                .filter(|(_, r)| r.routable())
                .min_by_key(|(_, r)| (r.queue.len(), std::cmp::Reverse(r.id)))
                .map(|(i, _)| i);
            if let Some(vi) = victim {
                self.reps[vi].draining = Some(et);
                self.out.scale_downs += 1;
                if self.tr.enabled() {
                    self.tr.event_at(
                        self.reps[vi].id as u64,
                        et,
                        0.0,
                        EventKind::ScaleDown {
                            replicas: (live - 1) as u64,
                            backlog: backlog as u64,
                        },
                    );
                }
            }
        }
    }

    fn decide_canary(&mut self, et: f64) {
        let c = self.cfg.canary.expect("canary decision without config");
        self.canary_active = false;
        let ci = match self.reps.iter().position(|r| r.canary) {
            Some(i) => i,
            None => return,
        };
        let pass = !self.canary_lat.is_empty()
            && !self.base_lat.is_empty()
            && percentile(&self.canary_lat, 0.99)
                <= percentile(&self.base_lat, 0.99) * (1.0 + c.regression_tol);
        if pass {
            // Promote: the candidate serves everywhere from here on.
            self.current_iteration = c.candidate_iteration;
            for r in &mut self.reps {
                r.factor = c.service_factor;
            }
            self.reps[ci].canary = false;
            self.out.canary_promoted = true;
        } else {
            // Rollback: drain the canary replica; the regression is a
            // rollout failure charged to the breaker.
            self.reps[ci].draining = Some(et);
            self.out.canary_rolled_back = true;
            self.rollout_failures += 1;
            if self.rollout_failures >= self.cfg.base.breaker_threshold {
                self.out.breaker_opened = true;
                if self.tr.enabled() {
                    self.tr.event_at(u64::MAX, et, 0.0, EventKind::Breaker {
                        open: true,
                        failures: self.rollout_failures as u64,
                    });
                }
            }
        }
        if self.tr.enabled() {
            self.tr.event_at(self.reps[ci].id as u64, et, 0.0, EventKind::Canary {
                action: if pass { "promote" } else { "rollback" },
                replica: self.reps[ci].id as u64,
                fraction: c.fraction,
            });
        }
    }
}

/// Replays `arrivals` (sorted virtual timestamps, request id = index)
/// through the replicated router model — dispatch policy, priority
/// admission, canary rollout, autoscaler and the global chaos plan —
/// and returns the full fleet outcome. Bit-deterministic in all inputs.
pub fn simulate_fleet(
    model: &ServiceModel,
    arrivals: &[f64],
    cfg: &FleetSimConfig,
) -> FleetSimOutcome {
    assert!(cfg.replicas >= 1, "fleet needs at least one replica");
    assert!(cfg.base.workers >= 1 && cfg.base.queue_capacity >= 1);
    assert!(
        arrivals.windows(2).all(|w| w[1] >= w[0]),
        "arrival schedule must be sorted"
    );
    assert!(
        cfg.priority_mix.iter().sum::<f64>() > 0.0,
        "priority mix must have positive mass"
    );
    let watermark = cfg
        .base
        .shed_watermark
        .unwrap_or(cfg.base.queue_capacity)
        .min(cfg.base.queue_capacity);
    assert!(watermark >= 1, "shed watermark must be at least 1");

    // Scheduled events: autoscaler ticks while arrivals flow, plus the
    // canary start/decide pair. Ties process in (tick, start, decide)
    // order.
    let mut events: Vec<(f64, u8)> = Vec::new();
    if let Some(a) = &cfg.autoscaler {
        assert!(a.tick_secs > 0.0, "autoscaler tick must be positive");
        let last = arrivals.last().copied().unwrap_or(0.0);
        let mut k = 1u64;
        while k as f64 * a.tick_secs <= last {
            events.push((k as f64 * a.tick_secs, 0));
            k += 1;
        }
    }
    if let Some(c) = &cfg.canary {
        assert!(c.decide_secs > c.start_secs, "canary must decide after it starts");
        events.push((c.start_secs, 1));
        events.push((c.decide_secs, 2));
    }
    events.sort_by(|a, b| f64::total_cmp(&a.0, &b.0).then(a.1.cmp(&b.1)));

    let mut st = FleetSim {
        model,
        cfg,
        wpr: cfg.base.workers,
        watermark,
        max_delay: cfg.base.policy.max_delay.as_secs_f64(),
        reps: (0..cfg.replicas)
            .map(|id| Rep::new(id, cfg.base.workers, 0.0, 0.0, false, 1.0))
            .collect(),
        next_rep_id: cfg.replicas,
        crash_fired: vec![false; cfg.base.faults.worker_crashes.len()],
        rr: 0,
        arrivals_since_tick: 0,
        canary_active: false,
        base_lat: Vec::new(),
        canary_lat: Vec::new(),
        rollout_failures: 0,
        current_iteration: 0,
        tr: TraceHandle::begin("fleet-sim"),
        out: FleetSimOutcome {
            recorder: LatencyRecorder::new(),
            completed: 0,
            rejected: 0,
            fleet_shed: [0; 3],
            expired: 0,
            lost: 0,
            rerouted: 0,
            requeued: 0,
            crashes: 0,
            scale_ups: 0,
            scale_downs: 0,
            replica_seconds: 0.0,
            final_replicas: 0,
            canary_promoted: false,
            canary_rolled_back: false,
            canary_served: 0,
            breaker_opened: false,
            final_iteration: 0,
            served_ids: Vec::new(),
            rejected_ids: Vec::new(),
            expired_ids: Vec::new(),
            lost_ids: Vec::new(),
            batch_sizes: Vec::new(),
            makespan: 0.0,
        },
    };
    let mut ev = 0usize;
    for (id, &t) in arrivals.iter().enumerate() {
        while ev < events.len() && events[ev].0 <= t {
            let (et, kind) = events[ev];
            ev += 1;
            st.drain_all(et);
            st.handle_event(et, kind);
        }
        st.drain_all(t);
        st.arrival(id, t);
    }
    while ev < events.len() {
        let (et, kind) = events[ev];
        ev += 1;
        st.drain_all(et);
        st.handle_event(et, kind);
    }
    st.drain_all(f64::INFINITY);
    let makespan = st.out.makespan;
    st.out.replica_seconds = st
        .reps
        .iter()
        .map(|r| (r.retired.unwrap_or(makespan).max(r.born)) - r.born)
        .sum();
    st.out.final_replicas = st.reps.iter().filter(|r| r.routable()).count();
    st.out.final_iteration = st.current_iteration;
    st.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::PoissonArrivals;
    use crate::queue::BatchPolicy;
    use scidl_nn::arch::hep_small;
    use scidl_tensor::{Shape4, TensorRng};

    fn registry(seed: u64, iteration: u64) -> Arc<ModelRegistry> {
        let mut rng = TensorRng::new(seed);
        Arc::new(ModelRegistry::new(ServingModel::new(hep_small(&mut rng), iteration, seed)))
    }

    fn probe(seed: u64) -> Tensor {
        let mut rng = TensorRng::new(seed);
        rng.uniform_tensor(Shape4::new(1, 3, 32, 32), -1.0, 1.0)
    }

    fn base_cfg() -> SimConfig {
        SimConfig::new(2, 64, BatchPolicy::dynamic(8, std::time::Duration::from_millis(5)))
    }

    #[test]
    fn fleet_sim_is_bit_deterministic() {
        let m = ServiceModel::hep();
        let arrivals: Vec<f64> = PoissonArrivals::new(11, 600.0, 500).collect();
        let mut cfg = FleetSimConfig::new(3, base_cfg(), DispatchPolicy::PowerOfTwoChoices);
        cfg.seed = 42;
        let a = simulate_fleet(&m, &arrivals, &cfg);
        let b = simulate_fleet(&m, &arrivals, &cfg);
        assert_eq!(a.served_ids, b.served_ids);
        assert_eq!(a.batch_sizes, b.batch_sizes);
        assert_eq!(a.p99().to_bits(), b.p99().to_bits());
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.replica_seconds.to_bits(), b.replica_seconds.to_bits());
    }

    #[test]
    fn p2c_beats_round_robin_p99_under_skewed_load() {
        let m = ServiceModel::hep();
        // Replica 0's workers are 4x stragglers for their whole life:
        // round-robin keeps feeding the hot replica, p2c's depth probes
        // steer around it once its queue grows. A deep queue keeps the
        // watermark from truncating round-robin's tail.
        let mut base =
            SimConfig::new(2, 512, BatchPolicy::dynamic(8, std::time::Duration::from_millis(5)));
        for w in 0..base.workers {
            base.faults = base.faults.clone().with_slow_worker(w, 0, u64::MAX, 4.0);
        }
        // Saturating offered load: per-replica capacity is ~2 workers *
        // saturated_rate(8); offer ~80% of 3 healthy replicas' worth so
        // the slow replica's queue visibly backs up.
        let rate = 3.0 * 2.0 * m.saturated_rate(8) * 0.8;
        let arrivals: Vec<f64> = PoissonArrivals::new(9, rate, 1500).collect();
        let p99 = |d: DispatchPolicy| {
            let mut cfg = FleetSimConfig::new(3, base.clone(), d);
            cfg.seed = 4242;
            // Single class: isolate dispatch from priority admission.
            cfg.priority_mix = [0.0, 1.0, 0.0];
            cfg.admission = PriorityAdmission { shed_frac: [1.0, 1.0, 1.0] };
            simulate_fleet(&m, &arrivals, &cfg).p99()
        };
        let rr = p99(DispatchPolicy::RoundRobin);
        let p2c = p99(DispatchPolicy::PowerOfTwoChoices);
        assert!(
            p2c <= rr,
            "p2c p99 {p2c:.4}s must not exceed round-robin p99 {rr:.4}s under skew"
        );
    }

    #[test]
    fn autoscaler_grows_under_burst_and_shrinks_when_quiet() {
        let m = ServiceModel::hep();
        let base = base_cfg();
        let per_rep = 2.0 * m.saturated_rate(8);
        // A burst at ~3 replicas' worth of load, then a long quiet tail.
        let burst: Vec<f64> = PoissonArrivals::new(5, 3.0 * per_rep, 1200).collect();
        let burst_end = *burst.last().unwrap();
        let mut arrivals = burst;
        for i in 0..40 {
            arrivals.push(burst_end + 0.5 + i as f64 * 0.5);
        }
        let mut cfg = FleetSimConfig::new(1, base, DispatchPolicy::LeastLoaded);
        cfg.autoscaler = Some(SimAutoscaler {
            min_replicas: 1,
            max_replicas: 6,
            target_util: 0.7,
            tick_secs: 0.2,
            startup_secs: 0.02,
            scale_down_backlog: 4,
        });
        let out = simulate_fleet(&m, &arrivals, &cfg);
        assert!(out.scale_ups >= 2, "burst must trigger scale-ups, got {}", out.scale_ups);
        assert!(out.scale_downs >= 1, "quiet tail must shrink, got {}", out.scale_downs);
        let a = cfg.autoscaler.unwrap();
        assert!(
            (a.min_replicas..=a.max_replicas).contains(&out.final_replicas),
            "final replica count {} outside [{}, {}]",
            out.final_replicas,
            a.min_replicas,
            a.max_replicas
        );
    }

    #[test]
    fn canary_promotes_equal_candidate_and_rolls_back_regression() {
        let m = ServiceModel::hep();
        let arrivals: Vec<f64> = PoissonArrivals::new(3, 400.0, 800).collect();
        let mk = |factor: f64| {
            let mut cfg = FleetSimConfig::new(2, base_cfg(), DispatchPolicy::LeastLoaded);
            cfg.seed = 7;
            cfg.base.breaker_threshold = 1;
            cfg.canary = Some(SimCanary {
                start_secs: 0.1,
                decide_secs: *arrivals.last().unwrap() * 0.9,
                fraction: 0.25,
                service_factor: factor,
                regression_tol: 0.25,
                candidate_iteration: 9000,
            });
            simulate_fleet(&m, &arrivals, &cfg)
        };
        let good = mk(1.0);
        assert!(good.canary_promoted && !good.canary_rolled_back);
        assert_eq!(good.final_iteration, 9000, "promotion must publish the candidate");
        assert!(good.canary_served > 0, "the canary must have taken traffic");
        let bad = mk(8.0);
        assert!(bad.canary_rolled_back && !bad.canary_promoted);
        assert_eq!(bad.final_iteration, 0, "rollback must leave the old model serving");
        assert!(bad.breaker_opened, "rollout failure must charge the breaker");
    }

    #[test]
    fn replica_crash_reroutes_without_losing_or_duplicating_requests() {
        let m = ServiceModel::hep();
        // Both workers of replica 0 crash early and respawn very late —
        // effectively a replica loss. With zero same-replica re-queues
        // every orphan must cross to replica 1 (or be counted lost).
        let mut base = base_cfg();
        base.max_requeues = 0;
        base.faults = base
            .faults
            .clone()
            .with_worker_crash(0, 1, 1e6)
            .with_worker_crash(1, 1, 1e6);
        let arrivals: Vec<f64> = PoissonArrivals::new(13, 500.0, 600).collect();
        let mut cfg = FleetSimConfig::new(2, base, DispatchPolicy::RoundRobin);
        cfg.seed = 99;
        cfg.reroute_budget = 2;
        let out = simulate_fleet(&m, &arrivals, &cfg);
        assert!(out.crashes >= 2, "both crash events must fire, got {}", out.crashes);
        assert!(out.rerouted > 0, "orphans must reroute to the sibling");
        // Exactly-once: every arrival id lands in exactly one terminal
        // category.
        let mut all: Vec<usize> = out
            .served_ids
            .iter()
            .chain(&out.rejected_ids)
            .chain(&out.expired_ids)
            .chain(&out.lost_ids)
            .copied()
            .collect();
        all.sort_unstable();
        let expect: Vec<usize> = (0..arrivals.len()).collect();
        assert_eq!(all, expect, "terminal outcomes must partition the arrivals");
        assert_eq!(out.offered(), arrivals.len());
    }

    #[test]
    fn threaded_router_routes_across_replicas() {
        let reg = registry(50, 1);
        let rc = ServerConfig { workers: 1, queue_capacity: 32, ..Default::default() };
        let cfg = FleetConfig::new(2, rc, DispatchPolicy::RoundRobin);
        let router = Router::start(reg, cfg);
        for i in 0..8 {
            let r = router.infer(probe(60 + i)).expect("infer must succeed");
            assert_eq!(r.model_iteration, 1);
        }
        assert_eq!(router.live_replicas(), 2);
        let (rec, report) = router.shutdown_with_report();
        assert_eq!(report.routed, 8);
        assert_eq!(report.servers.served, 8);
        assert_eq!(rec.len(), 8);
        assert_eq!(report.final_replicas, 2);
    }

    #[test]
    fn threaded_canary_promote_publishes_candidate() {
        let reg = registry(51, 1);
        let rc = ServerConfig { workers: 1, queue_capacity: 64, ..Default::default() };
        let mut cfg = FleetConfig::new(2, rc, DispatchPolicy::LeastLoaded);
        cfg.seed = 17;
        let router = Router::start(Arc::clone(&reg), cfg);
        let mut rng = TensorRng::new(52);
        let candidate = ServingModel::new(hep_small(&mut rng), 777, 52);
        let ccfg = CanaryConfig { fraction: 0.5, regression_tol: 10.0, min_samples: 5 };
        router.begin_canary(candidate, ccfg, FaultPlan::none()).expect("canary must start");
        let mut decision = CanaryDecision::Pending;
        for i in 0..200 {
            router.infer(probe(100 + i)).expect("infer must succeed");
            decision = router.resolve_canary();
            if decision != CanaryDecision::Pending {
                break;
            }
        }
        assert_eq!(decision, CanaryDecision::Promoted);
        assert_eq!(reg.current().iteration, 777, "promotion must publish the candidate");
        let (_, report) = router.shutdown_with_report();
        assert!(report.canary_promoted);
    }
}
