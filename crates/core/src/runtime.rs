//! The two-layer runtime: wires controllers to the simulated board and a
//! workload, invoking each controller every 500 ms exactly as the
//! prototype's privileged processes did.
//!
//! Every entry point drives one loop whose pass is one controller period
//! (sense, invoke both layers, actuate); supervision, fault injection, a
//! scheduled hot-swap, crash recovery, request serving and the adaptive
//! health policy are hooks on that pass. With recovery enabled the
//! runtime is *crash-tolerant* (DESIGN.md §11): it journals every
//! invocation into a [`Journal`], checkpoints the complete resumable state
//! periodically, injects controller-process crashes from the fault plan
//! ([`yukta_board::FaultKind::Crash`]), and recovers by restoring the
//! latest checkpoint and replaying the journal suffix through the same
//! pass — bit-identically to a run that never crashed.

use std::panic::{AssertUnwindSafe, catch_unwind, resume_unwind};
use std::sync::Arc;
use std::time::Instant;

use yukta_board::{
    Actuation, Board, BoardConfig, Cluster, FaultPlan, Placement, QueueConfig, RequestQueue,
};
use yukta_linalg::{Error, Result};
use yukta_obs::{ObsHandle, Recorder, Value};
use yukta_workloads::{Traffic, TrafficConfig, Workload, WorkloadRun};

use yukta_control::ss::StateSpace;
use yukta_control::sysid::{fit_arx, validation_residual};
use yukta_obs::health::{HealthConfig, HealthStats, HealthVerdict};

use crate::controllers::{HwSense, OsSense};
use crate::design::{Design, default_design};
use crate::health::{HealthTap, emit_verdict};
use crate::metrics::{ComputeStats, FaultReport, Metrics, Report, SloReport, Trace, TraceSample};
use crate::modes::{Knob, ModeAutomaton, ModeConfig, ModeSnapshot, TransitionRecord, level_label};
use crate::recorder::{Journal, JournalRecord, ReplayOutcome, replay_with};
use crate::schemes::{Controllers, ControllersState, Scheme};
use crate::signals::{HwInputs, HwOutputs, Limits, OsInputs, OsOutputs, SloSense, spare_capacity};
use crate::supervisor::{Supervisor, SupervisorConfig, SupervisorMode, SupervisorState};

/// The invocation engine of one run: either the controllers directly (the
/// paper's experiments) or the fault-containment supervisor wrapping them.
/// Both shapes drive the checked [`ModeAutomaton`] — the supervisor owns
/// one internally; the raw engine carries its own so even unsupervised
/// runs assert the no-actuation-gap and single-writer-per-knob invariants
/// and route swap/recovery through the same protocol.
enum Engine {
    Raw { c: Controllers, auto: ModeAutomaton },
    Supervised(Box<Supervisor>),
}

/// A snapshot of an [`Engine`], mirroring its shape.
enum EngineState {
    Raw {
        c: ControllersState,
        auto: ModeSnapshot,
    },
    Supervised(Box<SupervisorState>),
}

impl Engine {
    /// Wraps `c` in the fault-containment supervisor when `sup_cfg` is
    /// set, and otherwise runs it raw under its own automaton. Recovery
    /// rebuilds the engine through the same constructor (a crashed daemon
    /// restarts from its binary, not from its heap).
    fn new(c: Controllers, sup_cfg: Option<SupervisorConfig>) -> Engine {
        match sup_cfg {
            None => Engine::Raw {
                c,
                auto: ModeAutomaton::new(ModeConfig::default()),
            },
            Some(cfg) => Engine::Supervised(Box::new(Supervisor::new(c, cfg))),
        }
    }

    fn invoke(&mut self, hw_sense: &HwSense, os_sense: &OsSense) -> Result<(HwInputs, OsInputs)> {
        match self {
            Engine::Raw { c, auto } => {
                auto.begin_invocation();
                let out = (|| match c {
                    Controllers::Split { hw, os } => {
                        Ok((hw.invoke(hw_sense)?, os.invoke(os_sense)?))
                    }
                    Controllers::Monolithic(m) => m.invoke(hw_sense, os_sense),
                })();
                match out {
                    Ok(u) => {
                        // The raw controllers are the single writer of all
                        // three knobs every step.
                        for k in Knob::ALL {
                            auto.claim(k, "raw");
                        }
                        auto.end_invocation();
                        Ok(u)
                    }
                    Err(e) => {
                        // A typed error terminates the run with the error
                        // instead of actuating: close the bracket without
                        // the gap check so the abort is not a violation.
                        auto.abort_invocation();
                        Err(e)
                    }
                }
            }
            Engine::Supervised(s) => Ok(s.step(hw_sense, os_sense)),
        }
    }

    /// The supervisor mode serving invocations (`None` for raw engines).
    fn mode(&self) -> Option<SupervisorMode> {
        match self {
            Engine::Raw { .. } => None,
            Engine::Supervised(s) => Some(s.mode()),
        }
    }

    /// The admission shed fraction commanded this invocation. Raw engines
    /// have no overload governor and never shed.
    fn shed_frac(&self) -> f64 {
        match self {
            Engine::Raw { .. } => 0.0,
            Engine::Supervised(s) => s.shed_frac(),
        }
    }

    /// Invariant violations recorded by the engine's mode automaton.
    fn violations(&self) -> u64 {
        match self {
            Engine::Raw { auto, .. } => auto.violations(),
            Engine::Supervised(s) => s.violations(),
        }
    }

    /// Drains the automaton's transition log for telemetry.
    fn drain_transitions(&mut self) -> Vec<TransitionRecord> {
        match self {
            Engine::Raw { auto, .. } => auto.drain_transitions(),
            Engine::Supervised(s) => s.drain_transitions(),
        }
    }

    /// Enters the swap-pending window (the crash-vulnerable interval
    /// between requesting a replacement and committing it).
    fn request_swap(&mut self) {
        match self {
            Engine::Raw { auto, .. } => auto.request_swap(),
            Engine::Supervised(s) => s.request_swap(),
        }
    }

    /// Marks the start of a crash-recovery replay.
    fn begin_recovery(&mut self) {
        match self {
            Engine::Raw { auto, .. } => auto.begin_recovery(),
            Engine::Supervised(s) => s.begin_recovery(),
        }
    }

    /// Marks the end of a crash-recovery replay.
    fn end_recovery(&mut self) {
        match self {
            Engine::Raw { auto, .. } => auto.end_recovery(),
            Engine::Supervised(s) => s.end_recovery(),
        }
    }

    fn save_state(&self) -> EngineState {
        match self {
            Engine::Raw { c, auto } => EngineState::Raw {
                c: c.save_state(),
                auto: auto.snapshot(),
            },
            Engine::Supervised(s) => EngineState::Supervised(Box::new(s.save_state())),
        }
    }

    fn restore_state(&mut self, state: &EngineState) -> Result<()> {
        match (self, state) {
            (Engine::Raw { c, auto }, EngineState::Raw { c: cs, auto: snap }) => {
                c.restore_state(cs)?;
                auto.restore(snap);
                Ok(())
            }
            (Engine::Supervised(sup), EngineState::Supervised(s)) => sup.restore_state(s),
            _ => Err(Error::NoSolution {
                op: "engine_restore_state",
                why: "raw/supervised shape mismatch",
            }),
        }
    }

    /// Commits a hot-swap of the serving controllers for a fresh
    /// instantiation of a scheme from the experiment's cached design (a
    /// scheduled [`SwapSpec`] or the adaptive policy; neither
    /// resynthesizes), routed through the automaton's request→commit
    /// protocol (a direct call is an atomic request+commit). State
    /// transfers bumplessly when the replacement has the same shape;
    /// otherwise it starts from reset. Returns `true` when the transfer
    /// was bumpless.
    fn swap_primary(&mut self, mut next: Controllers) -> bool {
        match self {
            Engine::Raw { c, auto } => {
                if !auto.swap_pending() {
                    auto.request_swap();
                }
                let saved = c.save_state();
                let bumpless = next.restore_state(&saved).is_ok();
                if !bumpless {
                    next.reset();
                }
                *c = next;
                auto.commit_swap();
                bumpless
            }
            Engine::Supervised(s) => s.swap_primary(next),
        }
    }
}

/// Telemetry label for an engine mode (`None` = raw engine, no supervisor).
fn mode_label(mode: Option<SupervisorMode>) -> &'static str {
    match mode {
        None => "raw",
        Some(level) => level_label(level),
    }
}

/// The panic payload of an injected controller-process crash
/// ([`yukta_board::FaultKind::Crash`]). Thrown inside the runtime loop via
/// [`std::panic::panic_any`] and caught by the loop's `catch_unwind` when
/// [`UnifiedOptions::recovery`] is enabled; any other panic is a real bug
/// and is re-raised.
#[derive(Debug, Clone, Copy)]
pub struct InjectedCrash {
    /// Invocation index at which the crash fired.
    pub step: u64,
}

/// Options controlling one experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Wall-clock cap on the simulated execution (s); runs that exceed it
    /// are reported with `completed = false`.
    pub timeout_s: f64,
    /// Constraint limits (defaults to the paper's 0.33 W / 3.3 W / 79 °C).
    pub limits: Limits,
    /// Board RNG seed override.
    pub board_seed: Option<u64>,
    /// Whether to keep the full 500 ms trace in the report.
    pub keep_trace: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            timeout_s: 1200.0,
            limits: Limits::default(),
            board_seed: None,
            keep_trace: true,
        }
    }
}

/// Options controlling the crash-tolerance machinery of
/// [`Experiment::run_unified`] ([`UnifiedOptions::recovery`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOptions {
    /// Checkpoint every this many controller invocations (clamped to ≥ 1).
    pub checkpoint_interval: u64,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            checkpoint_interval: 20,
        }
    }
}

/// What the crash-tolerance machinery did during one recoverable run.
/// Reported out-of-band so the recovered [`Report`] stays bit-identical to
/// an uninterrupted run of the same seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Injected crashes that fired.
    pub crashes: u64,
    /// Successful recoveries (always equals `crashes` on success).
    pub recoveries: u64,
    /// Checkpoints taken (including the initial step-0 checkpoint).
    pub checkpoints: u64,
    /// Journal records replayed across all recoveries.
    pub replayed_records: u64,
    /// Replayed invocations that failed to reproduce the journaled record
    /// bit-for-bit. Must be zero for a deterministic stack.
    pub replay_divergences: u64,
    /// Mode-automaton invariant violations observed by the engine over the
    /// whole run (actuation gaps, dual writers, flapping, illegal
    /// swap/recovery events). Must be zero for a correct stack.
    pub invariant_violations: u64,
}

/// A mid-run controller hot-swap, specified by recipe so recovery can
/// rebuild the replacement deterministically after a crash (a heap-only
/// controller instance cannot be re-created from a checkpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapSpec {
    /// Invocation index just before which the swap commits.
    pub at_step: u64,
    /// Scheme to instantiate as the replacement; `None` re-instantiates
    /// the experiment's own scheme (the zero-change resynthesis case).
    pub scheme: Option<Scheme>,
}

/// Request-serving configuration of a run: an open-loop arrival process
/// feeding a bounded admission queue in front of the plant, with tail
/// latency observed back into both controllers' senses as [`SloSense`]
/// and the SLO bound taken from [`Limits::latency_slo_s`]. Optionally an
/// external frequency cap throttles the big cluster for the whole run —
/// the destructive-interference case where an outside actor (thermal
/// daemon, power capper) shrinks capacity while the OS layer scales up.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServingSpec {
    /// Open-loop arrival process (pattern, rate, load factor, seed).
    pub traffic: TrafficConfig,
    /// Admission queue (backlog cap, timeout, stats window).
    pub queue: QueueConfig,
    /// External big-cluster frequency cap (GHz), strictly a capper on top
    /// of whatever the controllers command (`None` = no interference).
    pub ext_cap_f_big: Option<f64>,
}

impl ServingSpec {
    /// Rejects non-finite/degenerate traffic, queue, SLO-bound, and cap
    /// parameters with typed errors before a run starts.
    ///
    /// # Errors
    ///
    /// [`yukta_linalg::Error::NoSolution`] naming the offending group.
    pub fn validate(&self, limits: &Limits) -> Result<()> {
        if self.traffic.validate().is_err() {
            return Err(Error::NoSolution {
                op: "serving_spec",
                why: "invalid traffic config (see TrafficConfig::validate)",
            });
        }
        if self.queue.validate().is_err() {
            return Err(Error::NoSolution {
                op: "serving_spec",
                why: "invalid queue config (see QueueConfig::validate)",
            });
        }
        if !(limits.latency_slo_s.is_finite() && limits.latency_slo_s > 0.0) {
            return Err(Error::NoSolution {
                op: "serving_spec",
                why: "latency SLO bound must be finite and positive",
            });
        }
        if let Some(cap) = self.ext_cap_f_big {
            if !(cap.is_finite() && cap > 0.0) {
                return Err(Error::NoSolution {
                    op: "serving_spec",
                    why: "external frequency cap must be finite and positive",
                });
            }
        }
        Ok(())
    }
}

/// The composed run configuration of [`Experiment::run_unified`]: any mix
/// of supervision, fault injection, one mid-run hot-swap, crash recovery,
/// and request serving, all driven through the checked mode automaton.
#[derive(Debug, Clone, Default)]
pub struct UnifiedOptions {
    /// Wrap the controllers in the fault-containment supervisor
    /// (validated via [`SupervisorConfig::validate`]).
    pub sup_cfg: Option<SupervisorConfig>,
    /// Fault-injection plan corrupting the board interface; its crash
    /// points require `recovery`.
    pub plan: Option<FaultPlan>,
    /// One mid-run controller hot-swap.
    pub swap: Option<SwapSpec>,
    /// Enable journaling + checkpoint/restore crash tolerance.
    pub recovery: Option<RecoveryOptions>,
    /// Attach a request-serving layer (validated via
    /// [`ServingSpec::validate`]). `None` keeps the run a pure batch
    /// execution, bit-identical to the pre-serving runtime.
    pub serving: Option<ServingSpec>,
}

/// The health policy of [`Experiment::run_adaptive`]: the monitor that
/// observes the run and the detector-triggered hot-swaps it may commit.
/// Supervision and the fault plan come from the run's [`UnifiedOptions`].
#[derive(Debug, Clone)]
pub struct AdaptiveOptions {
    /// Health monitor configuration (validated via
    /// [`HealthConfig::validate`]).
    pub health: HealthConfig,
    /// Scheme serving at the start of the run; `None` starts on the
    /// experiment's own scheme (each swap always installs the
    /// experiment's scheme).
    pub initial: Option<Scheme>,
    /// Cap on detector-triggered hot-swaps for the whole run; `0`
    /// attaches the monitor as a pure observer.
    pub max_swaps: u32,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            health: HealthConfig::default(),
            initial: None,
            max_swaps: 1,
        }
    }
}

/// One completed observe → detect → re-identify → hot-swap cycle of
/// [`Experiment::run_adaptive`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapCycle {
    /// Invocation whose verdict fired the detector.
    pub detect_step: u64,
    /// Invocation just before which the replacement committed (always the
    /// one after `detect_step` — the swap lands in the next period).
    pub swap_step: u64,
    /// Worst-output relative RMS residual of the online refit on its own
    /// training window (−1.0 when the regression failed and the swap
    /// proceeded against the original model).
    pub fit_residual: f64,
    /// Whether the controller state transferred bumplessly.
    pub bumpless: bool,
}

/// The outcome of [`Experiment::run_adaptive`].
#[derive(Debug)]
pub struct AdaptiveRun {
    /// The run's report.
    pub report: Report,
    /// Health-monitor aggregates over the whole run.
    pub health: HealthStats,
    /// Detector-triggered swap cycles, in order.
    pub cycles: Vec<SwapCycle>,
    /// Mode-automaton invariant violations observed by the engine. Must
    /// be zero: every swap flows through the request→commit protocol.
    pub invariant_violations: u64,
}

/// The outcome of [`Experiment::run_unified`].
#[derive(Debug)]
pub struct RecoveredRun {
    /// The run's report — bit-identical to an uninterrupted run.
    pub report: Report,
    /// The complete flight-recorder journal of the run.
    pub journal: Journal,
    /// Crash/recovery counters.
    pub recovery: RecoveryReport,
}

/// The complete resumable state of a run between controller invocations:
/// the board (plant, sensors, TMU, fault injector, RNGs), the workload
/// position, the accumulated trace, and the windowed-BIPS bookkeeping.
#[derive(Clone)]
struct RunState {
    board: Board,
    run: WorkloadRun,
    trace: Trace,
    steps_per_invocation: usize,
    last_instr_big: f64,
    last_instr_little: f64,
    completed: bool,
    done: bool,
    /// Completed controller invocations so far.
    step: u64,
    /// Length of the board's fault trace already attributed to journal
    /// records (the next record carries the delta).
    fault_trace_len: usize,
    /// Wall-clock `invoke` accounting (rolled back with the checkpoint on
    /// crash recovery; replayed invocations are re-measured).
    compute: ComputeStats,
    /// Engine mode at the previous invocation, for `supervisor.transition`
    /// telemetry events.
    last_mode: Option<SupervisorMode>,
    /// Whether the run's one hot-swap has committed (rolled back with the
    /// checkpoint on crash recovery, so the replay re-performs it).
    swapped: bool,
    /// Request-serving state (`None` for batch runs). Cloned with the
    /// checkpoint — the traffic RNG and queue roll back with everything
    /// else, so crash recovery replays the identical arrival stream.
    serving: Option<ServingState>,
}

/// Live request-serving state of one run.
#[derive(Clone)]
struct ServingState {
    /// Open-loop arrival process (owns its own RNG stream, salted away
    /// from the fault injector's).
    traffic: Traffic,
    /// Admission queue fed by the board's delivered instructions.
    queue: RequestQueue,
    /// Shed fraction commanded at the previous invocation, applied to
    /// this window's arrivals (the actuation pipeline has one period of
    /// latency like every other knob).
    shed_frac: f64,
    /// Highest shed fraction commanded so far.
    max_shed_frac: f64,
    /// Serving invocations observed.
    invocations: u64,
    /// Invocations whose windowed p99 exceeded the SLO bound.
    violations: u64,
}

/// One recovery point: a deep copy of the run state, the engine snapshot,
/// and how much of the journal was already written when it was taken.
struct Checkpoint {
    state: RunState,
    engine: EngineState,
    journal_len: usize,
}

/// The crash-tolerance hook of the run loop: the latest checkpoint, the
/// plan's pending crash points and, after a crash, the replay of the
/// journal suffix past the checkpoint.
struct Recovery<'r> {
    interval: u64,
    ckpt: Checkpoint,
    /// Crash points, soonest first; consumed as they fire so recovery
    /// does not re-crash at the same step.
    pending: Vec<u64>,
    report: RecoveryReport,
    /// The replay in progress. While it runs, the loop's passes check
    /// their records against the journal instead of appending them, and
    /// take no checkpoint and fire no crash.
    replay: Option<Replay<'r>>,
}

/// A recovery replaying the journal suffix past its checkpoint.
struct Replay<'r> {
    /// Index of the journal record the next pass must reproduce.
    next: usize,
    span: yukta_obs::Span<'r>,
}

impl Recovery<'_> {
    /// Checkpoints the run when it reaches a new multiple of the interval.
    fn checkpoint(
        &mut self,
        rec: &dyn Recorder,
        st: &RunState,
        engine: &Engine,
        journal_len: usize,
    ) {
        if st.step <= self.ckpt.state.step || !st.step.is_multiple_of(self.interval) {
            return;
        }
        let span = yukta_obs::span(rec, "runtime.checkpoint");
        self.ckpt = Checkpoint {
            state: st.clone(),
            engine: engine.save_state(),
            journal_len,
        };
        self.report.checkpoints += 1;
        if rec.enabled() {
            span.end_with(&[
                ("step", Value::U64(st.step)),
                ("journal_len", Value::U64(journal_len as u64)),
            ]);
        }
    }

    /// Checks one replayed pass against the journal record it must
    /// reproduce, and ends the replay once the suffix is exhausted. A run
    /// that ends inside the suffix is a divergence: the journal says the
    /// invocation completed.
    fn check_replayed(
        &mut self,
        rec: &dyn Recorder,
        record: Option<&JournalRecord>,
        journal: &Journal,
        engine: &mut Engine,
        st: &RunState,
    ) {
        let Some(replay) = self.replay.as_mut() else {
            return;
        };
        let more = match record {
            Some(r) => {
                self.report.replayed_records += 1;
                if !r.bit_identical(&journal.records()[replay.next]) {
                    self.report.replay_divergences += 1;
                }
                replay.next += 1;
                replay.next < journal.len()
            }
            None => {
                self.report.replay_divergences += 1;
                false
            }
        };
        if !more {
            self.end_replay(rec, engine, st, journal.len());
        }
    }

    fn end_replay(
        &mut self,
        rec: &dyn Recorder,
        engine: &mut Engine,
        st: &RunState,
        journal_len: usize,
    ) {
        let Some(replay) = self.replay.take() else {
            return;
        };
        engine.end_recovery();
        self.report.recoveries += 1;
        if rec.enabled() {
            replay.span.end_with(&[
                ("step", Value::U64(st.step)),
                (
                    "replayed",
                    Value::U64((journal_len - self.ckpt.journal_len) as u64),
                ),
                ("divergences", Value::U64(self.report.replay_divergences)),
            ]);
        }
    }
}

/// The adaptive hook of the run loop: the health tap observing every
/// record and the detect → re-identify → hot-swap cycles it commits.
struct Adaptation {
    tap: HealthTap,
    max_swaps: u32,
    /// Invocation whose `PhaseChange` verdict awaits its swap, one period
    /// later.
    pending_detect: Option<u64>,
    cycles: Vec<SwapCycle>,
}

impl Adaptation {
    /// Feeds one record to the tap and, on a `PhaseChange` verdict while
    /// swaps remain, schedules a swap for the next period.
    fn observe(&mut self, rec: &dyn Recorder, record: &JournalRecord) {
        let verdict = self.tap.observe(record);
        if rec.enabled() {
            emit_verdict(rec, record.step, verdict);
        }
        if let HealthVerdict::PhaseChange { .. } = verdict {
            if (self.cycles.len() as u32) < self.max_swaps {
                self.pending_detect = Some(record.step);
            }
        }
    }

    /// Re-identifies the plant from the tap's retained window, returning
    /// the refit model (`None` when the regression failed and the swap
    /// proceeds against the original model) and the worst-output relative
    /// RMS residual on its own training window (−1.0 on failure).
    fn refit(&self, rec: &dyn Recorder, step: u64) -> (Option<StateSpace>, f64) {
        // The orders mirror the design pipeline's; ridge regularization
        // keeps the regression posed on closed-loop data (inputs
        // correlate with outputs).
        let refit_cfg = yukta_control::sysid::SysIdConfig {
            na: 2,
            nb: 2,
            nc: 0,
            plr_iters: 0,
            ridge: 1e-4,
        };
        let (u, y) = self.tap.history();
        let refit = fit_arx(u, y, refit_cfg)
            .and_then(|m| validation_residual(u, y, &m).map(|r| (m.sys, r)))
            .ok();
        let fit_residual = refit.as_ref().map_or(-1.0, |(_, r)| *r);
        if rec.enabled() {
            rec.event(
                "health.refit",
                &[
                    ("step", Value::U64(step)),
                    ("fit_residual", Value::F64(fit_residual)),
                ],
            );
        }
        (refit.map(|(m, _)| m), fit_residual)
    }
}

/// An experiment: a scheme plus the design artifacts it deploys.
pub struct Experiment {
    scheme: Scheme,
    design: Design,
    options: RunOptions,
    recorder: Option<Arc<dyn Recorder>>,
}

impl Experiment {
    /// Creates an experiment against the cached default design.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid schemes; kept fallible for parity
    /// with [`Experiment::run`] call sites.
    pub fn new(scheme: Scheme) -> Result<Self> {
        Ok(Experiment {
            scheme,
            design: default_design().clone(),
            options: RunOptions::default(),
            recorder: None,
        })
    }

    /// Creates an experiment against an explicit design (sensitivity
    /// studies).
    pub fn with_design(scheme: Scheme, design: Design) -> Self {
        Experiment {
            scheme,
            design,
            options: RunOptions::default(),
            recorder: None,
        }
    }

    /// Creates an experiment whose *entire* pipeline is seeded from
    /// `seed`: the identification excitation (via the per-seed design
    /// cache, so the design is built once and replayed bit-identically)
    /// and the board RNG (`RunOptions::board_seed`). Two experiments
    /// created with the same seed produce bit-identical designs and runs —
    /// the contract crash-recovery replay depends on.
    ///
    /// Note that a later `with_options` call replaces the whole
    /// [`RunOptions`], including the board seed set here.
    ///
    /// # Errors
    ///
    /// Propagates design-pipeline failures from
    /// [`crate::design::design_for_seed`].
    pub fn with_seed(scheme: Scheme, seed: u64) -> Result<Self> {
        let design = crate::design::design_for_seed(seed)?;
        Ok(Experiment {
            scheme,
            design,
            options: RunOptions {
                board_seed: Some(seed),
                ..Default::default()
            },
            recorder: None,
        })
    }

    /// Overrides the run options.
    pub fn with_options(mut self, options: RunOptions) -> Self {
        self.options = options;
        self
    }

    /// Attaches an explicit telemetry recorder to this experiment's runs.
    /// Without one, runtime telemetry goes to the process-global recorder
    /// ([`yukta_obs::handle`]) — the shared no-op unless a bench installed
    /// a sink. Recording never perturbs the run: an instrumented run's
    /// [`Report`] is bit-identical to an uninstrumented one.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The recorder serving this experiment's runtime telemetry.
    fn rec(&self) -> &dyn Recorder {
        match &self.recorder {
            Some(r) => r.as_ref(),
            None => yukta_obs::handle(),
        }
    }

    /// A cloneable handle on the same recorder, for the board.
    fn obs_handle(&self) -> ObsHandle {
        match &self.recorder {
            Some(r) => ObsHandle::new(Arc::clone(r)),
            None => ObsHandle::default(),
        }
    }

    /// The scheme under test.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The design in use.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Runs the workload to completion under this scheme.
    ///
    /// # Errors
    ///
    /// Propagates controller-instantiation failures.
    pub fn run(&self, workload: &Workload) -> Result<Report> {
        let controllers = self.scheme.instantiate(&self.design, self.options.limits)?;
        self.run_with_controllers(workload, controllers)
    }

    /// Runs with externally supplied controllers (used by the fixed-target
    /// and sensitivity experiments) on the raw engine: no supervisor,
    /// faults, swap, recovery or serving.
    ///
    /// # Errors
    ///
    /// Propagates typed numerical errors from controller invocations.
    pub fn run_with_controllers(
        &self,
        workload: &Workload,
        controllers: Controllers,
    ) -> Result<Report> {
        let run = self.drive(
            workload,
            &UnifiedOptions::default(),
            controllers,
            None,
            false,
        )?;
        Ok(run.report)
    }

    /// The composed entry point: any mix of supervision, fault injection,
    /// a mid-run hot-swap, crash recovery and request serving, all flowing
    /// through the checked mode automaton — including a crash that lands
    /// between swap-request and swap-commit, which recovery replays to a
    /// bit-identical outcome.
    ///
    /// A supervised run with no plan (or a zero-severity one) is
    /// bit-identical to [`Experiment::run`]: the supervisor is
    /// transparent. With `recovery` set, every invocation is journaled,
    /// the complete run state is checkpointed every
    /// [`RecoveryOptions::checkpoint_interval`] invocations, and the
    /// plan's crash points ([`FaultPlan::with_crash`]) kill the controller
    /// process mid-invocation. Each crash is recovered by rebuilding the
    /// engine from scratch, restoring the latest checkpoint, and replaying
    /// the journal suffix, verified bit-for-bit against the journal.
    /// Crashes are driven by the invocation counter and reported
    /// out-of-band in the [`RecoveryReport`], so they never perturb the
    /// fault-injection RNG stream or the plant: the recovered report is
    /// bit-identical to the same run with the crash points cleared and
    /// recovery off.
    ///
    /// # Errors
    ///
    /// Typed [`yukta_linalg::Error::NoSolution`] on invalid combinations:
    /// a flapping-prone supervisor configuration
    /// ([`SupervisorConfig::validate`]), an invalid [`ServingSpec`], or
    /// crash points in the plan without recovery enabled. Propagates
    /// controller-instantiation and restore failures.
    ///
    /// # Panics
    ///
    /// Re-raises non-injected panics from the controller stack.
    pub fn run_unified(&self, workload: &Workload, opts: UnifiedOptions) -> Result<RecoveredRun> {
        let controllers = self.scheme.instantiate(&self.design, self.options.limits)?;
        self.drive(workload, &opts, controllers, None, true)
    }

    /// [`Experiment::run_unified`] with the loop-health monitor attached
    /// (DESIGN.md §16): every invocation record is distilled into health
    /// signals and streamed through the drift/phase-change detectors. On a
    /// `PhaseChange` verdict, while fewer than
    /// [`AdaptiveOptions::max_swaps`] swaps have committed, the runtime
    /// re-identifies the plant from the tap's retained history
    /// ([`fit_arx`] over the last ≤ 128 s of normalized records), installs
    /// the refit model as the tap's new residual reference, and in the
    /// next period hot-swaps the serving controllers for a fresh
    /// instantiation of the experiment's scheme from its cached design.
    /// Nothing is resynthesized. The swap goes through the same
    /// request→commit helper as a scheduled [`SwapSpec`], so every swap is
    /// audited for actuation gaps and dual writers.
    ///
    /// With `max_swaps: 0` the monitor is a pure observer: the report is
    /// bit-identical to [`Experiment::run_unified`] with the same options,
    /// because the monitor never touches the board, the engine, or the RNG
    /// streams, and emits telemetry only when the recorder is enabled.
    /// With [`AdaptiveOptions::initial`] set, the run *starts* on that
    /// scheme and each swap installs the experiment's own scheme.
    ///
    /// # Errors
    ///
    /// Typed [`Error::NoSolution`] on an invalid [`HealthConfig`], on
    /// `recovery` (the tap is not checkpointed, so a crash could not be
    /// replayed) or a scheduled `swap` in `opts`, and on everything
    /// [`Experiment::run_unified`] rejects; propagates
    /// controller-instantiation failures.
    pub fn run_adaptive(
        &self,
        workload: &Workload,
        opts: UnifiedOptions,
        adaptive: AdaptiveOptions,
    ) -> Result<AdaptiveRun> {
        if opts.recovery.is_some() {
            return Err(Error::NoSolution {
                op: "run_adaptive",
                why: "the health tap is not checkpointed, so a crash could not be recovered",
            });
        }
        if opts.swap.is_some() {
            return Err(Error::NoSolution {
                op: "run_adaptive",
                why: "a scheduled swap cannot be combined with detector-triggered swaps",
            });
        }
        let tap = HealthTap::new(&self.design, adaptive.health).map_err(|_| Error::NoSolution {
            op: "health_config",
            why: "invalid health configuration (see HealthConfig::validate)",
        })?;
        let mut adapt = Adaptation {
            tap,
            max_swaps: adaptive.max_swaps,
            pending_detect: None,
            cycles: Vec::new(),
        };
        let initial = adaptive.initial.unwrap_or(self.scheme);
        let controllers = initial.instantiate(&self.design, self.options.limits)?;
        let run = self.drive(workload, &opts, controllers, Some(&mut adapt), false)?;
        let rec = self.rec();
        if rec.enabled() {
            adapt.tap.publish(rec);
        }
        Ok(AdaptiveRun {
            report: run.report,
            health: adapt.tap.stats(),
            cycles: adapt.cycles,
            invariant_violations: run.recovery.invariant_violations,
        })
    }

    /// Fresh run state at simulated time zero.
    fn init_state(
        &self,
        workload: &Workload,
        plan: Option<&FaultPlan>,
        serving: Option<&ServingSpec>,
    ) -> RunState {
        let mut cfg = BoardConfig::odroid_xu3();
        if let Some(seed) = self.options.board_seed {
            cfg.seed = seed;
        }
        let steps_per_invocation = (0.5 / cfg.dt).round() as usize;
        let mut board = match plan {
            Some(p) => Board::with_faults(cfg, p.clone()),
            None => Board::new(cfg),
        };
        board.set_obs(self.obs_handle());
        if let Some(spec) = serving {
            board.set_external_cap_f_big(spec.ext_cap_f_big);
        }
        let serving = serving.map(|spec| ServingState {
            traffic: Traffic::new(spec.traffic),
            queue: RequestQueue::new(spec.queue),
            shed_frac: 0.0,
            max_shed_frac: 0.0,
            invocations: 0,
            violations: 0,
        });
        RunState {
            board,
            run: WorkloadRun::new(workload),
            trace: Trace::new(),
            steps_per_invocation,
            last_instr_big: 0.0,
            last_instr_little: 0.0,
            completed: false,
            done: false,
            step: 0,
            fault_trace_len: 0,
            compute: ComputeStats::default(),
            last_mode: None,
            swapped: false,
            serving,
        }
    }

    /// One controller period: evolve the plant for 500 ms, gather both
    /// layers' sensor views, invoke the engine, actuate, and journal.
    ///
    /// Returns `None` when the run ended (workload done or timeout) during
    /// the plant-evolution phase, before the controllers were invoked.
    ///
    /// With `crash_here` the injected crash fires after the plant evolved
    /// but before the sense/invoke/actuate half of the invocation — the
    /// partial step must be discarded by recovery, exactly as a daemon
    /// dying between sysfs reads would lose its in-flight work.
    fn step_invocation(
        &self,
        st: &mut RunState,
        engine: &mut Engine,
        crash_here: bool,
    ) -> Result<Option<JournalRecord>> {
        // One controller period of plant evolution.
        for _ in 0..st.steps_per_invocation {
            let rep = st.board.step(st.run.loads());
            st.run.advance(rep.thread_progress);
            if st.run.is_done() {
                st.completed = true;
                st.done = true;
                return Ok(None);
            }
            if st.board.time() >= self.options.timeout_s {
                st.done = true;
                return Ok(None);
            }
        }
        if crash_here {
            std::panic::panic_any(InjectedCrash { step: st.step });
        }
        // Gather both layers' sensor views.
        let bs = st.board.state();
        let now = st.board.time();
        let ib = st.board.instructions(Cluster::Big);
        let il = st.board.instructions(Cluster::Little);
        let bips_big = (ib - st.last_instr_big) / 0.5;
        let bips_little = (il - st.last_instr_little) / 0.5;
        st.last_instr_big = ib;
        st.last_instr_little = il;
        let n_active = st.run.active_threads();
        let tb_actual = bs.placement.threads_big.min(n_active);
        // Serving layer: serve the backlog with the instructions the board
        // actually delivered this window, admit this window's arrivals
        // (they wait for the next window — no serve-before-arrival), then
        // observe windowed tail latency into both controllers' senses.
        let slo = match &mut st.serving {
            Some(sv) => {
                let capacity_gi = (bips_big + bips_little) * 0.5;
                sv.queue.advance(now - 0.5, now, capacity_gi);
                for r in sv.traffic.tick(0.5) {
                    sv.queue.offer(r.arrival_s, r.demand_gi, sv.shed_frac);
                }
                let snap = sv.queue.latency_snapshot();
                let seen = snap.completed + snap.dropped;
                let drop_frac = if seen > 0 {
                    snap.dropped as f64 / seen as f64
                } else {
                    0.0
                };
                sv.invocations += 1;
                if snap.p99_s > self.options.limits.latency_slo_s {
                    sv.violations += 1;
                }
                SloSense {
                    active: true,
                    p95_s: snap.p95_s,
                    p99_s: snap.p99_s,
                    backlog_frac: snap.backlog_frac,
                    drop_frac,
                }
            }
            None => SloSense::default(),
        };
        let hw_outputs = HwOutputs {
            perf: bips_big + bips_little,
            p_big: st.board.read_power(Cluster::Big),
            p_little: st.board.read_power(Cluster::Little),
            temp: st.board.read_temp(),
        };
        let os_outputs = OsOutputs {
            perf_little: bips_little,
            perf_big: bips_big,
            spare_diff: spare_capacity(bs.big_cores, tb_actual)
                - spare_capacity(bs.little_cores, n_active - tb_actual),
        };
        let current_hw = HwInputs {
            big_cores: bs.big_cores as f64,
            little_cores: bs.little_cores as f64,
            f_big: bs.f_big,
            f_little: bs.f_little,
        };
        let current_os = OsInputs {
            threads_big: tb_actual as f64,
            packing_big: bs.placement.packing_big,
            packing_little: bs.placement.packing_little,
        };
        let hw_sense = HwSense {
            outputs: hw_outputs,
            ext: current_os,
            current: current_hw,
            active_threads: n_active,
            slo,
            limits: self.options.limits,
        };
        let os_sense = OsSense {
            outputs: os_outputs,
            ext: current_hw,
            current: current_os,
            active_threads: n_active,
            system: hw_outputs,
            slo,
            limits: self.options.limits,
        };
        // Invoke the controllers (both see the pre-invocation state,
        // like the prototype's independent processes). Wall-clock timing is
        // always on: ComputeStats is the production jitter budget and two
        // `Instant` reads are noise next to one controller invocation.
        let rec = self.rec();
        let span = yukta_obs::span(rec, "runtime.invoke");
        let t0 = Instant::now();
        let invoke_result = engine.invoke(&hw_sense, &os_sense);
        // Drain the automaton's transition log even on the error path so
        // an aborted invocation cannot leave stale records behind.
        let transitions = engine.drain_transitions();
        let (hw_u, os_u) = invoke_result?;
        let invoke_ns = t0.elapsed().as_nanos() as u64;
        let mode = engine.mode();
        if rec.enabled() {
            span.end_with(&[
                ("step", Value::U64(st.step)),
                ("t_sim", Value::F64(now)),
                ("mode", Value::Str(mode_label(mode))),
            ]);
            rec.hist_record("runtime.invoke_ns", invoke_ns as f64);
            if mode != st.last_mode {
                rec.event(
                    "supervisor.transition",
                    &[
                        ("from", Value::Str(mode_label(st.last_mode))),
                        ("to", Value::Str(mode_label(mode))),
                        ("step", Value::U64(st.step)),
                        ("t_sim", Value::F64(now)),
                    ],
                );
            }
            // Every automaton transition this invocation, with its cause —
            // the audited choke point's own account of the mode machine.
            for t in &transitions {
                rec.event(
                    "mode.transition",
                    &[
                        ("from", Value::Str(level_label(t.from))),
                        ("to", Value::Str(level_label(t.to))),
                        ("cause", Value::Str(t.cause)),
                        ("step", Value::U64(st.step)),
                        ("t_sim", Value::F64(now)),
                    ],
                );
            }
        } else {
            drop(span);
        }
        st.last_mode = mode;
        // The shed fraction the supervisor just committed takes effect on
        // the *next* window's admissions — one controller period of
        // actuation latency, like every other knob.
        if let Some(sv) = &mut st.serving {
            sv.shed_frac = engine.shed_frac();
            sv.max_shed_frac = sv.max_shed_frac.max(sv.shed_frac);
        }
        st.compute.invocations += 1;
        st.compute.total_ns += invoke_ns;
        st.compute.max_ns = st.compute.max_ns.max(invoke_ns);
        st.board.actuate(&Actuation {
            f_big: Some(hw_u.f_big),
            f_little: Some(hw_u.f_little),
            big_cores: Some(hw_u.big_cores.round() as usize),
            little_cores: Some(hw_u.little_cores.round() as usize),
            placement: Some(Placement {
                threads_big: os_u.threads_big.round() as usize,
                packing_big: os_u.packing_big,
                packing_little: os_u.packing_little,
            }),
        });
        if self.options.keep_trace {
            st.trace.push(TraceSample {
                time: now,
                p_big: hw_outputs.p_big,
                p_little: hw_outputs.p_little,
                temp: bs.t_hot,
                bips: hw_outputs.perf,
                bips_big,
                bips_little,
                f_big: bs.f_big,
                f_little: bs.f_little,
                big_cores: bs.big_cores,
                little_cores: bs.little_cores,
                threads_big: tb_actual,
                active_threads: n_active,
            });
        }
        // Fault events injected during this period (sensor faults from the
        // reads above, actuator faults from the actuation just applied).
        let fault_events = match st.board.fault_trace() {
            Some(t) => {
                let ev = t[st.fault_trace_len..].to_vec();
                st.fault_trace_len = t.len();
                ev
            }
            None => Vec::new(),
        };
        let record = JournalRecord {
            step: st.step,
            time: now,
            hw_sense,
            os_sense,
            hw_u,
            os_u,
            mode,
            fault_events,
        };
        st.step += 1;
        Ok(Some(record))
    }

    /// Assembles the final report from a finished run state.
    fn finish(
        &self,
        st: RunState,
        engine: &Engine,
        plan: Option<&FaultPlan>,
        workload: &Workload,
    ) -> Report {
        let supervisor = match engine {
            Engine::Supervised(s) => Some(s.stats()),
            Engine::Raw { .. } => None,
        };
        let faults = plan.map(|p| FaultReport {
            seed: p.seed,
            severity: p.severity,
            stats: st.board.fault_stats().unwrap_or_default(),
            trace: st.board.fault_trace().unwrap_or_default().to_vec(),
        });
        let slo = st.serving.as_ref().map(|sv| {
            let qs = sv.queue.stats();
            SloReport {
                offered: qs.offered,
                admitted: qs.admitted,
                shed: qs.shed,
                rejected: qs.rejected,
                timed_out: qs.timed_out,
                completed: qs.completed,
                p95_s: sv.queue.lifetime_quantile(0.95).unwrap_or(0.0),
                p99_s: sv.queue.lifetime_quantile(0.99).unwrap_or(0.0),
                violation_frac: if sv.invocations == 0 {
                    0.0
                } else {
                    sv.violations as f64 / sv.invocations as f64
                },
                max_shed_frac: sv.max_shed_frac,
            }
        });
        Report {
            workload: workload.name.clone(),
            scheme: self.scheme.label().to_string(),
            metrics: Metrics {
                energy_joules: st.board.energy(),
                delay_seconds: st.board.time(),
                completed: st.completed,
            },
            trace: st.trace,
            supervisor,
            faults,
            slo,
            actuation: st.board.actuation_audit(),
            compute: st.compute,
        }
    }

    /// The run loop behind every entry point. Each pass is one controller
    /// period through [`Experiment::step_invocation`], with hooks around
    /// it: before the invocation, a due checkpoint, a crash point and the
    /// pass's hot-swap (the scheduled one, or the adaptive policy's one
    /// period after a detection); after it, the health tap and the journal
    /// append. Each pass runs under `catch_unwind`. An injected crash
    /// restores the latest checkpoint, and the following passes replay
    /// the journal suffix: they check their
    /// records against the journal instead of appending them, re-perform
    /// a swap the rollback undid, and take no checkpoint and fire no crash.
    ///
    /// The journal is kept when the caller returns it (`keep_journal`) or
    /// recovery replays it; otherwise each record is dropped after the
    /// health tap has seen it.
    fn drive(
        &self,
        workload: &Workload,
        opts: &UnifiedOptions,
        controllers: Controllers,
        mut adapt: Option<&mut Adaptation>,
        keep_journal: bool,
    ) -> Result<RecoveredRun> {
        if let Some(cfg) = &opts.sup_cfg {
            cfg.validate()?;
        }
        if let Some(spec) = &opts.serving {
            spec.validate(&self.options.limits)?;
        }
        let crash_steps = opts
            .plan
            .as_ref()
            .map(FaultPlan::crash_steps)
            .unwrap_or_default();
        if !crash_steps.is_empty() && opts.recovery.is_none() {
            return Err(Error::NoSolution {
                op: "run_unified",
                why: "crash points in the fault plan require recovery to be enabled",
            });
        }
        let rec = self.rec();
        let mut engine = Engine::new(controllers, opts.sup_cfg);
        let mut st = self.init_state(workload, opts.plan.as_ref(), opts.serving.as_ref());
        let mut journal = Journal::new();
        let mut recovery = opts.recovery.map(|r| Recovery {
            interval: r.checkpoint_interval.max(1),
            ckpt: Checkpoint {
                state: st.clone(),
                engine: engine.save_state(),
                journal_len: 0,
            },
            pending: crash_steps,
            report: RecoveryReport {
                checkpoints: 1,
                ..Default::default()
            },
            replay: None,
        });
        let keep_journal = keep_journal || recovery.is_some();
        while !st.done {
            let mut crash_here = false;
            if let Some(r) = recovery.as_mut().filter(|r| r.replay.is_none()) {
                r.checkpoint(rec, &st, &engine, journal.len());
                crash_here = r.pending.first() == Some(&st.step);
            }
            let swap_to = match opts.swap {
                Some(spec) if !st.swapped && st.step == spec.at_step => {
                    Some(spec.scheme.unwrap_or(self.scheme))
                }
                _ => None,
            };
            let pass = catch_unwind(AssertUnwindSafe(|| {
                if let Some(scheme) = swap_to {
                    // A crash at the swap step lands inside the swap
                    // window, between request and commit.
                    self.swap(&mut st, &mut engine, scheme, crash_here)?;
                }
                if let Some(a) = adapt.as_deref_mut() {
                    if let Some(detect_step) = a.pending_detect.take() {
                        let (model, fit_residual) = a.refit(rec, st.step);
                        let swap_step = st.step;
                        let bumpless = self.swap(&mut st, &mut engine, self.scheme, false)?;
                        a.tap.rearm_after_swap(model);
                        a.cycles.push(SwapCycle {
                            detect_step,
                            swap_step,
                            fit_residual,
                            bumpless,
                        });
                    }
                }
                let record =
                    self.step_invocation(&mut st, &mut engine, crash_here && swap_to.is_none())?;
                if let Some(r) = recovery.as_mut().filter(|r| r.replay.is_some()) {
                    r.check_replayed(rec, record.as_ref(), &journal, &mut engine, &st);
                } else if let Some(record) = record {
                    if let Some(a) = adapt.as_deref_mut() {
                        a.observe(rec, &record);
                    }
                    if keep_journal {
                        journal.push(record);
                        if rec.enabled() {
                            rec.counter_add("runtime.journal_records", 1);
                        }
                    }
                }
                Ok(())
            }));
            let payload = match pass {
                Ok(result) => {
                    result?;
                    continue;
                }
                Err(payload) => payload,
            };
            if !payload.is::<InjectedCrash>() {
                resume_unwind(payload);
            }
            let Some(r) = recovery.as_mut() else {
                // Unreachable: crashes were rejected above unless recovery
                // is enabled.
                resume_unwind(payload);
            };
            r.pending.remove(0);
            r.report.crashes += 1;
            if rec.enabled() {
                rec.event("runtime.crash", &[("step", Value::U64(st.step))]);
            }
            // The daemon died mid-invocation: its partial step is lost.
            // Restart from the binary (fresh instantiation), load the
            // checkpoint, replay the journal suffix. The checkpoint may
            // postdate a committed hot-swap, in which case the serving
            // controllers are the swap recipe's, not the experiment's own
            // scheme.
            let span = yukta_obs::span(rec, "runtime.recover");
            let serving = match (r.ckpt.state.swapped, opts.swap) {
                (true, Some(spec)) => spec.scheme.unwrap_or(self.scheme),
                _ => self.scheme,
            };
            let controllers = serving.instantiate(&self.design, self.options.limits)?;
            engine = Engine::new(controllers, opts.sup_cfg);
            engine.restore_state(&r.ckpt.engine)?;
            engine.begin_recovery();
            st = r.ckpt.state.clone();
            r.replay = Some(Replay {
                next: r.ckpt.journal_len,
                span,
            });
            if r.ckpt.journal_len == journal.len() {
                r.end_replay(rec, &mut engine, &st, journal.len());
            }
        }
        let mut recovery = recovery.map(|r| r.report).unwrap_or_default();
        recovery.invariant_violations = engine.violations();
        let report = self.finish(st, &engine, opts.plan.as_ref(), workload);
        Ok(RecoveredRun {
            report,
            journal,
            recovery,
        })
    }

    /// Stages and commits a hot-swap to a fresh instantiation of `scheme`
    /// through the automaton's request→commit protocol, returning whether
    /// the controller state transferred bumplessly. With `crash_here`, the
    /// injected crash fires inside the vulnerable window — after the
    /// request, before the commit — which is exactly the interleaving the
    /// chaos campaign must recover from bit-identically.
    fn swap(
        &self,
        st: &mut RunState,
        engine: &mut Engine,
        scheme: Scheme,
        crash_here: bool,
    ) -> Result<bool> {
        engine.request_swap();
        if crash_here {
            std::panic::panic_any(InjectedCrash { step: st.step });
        }
        let replacement = scheme.instantiate(&self.design, self.options.limits)?;
        let bumpless = engine.swap_primary(replacement);
        st.swapped = true;
        let rec = self.rec();
        if rec.enabled() {
            rec.event(
                "runtime.resynth",
                &[
                    ("step", Value::U64(st.step)),
                    ("bumpless", Value::Bool(bumpless)),
                ],
            );
        }
        Ok(bumpless)
    }

    /// Replays a journal against a freshly instantiated engine for this
    /// experiment's scheme, comparing every actuation bit-for-bit. This is
    /// the standing determinism invariant: `replay(journal)` must equal
    /// the original actuation stream exactly.
    ///
    /// # Errors
    ///
    /// Propagates controller-instantiation failures and raw-engine
    /// controller errors.
    pub fn replay_journal(
        &self,
        journal: &Journal,
        sup_cfg: Option<SupervisorConfig>,
    ) -> Result<ReplayOutcome> {
        let controllers = self.scheme.instantiate(&self.design, self.options.limits)?;
        let mut engine = Engine::new(controllers, sup_cfg);
        replay_with(journal, |hw, os| engine.invoke(hw, os))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yukta_workloads::catalog;

    fn quick_options() -> RunOptions {
        RunOptions {
            timeout_s: 400.0,
            ..Default::default()
        }
    }

    /// Supervised run options with an optional fault plan.
    fn supervised(plan: Option<FaultPlan>) -> UnifiedOptions {
        UnifiedOptions {
            sup_cfg: Some(SupervisorConfig::default()),
            plan,
            ..Default::default()
        }
    }

    #[test]
    fn coordinated_heuristic_completes_blackscholes() {
        let exp = Experiment::new(Scheme::CoordinatedHeuristic)
            .unwrap()
            .with_options(quick_options());
        let rep = exp.run(&catalog::parsec::blackscholes()).unwrap();
        assert!(
            rep.metrics.completed,
            "timed out at {}",
            rep.metrics.delay_seconds
        );
        assert!(rep.metrics.energy_joules > 10.0);
        assert!(rep.metrics.delay_seconds > 10.0);
        assert!(!rep.trace.samples.is_empty());
    }

    #[test]
    fn decoupled_heuristic_is_worse_than_coordinated() {
        let wl = catalog::spec::mcf();
        let coord = Experiment::new(Scheme::CoordinatedHeuristic)
            .unwrap()
            .with_options(quick_options())
            .run(&wl)
            .unwrap();
        let dec = Experiment::new(Scheme::DecoupledHeuristic)
            .unwrap()
            .with_options(quick_options())
            .run(&wl)
            .unwrap();
        assert!(coord.metrics.completed && dec.metrics.completed);
        assert!(
            dec.metrics.exd() > coord.metrics.exd() * 0.9,
            "decoupled {} vs coordinated {}",
            dec.metrics.exd(),
            coord.metrics.exd()
        );
    }

    #[test]
    fn yukta_ssv_ssv_is_competitive_with_coordinated_heuristic() {
        // On this simulator the hand-built coordinated heuristic is an
        // unusually strong baseline (see EXPERIMENTS.md); the SSV pair
        // must complete and stay within a modest factor of it. PRBS
        // identification excitation plus guardband auto-tuning brought
        // the pair from 568 s / 3.2x (timeout, previously #[ignore]d) to
        // ~208 s / ~1.3x on this workload.
        let wl = catalog::parsec::blackscholes();
        let coord = Experiment::new(Scheme::CoordinatedHeuristic)
            .unwrap()
            .with_options(quick_options())
            .run(&wl)
            .unwrap();
        let yukta = Experiment::new(Scheme::YuktaHwSsvOsSsv)
            .unwrap()
            .with_options(quick_options())
            .run(&wl)
            .unwrap();
        assert!(yukta.metrics.completed);
        assert!(
            yukta.metrics.exd() < coord.metrics.exd() * 1.6,
            "yukta {} vs coordinated {}",
            yukta.metrics.exd(),
            coord.metrics.exd()
        );
    }

    #[test]
    fn traces_respect_limits_on_average_for_ssv() {
        let exp = Experiment::new(Scheme::YuktaHwSsvOsSsv)
            .unwrap()
            .with_options(quick_options());
        let rep = exp.run(&catalog::parsec::blackscholes()).unwrap();
        // Transients may cross the limit, but sustained operation must not.
        let mean_p = rep.trace.mean_of(|s| s.p_big);
        assert!(mean_p < 3.5, "mean big power {mean_p}");
        let mean_t = rep.trace.mean_of(|s| s.temp);
        assert!(mean_t < 80.0, "mean temperature {mean_t}");
    }

    #[test]
    fn zero_severity_supervised_run_is_bit_identical_to_baseline() {
        let wl = catalog::parsec::blackscholes();
        let exp = Experiment::new(Scheme::CoordinatedHeuristic)
            .unwrap()
            .with_options(quick_options());
        let base = exp.run(&wl).unwrap();
        let sup = exp
            .run_unified(&wl, supervised(Some(FaultPlan::uniform(7, 0.0))))
            .unwrap()
            .report;
        assert_eq!(
            base.metrics.energy_joules.to_bits(),
            sup.metrics.energy_joules.to_bits(),
            "energy differs: {} vs {}",
            base.metrics.energy_joules,
            sup.metrics.energy_joules
        );
        assert_eq!(
            base.metrics.delay_seconds.to_bits(),
            sup.metrics.delay_seconds.to_bits()
        );
        assert_eq!(base.metrics.completed, sup.metrics.completed);
        let st = sup.supervisor.expect("supervised run carries stats");
        assert_eq!(st.fallback_entries, 0, "transparent supervisor demoted");
        assert_eq!(st.degraded_invocations, 0);
        assert_eq!(st.sensor_faults_seen(), 0);
        let fr = sup.faults.expect("plan recorded");
        assert_eq!(fr.stats.total(), 0, "zero severity must inject nothing");
        assert!(fr.trace.is_empty());
    }

    #[test]
    fn supervised_run_survives_full_severity_faults() {
        let wl = catalog::spec::gamess();
        let exp = Experiment::new(Scheme::MonolithicLqg)
            .unwrap()
            .with_options(quick_options());
        let rep = exp
            .run_unified(&wl, supervised(Some(FaultPlan::uniform(11, 1.0))))
            .unwrap()
            .report;
        assert!(rep.metrics.energy_joules.is_finite());
        assert!(rep.metrics.delay_seconds > 0.0);
        let st = rep.supervisor.unwrap();
        let fr = rep.faults.unwrap();
        assert!(fr.stats.total() > 0, "severity 1.0 must inject faults");
        assert!(
            st.sensor_faults_seen() + st.controller_errors > 0,
            "supervisor saw none of the injected faults"
        );
    }

    #[test]
    fn identical_seed_and_plan_reproduce_report_bit_for_bit() {
        let wl = catalog::spec::mcf();
        let exp = Experiment::new(Scheme::CoordinatedHeuristic)
            .unwrap()
            .with_options(quick_options());
        let plan = FaultPlan::uniform(42, 0.6);
        let a = exp
            .run_unified(&wl, supervised(Some(plan.clone())))
            .unwrap()
            .report;
        let b = exp.run_unified(&wl, supervised(Some(plan))).unwrap().report;
        assert!(a.bit_identical(&b), "same seed+plan must reproduce exactly");
        assert!(
            !a.faults.as_ref().unwrap().trace.is_empty(),
            "severity 0.6 should inject something"
        );
    }

    #[test]
    fn seeded_experiment_design_and_replay_are_bit_identical() {
        // Satellite of the excitation rework: the identification
        // excitation is seeded from the *experiment* seed, so a replayed
        // experiment rebuilds (from cache) the exact same design — and
        // the run itself stays bit-for-bit reproducible on top of it.
        let seed = 0xD1CE_u64;
        let wl = catalog::spec::mcf();
        let a = Experiment::with_seed(Scheme::YuktaHwSsvOsSsv, seed)
            .unwrap()
            .with_options(RunOptions {
                board_seed: Some(seed),
                ..quick_options()
            });
        let b = Experiment::with_seed(Scheme::YuktaHwSsvOsSsv, seed)
            .unwrap()
            .with_options(RunOptions {
                board_seed: Some(seed),
                ..quick_options()
            });
        // The designs are the same object bit-for-bit: same synthesized
        // controllers, same µ, same tuned guardbands.
        assert_eq!(
            a.design().hw_ssv.mu_peak.to_bits(),
            b.design().hw_ssv.mu_peak.to_bits()
        );
        assert_eq!(
            a.design().hw_uncertainty_used.to_bits(),
            b.design().hw_uncertainty_used.to_bits()
        );
        assert!(
            a.design()
                .hw_model_full
                .a()
                .approx_eq(b.design().hw_model_full.a(), 0.0),
            "seeded designs must be bit-identical"
        );
        // And it is genuinely the seed driving the excitation: a design
        // from a different seed differs.
        let c = Experiment::with_seed(Scheme::YuktaHwSsvOsSsv, seed ^ 1).unwrap();
        assert!(
            !a.design()
                .hw_model_full
                .a()
                .approx_eq(c.design().hw_model_full.a(), 0.0),
            "different seeds must produce different identified models"
        );
        let recoverable = || UnifiedOptions {
            recovery: Some(RecoveryOptions::default()),
            ..Default::default()
        };
        let ra = a.run_unified(&wl, recoverable()).unwrap();
        let rb = b.run_unified(&wl, recoverable()).unwrap();
        assert!(
            ra.report.bit_identical(&rb.report),
            "seeded replay must reproduce bit-for-bit"
        );
    }

    #[test]
    fn monolithic_lqg_runs() {
        let exp = Experiment::new(Scheme::MonolithicLqg)
            .unwrap()
            .with_options(quick_options());
        let rep = exp.run(&catalog::spec::gamess()).unwrap();
        assert!(rep.metrics.delay_seconds > 0.0);
    }

    #[test]
    fn recoverable_without_crashes_matches_supervised_run_bit_for_bit() {
        let wl = catalog::parsec::blackscholes();
        let exp = Experiment::new(Scheme::CoordinatedHeuristic)
            .unwrap()
            .with_options(quick_options());
        let plan = FaultPlan::uniform(17, 0.3);
        let base = exp
            .run_unified(&wl, supervised(Some(plan.clone())))
            .unwrap()
            .report;
        let rec = exp
            .run_unified(
                &wl,
                UnifiedOptions {
                    recovery: Some(RecoveryOptions::default()),
                    ..supervised(Some(plan))
                },
            )
            .unwrap();
        assert!(
            rec.report.bit_identical(&base),
            "journaling changed the run"
        );
        assert_eq!(rec.recovery.crashes, 0);
        assert_eq!(rec.recovery.replay_divergences, 0);
        assert!(rec.recovery.checkpoints >= 1);
        // The journal covers every invocation and survives the wire.
        assert_eq!(rec.journal.len(), base.trace.samples.len());
        let back = Journal::from_bytes(&rec.journal.to_bytes()).unwrap();
        assert_eq!(back.len(), rec.journal.len());
        for (a, b) in rec.journal.records().iter().zip(back.records()) {
            assert!(a.bit_identical(b));
        }
        // Standing invariant: a fresh controller stack replays the journal
        // with zero divergences.
        let replay = exp
            .replay_journal(&rec.journal, Some(SupervisorConfig::default()))
            .unwrap();
        assert_eq!(replay.steps, rec.journal.len() as u64);
        assert!(replay.is_exact(), "{replay:?}");
    }

    #[test]
    fn crash_recovery_reproduces_uninterrupted_run_bit_for_bit() {
        let wl = catalog::spec::gamess();
        let exp = Experiment::new(Scheme::MonolithicLqg)
            .unwrap()
            .with_options(quick_options());
        let plan = FaultPlan::uniform(21, 0.5).with_crash(9).with_crash(31);
        // The uninterrupted baseline: the same plan with its crash points
        // cleared (crashes never touch the injector RNG or the fault
        // report).
        let mut uninterrupted = plan.clone();
        uninterrupted.crashes.clear();
        let base = exp
            .run_unified(&wl, supervised(Some(uninterrupted)))
            .unwrap()
            .report;
        let rec = exp
            .run_unified(
                &wl,
                UnifiedOptions {
                    recovery: Some(RecoveryOptions {
                        checkpoint_interval: 8,
                    }),
                    ..supervised(Some(plan))
                },
            )
            .unwrap();
        assert_eq!(rec.recovery.crashes, 2, "both crashes must fire");
        assert_eq!(rec.recovery.recoveries, 2);
        assert!(rec.recovery.replayed_records > 0, "crash off checkpoint");
        assert_eq!(rec.recovery.replay_divergences, 0, "replay diverged");
        assert!(
            rec.report.bit_identical(&base),
            "recovered run differs from uninterrupted run"
        );
    }

    #[test]
    fn zero_change_swap_is_bit_identical() {
        // Hot-swapping a freshly re-synthesized controller that encodes
        // the same design must be invisible: the synthesis pipeline is
        // deterministic and the transfer is bumpless, so the swapped run
        // reproduces the unswapped one bit-for-bit.
        let wl = catalog::parsec::blackscholes();
        let exp = Experiment::new(Scheme::CoordinatedHeuristic)
            .unwrap()
            .with_options(quick_options());
        let base = exp.run_unified(&wl, supervised(None)).unwrap().report;
        let swapped = exp
            .run_unified(
                &wl,
                UnifiedOptions {
                    swap: Some(SwapSpec {
                        at_step: 5,
                        scheme: None,
                    }),
                    ..supervised(None)
                },
            )
            .unwrap()
            .report;
        assert!(
            swapped.bit_identical(&base),
            "zero-change swap perturbed the run"
        );
    }

    #[test]
    fn mid_run_resynthesis_swap_is_safe() {
        // Swapping in genuinely different controllers mid-run (the real
        // adaptive-resynthesis case) must keep the loop serving: the run
        // completes with finite, in-range actuations at every invocation
        // and no actuation gap (one trace sample per supervisor
        // invocation).
        let wl = catalog::parsec::blackscholes();
        let exp = Experiment::new(Scheme::CoordinatedHeuristic)
            .unwrap()
            .with_options(quick_options());
        let rep = exp
            .run_unified(
                &wl,
                UnifiedOptions {
                    swap: Some(SwapSpec {
                        at_step: 5,
                        scheme: Some(Scheme::DecoupledHeuristic),
                    }),
                    ..supervised(None)
                },
            )
            .unwrap()
            .report;
        assert!(rep.metrics.completed, "swap stalled the workload");
        assert!(rep.metrics.energy_joules.is_finite());
        for (k, s) in rep.trace.samples.iter().enumerate() {
            assert!(
                s.f_big.is_finite() && (0.2..=2.0).contains(&s.f_big),
                "sample {k}: f_big {}",
                s.f_big
            );
            assert!(
                s.f_little.is_finite() && (0.2..=1.4).contains(&s.f_little),
                "sample {k}: f_little {}",
                s.f_little
            );
            assert!((1..=4).contains(&s.big_cores), "sample {k}");
            assert!(s.p_big.is_finite() && s.temp.is_finite(), "sample {k}");
        }
        let st = rep.supervisor.expect("supervised run carries stats");
        assert_eq!(
            st.invocations,
            rep.trace.samples.len() as u64,
            "actuation gap around the swap"
        );
        assert_eq!(st.fallback_entries, 0, "swap tripped the supervisor");
    }

    #[test]
    fn raw_engine_crash_recovery_matches_plain_run() {
        let wl = catalog::spec::mcf();
        let exp = Experiment::new(Scheme::DecoupledLqg)
            .unwrap()
            .with_options(quick_options());
        let base = exp.run(&wl).unwrap();
        // A zero-severity plan leaves the board identical to a plan-less
        // run; only the crash point differs from `run`.
        let plan = FaultPlan::uniform(5, 0.0).with_crash(6);
        let rec = exp
            .run_unified(
                &wl,
                UnifiedOptions {
                    plan: Some(plan),
                    recovery: Some(RecoveryOptions {
                        checkpoint_interval: 4,
                    }),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(rec.recovery.crashes, 1);
        assert_eq!(rec.recovery.replay_divergences, 0);
        assert_eq!(
            rec.report.metrics.energy_joules.to_bits(),
            base.metrics.energy_joules.to_bits()
        );
        assert_eq!(
            rec.report.metrics.delay_seconds.to_bits(),
            base.metrics.delay_seconds.to_bits()
        );
        assert_eq!(rec.report.metrics.completed, base.metrics.completed);
        assert_eq!(rec.report.trace.samples.len(), base.trace.samples.len());
        for (a, b) in rec.report.trace.samples.iter().zip(&base.trace.samples) {
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            assert_eq!(a.p_big.to_bits(), b.p_big.to_bits());
            assert_eq!(a.f_big.to_bits(), b.f_big.to_bits());
        }
        // Raw-engine records carry no supervisor mode.
        assert!(rec.journal.records().iter().all(|r| r.mode.is_none()));
    }

    #[test]
    fn unified_rejects_invalid_combinations_with_typed_errors() {
        let wl = catalog::spec::mcf();
        let exp = Experiment::new(Scheme::CoordinatedHeuristic)
            .unwrap()
            .with_options(quick_options());
        // Crash points without recovery: there is nothing to recover with.
        let err = exp
            .run_unified(
                &wl,
                UnifiedOptions {
                    sup_cfg: Some(SupervisorConfig::default()),
                    plan: Some(FaultPlan::uniform(1, 0.0).with_crash(3)),
                    swap: None,
                    recovery: None,
                    serving: None,
                },
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                Error::NoSolution {
                    op: "run_unified",
                    ..
                }
            ),
            "{err:?}"
        );
        // Flapping-prone supervisor configurations are rejected up front.
        let err = exp
            .run_unified(
                &wl,
                UnifiedOptions {
                    sup_cfg: Some(SupervisorConfig {
                        reengage_after: 1,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                Error::NoSolution {
                    op: "supervisor_config",
                    ..
                }
            ),
            "{err:?}"
        );
        // The health tap is not checkpointed, so an adaptive run cannot
        // recover from a crash; and a scheduled swap would compete with
        // the detector-triggered ones.
        for opts in [
            UnifiedOptions {
                recovery: Some(RecoveryOptions::default()),
                ..supervised(None)
            },
            UnifiedOptions {
                swap: Some(SwapSpec {
                    at_step: 4,
                    scheme: None,
                }),
                ..supervised(None)
            },
        ] {
            let err = exp
                .run_adaptive(&wl, opts, AdaptiveOptions::default())
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::NoSolution {
                        op: "run_adaptive",
                        ..
                    }
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    fn crash_inside_the_swap_window_recovers_bit_identically() {
        // The composed case the pairwise paths never exercised: a crash
        // that lands between swap-request and swap-commit, under fault
        // injection. Recovery rolls back to the checkpoint, replays the
        // journal suffix, re-performs the swap by recipe, and the final
        // report is bit-identical to the crash-free twin.
        let wl = catalog::spec::mcf();
        let exp = Experiment::new(Scheme::CoordinatedHeuristic)
            .unwrap()
            .with_options(quick_options());
        let swap_at = 7;
        let plan = FaultPlan::uniform(33, 0.4)
            .with_crash(swap_at)
            .with_crash(19);
        // The uninterrupted baseline: the same plan and swap with the crash
        // points cleared.
        let mut uninterrupted = plan.clone();
        uninterrupted.crashes.clear();
        let base = exp
            .run_unified(
                &wl,
                UnifiedOptions {
                    swap: Some(SwapSpec {
                        at_step: swap_at,
                        scheme: None,
                    }),
                    ..supervised(Some(uninterrupted))
                },
            )
            .unwrap()
            .report;
        let run = exp
            .run_unified(
                &wl,
                UnifiedOptions {
                    sup_cfg: Some(SupervisorConfig::default()),
                    plan: Some(plan),
                    swap: Some(SwapSpec {
                        at_step: swap_at,
                        scheme: None,
                    }),
                    recovery: Some(RecoveryOptions {
                        checkpoint_interval: 5,
                    }),
                    serving: None,
                },
            )
            .unwrap();
        assert_eq!(run.recovery.crashes, 2, "both crashes must fire");
        assert_eq!(run.recovery.recoveries, 2);
        assert_eq!(run.recovery.replay_divergences, 0, "replay diverged");
        assert_eq!(run.recovery.invariant_violations, 0);
        assert!(
            run.report.bit_identical(&base),
            "crash during the swap window perturbed the run"
        );
    }

    #[test]
    fn unified_swap_with_recovery_on_raw_engine_matches_plain_swap() {
        // Swap + recovery composes on the raw engine too: the automaton
        // lives in the engine, not the supervisor.
        let wl = catalog::spec::mcf();
        let exp = Experiment::new(Scheme::DecoupledHeuristic)
            .unwrap()
            .with_options(quick_options());
        let swap_at = 6;
        let run = exp
            .run_unified(
                &wl,
                UnifiedOptions {
                    sup_cfg: None,
                    plan: Some(FaultPlan::uniform(9, 0.0).with_crash(swap_at)),
                    swap: Some(SwapSpec {
                        at_step: swap_at,
                        scheme: None,
                    }),
                    recovery: Some(RecoveryOptions {
                        checkpoint_interval: 4,
                    }),
                    serving: None,
                },
            )
            .unwrap();
        assert_eq!(run.recovery.crashes, 1);
        assert_eq!(run.recovery.replay_divergences, 0);
        assert_eq!(run.recovery.invariant_violations, 0);
        // Zero-change swap + zero-severity plan: bit-identical to a plain
        // run of the same scheme.
        let base = exp.run(&wl).unwrap();
        assert_eq!(
            run.report.metrics.energy_joules.to_bits(),
            base.metrics.energy_joules.to_bits()
        );
        assert_eq!(
            run.report.metrics.delay_seconds.to_bits(),
            base.metrics.delay_seconds.to_bits()
        );
    }

    fn serving_options(spec: ServingSpec) -> UnifiedOptions {
        UnifiedOptions {
            sup_cfg: Some(SupervisorConfig::default()),
            plan: None,
            swap: None,
            recovery: None,
            serving: Some(spec),
        }
    }

    #[test]
    fn serving_runs_are_deterministic_and_report_slo() {
        let wl = catalog::spec::mcf();
        let exp = Experiment::new(Scheme::CoordinatedHeuristic)
            .unwrap()
            .with_options(quick_options());
        let spec = ServingSpec::default();
        let a = exp.run_unified(&wl, serving_options(spec.clone())).unwrap();
        let b = exp.run_unified(&wl, serving_options(spec)).unwrap();
        assert!(
            a.report.bit_identical(&b.report),
            "same serving spec must reproduce exactly"
        );
        let slo = a.report.slo.expect("serving run carries an SLO report");
        assert!(slo.offered > 0, "open-loop traffic never arrived");
        assert!(slo.completed > 0, "nothing was served");
        assert!(slo.offered >= slo.admitted);
        assert!(slo.p99_s >= slo.p95_s);
        // A batch run of the same scheme carries no SLO report. (Its
        // bit-identity against the pre-serving runtime is covered by
        // `zero_severity_supervised_run_is_bit_identical_to_baseline` —
        // an *attached* serving layer legitimately changes actuations,
        // because tail latency is now a controlled output.)
        let batch = exp.run(&wl).unwrap();
        assert!(batch.slo.is_none());
    }

    #[test]
    fn sustained_overload_sheds_without_invariant_violations() {
        // ~8 GIPS offered against a ~3 GIPS board: the governor must shed.
        let wl = catalog::spec::mcf();
        let exp = Experiment::new(Scheme::CoordinatedHeuristic)
            .unwrap()
            .with_options(quick_options());
        let spec = ServingSpec {
            traffic: TrafficConfig {
                load_factor: 2.0,
                service_mean_gi: 0.1,
                ..Default::default()
            },
            ..Default::default()
        };
        let run = exp.run_unified(&wl, serving_options(spec)).unwrap();
        let slo = run.report.slo.unwrap();
        assert!(slo.max_shed_frac > 0.0, "overload never engaged shedding");
        assert!(slo.dropped() > 0);
        assert!(slo.violation_frac > 0.0);
        let sup = run.report.supervisor.unwrap();
        assert!(sup.shed_engagements >= 1);
        assert_eq!(sup.invariant_violations, 0);
        assert_eq!(run.report.actuation.double_actuations, 0);
    }

    #[test]
    fn external_cap_interference_worsens_tail_latency() {
        // The destructive-interference cell: an external governor caps the
        // big cluster while the OS layer scales up — tail latency must be
        // strictly worse than the uncapped twin.
        let wl = catalog::spec::mcf();
        let exp = Experiment::new(Scheme::CoordinatedHeuristic)
            .unwrap()
            .with_options(quick_options());
        let near_capacity = TrafficConfig {
            load_factor: 1.2,
            service_mean_gi: 0.05,
            ..Default::default()
        };
        let free = exp
            .run_unified(
                &wl,
                serving_options(ServingSpec {
                    traffic: near_capacity,
                    ..Default::default()
                }),
            )
            .unwrap();
        let capped = exp
            .run_unified(
                &wl,
                serving_options(ServingSpec {
                    traffic: near_capacity,
                    ext_cap_f_big: Some(0.6),
                    ..Default::default()
                }),
            )
            .unwrap();
        let sf = free.report.slo.unwrap();
        let sc = capped.report.slo.unwrap();
        assert!(
            sc.p99_s > sf.p99_s,
            "capped p99 {} vs free p99 {}",
            sc.p99_s,
            sf.p99_s
        );
        assert!(sc.violation_frac >= sf.violation_frac);
        // The cap is strictly a capper: no invariant violations either way.
        assert_eq!(capped.report.supervisor.unwrap().invariant_violations, 0);
    }

    #[test]
    fn crash_recovery_with_serving_is_bit_identical() {
        // A crash mid-run must roll back traffic RNG, queue state, and the
        // shed fraction together: the recovered report is bit-identical to
        // the uninterrupted serving twin.
        let wl = catalog::spec::mcf();
        let exp = Experiment::new(Scheme::CoordinatedHeuristic)
            .unwrap()
            .with_options(quick_options());
        let spec = ServingSpec {
            traffic: TrafficConfig {
                load_factor: 2.0,
                service_mean_gi: 0.1,
                ..Default::default()
            },
            ..Default::default()
        };
        let base = exp
            .run_unified(
                &wl,
                UnifiedOptions {
                    sup_cfg: Some(SupervisorConfig::default()),
                    plan: Some(FaultPlan::uniform(5, 0.3)),
                    swap: None,
                    recovery: None,
                    serving: Some(spec.clone()),
                },
            )
            .unwrap();
        let run = exp
            .run_unified(
                &wl,
                UnifiedOptions {
                    sup_cfg: Some(SupervisorConfig::default()),
                    plan: Some(FaultPlan::uniform(5, 0.3).with_crash(9)),
                    swap: None,
                    recovery: Some(RecoveryOptions {
                        checkpoint_interval: 4,
                    }),
                    serving: Some(spec),
                },
            )
            .unwrap();
        assert_eq!(run.recovery.crashes, 1);
        assert_eq!(run.recovery.replay_divergences, 0);
        assert!(
            run.report.bit_identical(&base.report),
            "crash recovery perturbed the serving layer"
        );
    }

    #[test]
    fn degenerate_serving_specs_are_rejected_with_typed_errors() {
        let wl = catalog::spec::mcf();
        let exp = Experiment::new(Scheme::CoordinatedHeuristic)
            .unwrap()
            .with_options(quick_options());
        for spec in [
            ServingSpec {
                traffic: TrafficConfig {
                    base_rate_rps: -1.0,
                    ..Default::default()
                },
                ..Default::default()
            },
            ServingSpec {
                queue: QueueConfig {
                    timeout_s: f64::NAN,
                    ..Default::default()
                },
                ..Default::default()
            },
            ServingSpec {
                ext_cap_f_big: Some(-0.5),
                ..Default::default()
            },
        ] {
            let err = exp.run_unified(&wl, serving_options(spec)).unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::NoSolution {
                        op: "serving_spec",
                        ..
                    }
                ),
                "{err:?}"
            );
        }
    }

    /// A workload with one hard mid-run phase change: a compute-bound
    /// 8-thread phase, then a memory-bound 2-thread phase with very
    /// different IPC — the plant the deployed model was identified against
    /// effectively changes underneath the controller.
    fn phase_change_workload() -> Workload {
        use yukta_workloads::{App, PhaseSpec, Suite};
        Workload::single(App {
            name: "phase-change".into(),
            suite: Suite::Parsec,
            slots: 8,
            phases: vec![
                PhaseSpec {
                    name: "compute".into(),
                    threads: 8,
                    work_gi: 220.0,
                    mem_intensity: 0.05,
                    ipc_big: 1.10,
                    ipc_little: 1.00,
                },
                PhaseSpec {
                    name: "memory".into(),
                    threads: 2,
                    work_gi: 60.0,
                    mem_intensity: 0.90,
                    ipc_big: 0.45,
                    ipc_little: 0.40,
                },
            ],
        })
    }

    #[test]
    fn monitored_run_is_bit_identical_to_supervised() {
        let wl = catalog::spec::mcf();
        let exp = Experiment::new(Scheme::CoordinatedHeuristic)
            .unwrap()
            .with_options(quick_options());
        let base = exp.run_unified(&wl, supervised(None)).unwrap().report;
        let monitored = exp
            .run_adaptive(
                &wl,
                supervised(None),
                AdaptiveOptions {
                    max_swaps: 0,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(
            monitored.report.bit_identical(&base),
            "health monitoring perturbed the run"
        );
        assert!(monitored.cycles.is_empty());
        let stats = monitored.health;
        assert_eq!(stats.samples, base.trace.samples.len() as u64);
        assert!(stats.residual_mean.is_finite());
    }

    #[test]
    fn invalid_health_config_is_rejected_with_typed_error() {
        let wl = catalog::spec::mcf();
        let exp = Experiment::new(Scheme::CoordinatedHeuristic)
            .unwrap()
            .with_options(quick_options());
        let err = exp
            .run_adaptive(
                &wl,
                supervised(None),
                AdaptiveOptions {
                    health: HealthConfig {
                        warmup: 0,
                        ..Default::default()
                    },
                    max_swaps: 0,
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                Error::NoSolution {
                    op: "health_config",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn adaptive_run_completes_a_detect_refit_swap_cycle() {
        let wl = phase_change_workload();
        let exp = Experiment::new(Scheme::CoordinatedHeuristic)
            .unwrap()
            .with_options(quick_options());
        let run = exp
            .run_adaptive(
                &wl,
                supervised(None),
                AdaptiveOptions {
                    initial: Some(Scheme::DecoupledHeuristic),
                    max_swaps: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(run.report.metrics.completed, "adaptive run timed out");
        assert_eq!(run.invariant_violations, 0, "swap violated the automaton");
        assert_eq!(
            run.cycles.len(),
            1,
            "expected one detect→swap cycle, alarms = {}",
            run.health.alarms
        );
        let cycle = run.cycles[0];
        assert_eq!(cycle.swap_step, cycle.detect_step + 1);
        assert!(run.health.alarms >= 1);
    }

    #[test]
    fn adaptive_run_on_stationary_workload_never_swaps() {
        let wl = catalog::spec::mcf();
        let exp = Experiment::new(Scheme::CoordinatedHeuristic)
            .unwrap()
            .with_options(quick_options());
        let run = exp
            .run_adaptive(&wl, supervised(None), AdaptiveOptions::default())
            .unwrap();
        assert!(run.report.metrics.completed);
        assert!(
            run.cycles.is_empty(),
            "false-positive swap at step {:?}",
            run.cycles.first().map(|c| c.detect_step)
        );
        assert_eq!(run.invariant_violations, 0);
    }
}
