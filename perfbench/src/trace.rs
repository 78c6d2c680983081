//! The traced run: a switchable global recorder for the design layers,
//! per-run in-memory recorders for the runtime and board, timing
//! decorators around the controller policies, and the small per-layer
//! summary they add up to. Nothing is written to disk.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::OnceLock;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use yukta_core::controllers::{ControllerState, HwPolicy, HwSense, OsPolicy, OsSense};
use yukta_core::design::{Design, DesignOptions, collect_excitation, measure_dc_gains};
use yukta_core::metrics::Report;
use yukta_core::runtime::RecoveredRun;
use yukta_core::schemes::Controllers;
use yukta_core::signals::{HwInputs, OsInputs};
use yukta_core::supervisor::SupervisorStats;
use yukta_obs::mem::{MemRecorder, Snapshot};
use yukta_obs::{Fields, Recorder};

use crate::stats::quantile;
use crate::{Metric, Sim};

/// The process-global recorder: a [`MemRecorder`] behind an on/off
/// switch, so untraced and traced passes can alternate in one process
/// (the global slot can be installed only once).
struct Switch {
    on: AtomicBool,
    mem: MemRecorder,
}

impl Recorder for Switch {
    fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }
    fn span_begin(&self, name: &'static str) -> u64 {
        if self.enabled() {
            self.mem.span_begin(name)
        } else {
            0
        }
    }
    fn span_end(&self, name: &'static str, token: u64, fields: Fields<'_>) {
        if self.enabled() {
            self.mem.span_end(name, token, fields);
        }
    }
    fn event(&self, name: &'static str, fields: Fields<'_>) {
        if self.enabled() {
            self.mem.event(name, fields);
        }
    }
    fn counter_add(&self, name: &'static str, delta: u64) {
        if self.enabled() {
            self.mem.counter_add(name, delta);
        }
    }
    fn gauge_set(&self, name: &'static str, value: f64) {
        if self.enabled() {
            self.mem.gauge_set(name, value);
        }
    }
    fn hist_record(&self, name: &'static str, value: f64) {
        if self.enabled() {
            self.mem.hist_record(name, value);
        }
    }
}

static GLOBAL: OnceLock<&'static Switch> = OnceLock::new();

/// Installs the switchable global recorder (off). Must run before any
/// design is built.
pub fn install_global() {
    let sw: &'static Switch = Box::leak(Box::new(Switch {
        on: AtomicBool::new(false),
        mem: MemRecorder::new(),
    }));
    assert!(
        yukta_obs::install(sw) && GLOBAL.set(sw).is_ok(),
        "global recorder installed twice"
    );
}

fn global() -> &'static Switch {
    GLOBAL
        .get()
        .expect("trace::install_global runs first in --trace 1")
}

/// Runs `f` with the global recorder on.
pub fn traced<T>(f: impl FnOnce() -> T) -> T {
    global().on.store(true, Ordering::Relaxed);
    let out = f();
    global().on.store(false, Ordering::Relaxed);
    out
}

/// Wall-clock `invoke` times (ns) of the decorated policies.
#[derive(Default)]
struct InvokeTimes {
    ssv_hw: Vec<f64>,
    ssv_os: Vec<f64>,
    heur: Vec<f64>,
}

impl InvokeTimes {
    fn push(&mut self, policy: &str, layer_hw: bool, ns: f64) {
        match (policy.contains("ssv"), layer_hw) {
            (true, true) => self.ssv_hw.push(ns),
            (true, false) => self.ssv_os.push(ns),
            (false, _) => self.heur.push(ns),
        }
    }

    fn total_ns(&self) -> f64 {
        [&self.ssv_hw, &self.ssv_os, &self.heur]
            .iter()
            .flat_map(|v| v.iter())
            .sum()
    }
}

type Sink = Rc<RefCell<InvokeTimes>>;

struct TimedHw {
    inner: Box<dyn HwPolicy>,
    sink: Sink,
}

impl HwPolicy for TimedHw {
    fn invoke(&mut self, sense: &HwSense) -> yukta_linalg::Result<HwInputs> {
        let t0 = Instant::now();
        let out = self.inner.invoke(sense);
        let ns = t0.elapsed().as_nanos() as f64;
        self.sink.borrow_mut().push(self.inner.name(), true, ns);
        out
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn save_state(&self) -> ControllerState {
        self.inner.save_state()
    }
    fn restore_state(&mut self, state: &ControllerState) -> yukta_linalg::Result<()> {
        self.inner.restore_state(state)
    }
}

struct TimedOs {
    inner: Box<dyn OsPolicy>,
    sink: Sink,
}

impl OsPolicy for TimedOs {
    fn invoke(&mut self, sense: &OsSense) -> yukta_linalg::Result<OsInputs> {
        let t0 = Instant::now();
        let out = self.inner.invoke(sense);
        let ns = t0.elapsed().as_nanos() as f64;
        self.sink.borrow_mut().push(self.inner.name(), false, ns);
        out
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn save_state(&self) -> ControllerState {
        self.inner.save_state()
    }
    fn restore_state(&mut self, state: &ControllerState) -> yukta_linalg::Result<()> {
        self.inner.restore_state(state)
    }
}

/// Board steps per controller invocation (500 ms period over the board's
/// simulation step).
fn steps_per_invocation() -> f64 {
    (0.5 / yukta_board::BoardConfig::odroid_xu3().dt).round()
}

fn span_ns(snap: &Snapshot, name: &str) -> (u64, f64) {
    snap.entries
        .iter()
        .filter(|e| e.name == name)
        .filter_map(|e| e.dur_ns)
        .fold((0, 0.0), |(n, t), d| (n + 1, t + d as f64))
}

fn count_entries(snap: &Snapshot, name: &str) -> u64 {
    snap.entries.iter().filter(|e| e.name == name).count() as u64
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .sum()
}

/// The per-layer summary of the traced passes.
#[derive(Default)]
pub struct Layers {
    // design (one traced default-design build)
    excitation_ms: f64,
    dc_gains_ms: f64,
    probe_build_ms: f64,
    probe_synth_ms: f64,
    samples: f64,
    // design builds traced through the global recorder
    builds: u64,
    // runs
    runs: u64,
    wall_ns: f64,
    compute_ns: f64,
    invocations: f64,
    invoke: Sink,
    steps: f64,
    dvfs: u64,
    hotplug: u64,
    migrate: u64,
    tmu_trips: u64,
    degraded_s: f64,
    shed_engagements: u64,
    invariant_violations: u64,
    offered: u64,
    completed: u64,
    dropped: u64,
    ckpt: (u64, f64),
    recover: (u64, f64),
    replayed: u64,
    journal_records: u64,
    journal_bytes: u64,
    encode_ns: f64,
    decode_ns: f64,
    // tracing overhead, and simulated seconds per untraced host second
    untraced_wall_ns: f64,
    traced_wall_ns: f64,
    untraced_sim_s: f64,
}

impl Layers {
    /// Times the default-design pipeline stage by stage with the global
    /// recorder on: excitation and DC gains through their public entry
    /// points, then a full build whose `dk.*` spans the recorder keeps.
    /// Returns the traced design, which must match the untraced one.
    pub fn probe_design(&mut self) -> Result<Design, String> {
        let opts = DesignOptions::default();
        let t0 = Instant::now();
        self.samples = collect_excitation(&opts).len() as f64;
        self.excitation_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        std::hint::black_box(measure_dc_gains(&opts));
        self.dc_gains_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let design = self.build_traced(&opts)?;
        self.probe_build_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.probe_synth_ms = span_ns(&global().mem.snapshot(), "dk.synthesize").1 / 1e6;
        Ok(design)
    }

    /// One design build with the global recorder on.
    pub fn build_traced(&mut self, opts: &DesignOptions) -> Result<Design, String> {
        let d = traced(|| yukta_core::design::build_design(opts))
            .map_err(|e| format!("traced design build failed: {e}"))?;
        self.builds += 1;
        Ok(d)
    }

    /// Controllers wrapped in timing decorators (monolithic controllers
    /// have no per-layer policy and pass through).
    pub fn decorate(&self, c: Controllers) -> Controllers {
        match c {
            Controllers::Split { hw, os } => Controllers::Split {
                hw: Box::new(TimedHw {
                    inner: hw,
                    sink: Rc::clone(&self.invoke),
                }),
                os: Box::new(TimedOs {
                    inner: os,
                    sink: Rc::clone(&self.invoke),
                }),
            },
            mono => mono,
        }
    }

    /// Folds in one traced run: its wall time, report, and what its own
    /// recorder saw.
    pub fn absorb_run(&mut self, wall_ns: f64, r: &Report, rec: &MemRecorder) {
        let snap = rec.snapshot();
        self.runs += 1;
        self.wall_ns += wall_ns;
        self.compute_ns += r.compute.total_ns as f64;
        self.invocations += r.compute.invocations as f64;
        self.steps += r.trace.samples.len() as f64 * steps_per_invocation();
        self.dvfs += count_entries(&snap, "board.dvfs");
        self.hotplug += count_entries(&snap, "board.hotplug");
        self.migrate += count_entries(&snap, "board.migrate");
        self.tmu_trips += counter(&snap, "board.tmu_trips");
        let (n, t) = span_ns(&snap, "runtime.checkpoint");
        self.ckpt = (self.ckpt.0 + n, self.ckpt.1 + t);
        let (n, t) = span_ns(&snap, "runtime.recover");
        self.recover = (self.recover.0 + n, self.recover.1 + t);
        if let Some(s) = &r.supervisor {
            self.absorb_supervisor(s);
        }
        if let Some(slo) = &r.slo {
            self.offered += slo.offered;
            self.completed += slo.completed;
            self.dropped += slo.dropped();
        }
    }

    fn absorb_supervisor(&mut self, s: &SupervisorStats) {
        self.degraded_s += s.degraded_seconds();
        self.shed_engagements += s.shed_engagements;
        self.invariant_violations += s.invariant_violations;
    }

    /// Folds in the crash-recovery side of a traced recoverable run and
    /// times its journal codec. Returns whether the journal round-trips.
    pub fn absorb_recovery(&mut self, run: &RecoveredRun) -> bool {
        self.replayed += run.recovery.replayed_records;
        self.invariant_violations += run.recovery.invariant_violations;
        let t0 = Instant::now();
        let bytes = std::hint::black_box(run.journal.to_bytes());
        self.encode_ns += t0.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        let back = std::hint::black_box(yukta_core::recorder::Journal::from_bytes(&bytes));
        self.decode_ns += t0.elapsed().as_nanos() as f64;
        self.journal_records += run.journal.len() as u64;
        self.journal_bytes += bytes.len() as u64;
        crate::check::same_journal(&run.journal, back.ok().as_ref())
    }

    /// Wall time of one untraced and one traced pass over the same inputs,
    /// and the simulated seconds of the pass.
    pub fn add_pass_pair(&mut self, untraced_ns: f64, traced_ns: f64, sim_s: f64) {
        self.untraced_wall_ns += untraced_ns;
        self.traced_wall_ns += traced_ns;
        self.untraced_sim_s += sim_s;
    }

    /// Every per-layer metric as (name, value, unit), then the workload's
    /// simulated figures. Layers a workload does not exercise read 0.
    pub fn metrics(&self, sim: &Sim) -> Vec<Metric> {
        let g = global().mem.snapshot();
        let per_build = |name: &str| span_ns(&g, name).1 / 1e6 / self.builds.max(1) as f64;
        let synth_ms = per_build("dk.synthesize");
        let runs = self.runs.max(1) as f64;
        let inv = self.invoke.borrow();
        let us = |v: &[f64], q: f64| {
            if v.is_empty() {
                0.0
            } else {
                quantile(v, q) / 1e3
            }
        };
        let plant_ns = self.wall_ns - self.compute_ns;
        let engine_self_us = if inv.total_ns() > 0.0 {
            (self.compute_ns - inv.total_ns()) / self.invocations.max(1.0) / 1e3
        } else {
            0.0
        };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let mut m = vec![
            ("design.excitation_ms", self.excitation_ms, "ms"),
            ("design.dc_gains_ms", self.dc_gains_ms, "ms"),
            (
                "design.identify_ms",
                self.probe_build_ms - self.excitation_ms - self.dc_gains_ms - self.probe_synth_ms,
                "ms",
            ),
            ("design.samples", self.samples, "count"),
            ("dk.synthesize_ms", synth_ms, "ms"),
            ("dk.k_step_ms", per_build("dk.k_step"), "ms"),
            ("dk.gamma_bisect_ms", per_build("dk.gamma_bisect"), "ms"),
            ("dk.d_step_ms", per_build("dk.d_step"), "ms"),
            ("dk.rational_step_ms", per_build("dk.rational_step"), "ms"),
            (
                "dk.iterations",
                ratio(count_entries(&g, "dk.iteration") as f64, self.builds as f64),
                "count",
            ),
            (
                "mu.sweeps",
                ratio(count_entries(&g, "mu.sweep") as f64, self.builds as f64),
                "count",
            ),
            ("ctl.ssv_hw_us_p50", us(&inv.ssv_hw, 0.5), "us"),
            ("ctl.ssv_hw_us_p99", us(&inv.ssv_hw, 0.99), "us"),
            ("ctl.ssv_os_us_p50", us(&inv.ssv_os, 0.5), "us"),
            ("ctl.ssv_os_us_p99", us(&inv.ssv_os, 0.99), "us"),
            ("ctl.heur_us_p50", us(&inv.heur, 0.5), "us"),
            ("ctl.heur_us_p99", us(&inv.heur, 0.99), "us"),
            ("ctl.invocations", self.invocations / runs, "count"),
            ("ctl.share", ratio(self.compute_ns, self.wall_ns), "ratio"),
            ("engine.self_us_mean", engine_self_us, "us"),
            (
                "engine.invoke_us_mean",
                ratio(self.compute_ns, self.invocations) / 1e3,
                "us",
            ),
            ("supervisor.degraded_s", self.degraded_s / runs, "s"),
            (
                "supervisor.shed_engagements",
                self.shed_engagements as f64 / runs,
                "count",
            ),
            (
                "modes.invariant_violations",
                self.invariant_violations as f64,
                "count",
            ),
            ("plant.self_ms", plant_ns / runs / 1e6, "ms"),
            ("plant.steps", self.steps / runs, "count"),
            ("plant.ns_per_step", ratio(plant_ns, self.steps), "ns"),
            ("board.dvfs", self.dvfs as f64 / runs, "count"),
            ("board.hotplug", self.hotplug as f64 / runs, "count"),
            ("board.migrate", self.migrate as f64 / runs, "count"),
            ("board.tmu_trips", self.tmu_trips as f64 / runs, "count"),
            (
                "optimizer.hw_steps",
                counter(&g, "optimizer.hw_steps") as f64 / runs,
                "count",
            ),
            (
                "optimizer.os_steps",
                counter(&g, "optimizer.os_steps") as f64 / runs,
                "count",
            ),
            ("queue.offered", self.offered as f64 / runs, "count"),
            ("queue.completed", self.completed as f64 / runs, "count"),
            ("queue.dropped", self.dropped as f64 / runs, "count"),
            (
                "queue.goodput_frac",
                ratio(self.completed as f64, self.offered as f64),
                "ratio",
            ),
            (
                "recorder.checkpoint_ms",
                ratio(self.ckpt.1, self.ckpt.0 as f64) / 1e6,
                "ms",
            ),
            ("recorder.checkpoints", self.ckpt.0 as f64 / runs, "count"),
            (
                "recorder.recover_ms",
                ratio(self.recover.1, self.recover.0 as f64) / 1e6,
                "ms",
            ),
            ("recorder.replayed", self.replayed as f64 / runs, "count"),
            (
                "journal.bytes_per_record",
                ratio(self.journal_bytes as f64, self.journal_records as f64),
                "B",
            ),
            (
                "journal.encode_ns_per_record",
                ratio(self.encode_ns, self.journal_records as f64),
                "ns",
            ),
            (
                "journal.decode_ns_per_record",
                ratio(self.decode_ns, self.journal_records as f64),
                "ns",
            ),
            (
                "trace.overhead_ratio",
                ratio(self.traced_wall_ns, self.untraced_wall_ns),
                "ratio",
            ),
        ];
        m.push((
            "run.sim_speedup",
            ratio(self.untraced_sim_s, self.untraced_wall_ns / 1e9),
            "s/s",
        ));
        m.extend(sim.list());
        m
    }
}
