//! `serve-deploy`: bodytrack served open loop under the full deployment
//! stack — supervisor and mode automaton, admission queue and traffic,
//! a fault plan with two injected controller crashes, and checkpointed
//! crash recovery with journal replay. Every cell also runs crash-free,
//! and the recovered run must match that twin bit for bit.

use std::sync::Arc;
use std::time::Instant;

use yukta_board::FaultPlan;
use yukta_core::metrics::Report;
use yukta_core::recorder::Journal;
use yukta_core::runtime::{Experiment, RecoveredRun, RecoveryOptions, ServingSpec, UnifiedOptions};
use yukta_core::schemes::Scheme;
use yukta_core::supervisor::SupervisorConfig;
use yukta_obs::mem::MemRecorder;
use yukta_workloads::{TrafficConfig, TrafficPattern, Workload, catalog};

use crate::check::{Checks, Fnv, report_digest, report_problems, same_journal};
use crate::stats::{SplitMix, geomean};
use crate::trace::{self, Layers};
use crate::{Outcome, Setup, Sim};
use crate::{adapter, cpu};

/// Coordinated heuristic first: it is the E×D normalization base.
const SCHEMES: [Scheme; 3] = [
    Scheme::CoordinatedHeuristic,
    Scheme::YuktaHwSsvOsHeuristic,
    Scheme::YuktaHwSsvOsSsv,
];
const LOADS: [f64; 2] = [1.0, 1.5];
/// Mean service demand per request (GI), as in the SLO campaign.
const SERVICE_MEAN_GI: f64 = 0.15;
/// Fault-plan severity.
const SEVERITY: f64 = 0.3;
/// Injected crashes land at distinct invocations in this range, which
/// every cell's run outlasts.
const CRASH_STEPS: (u64, u64) = (10, 150);

fn patterns() -> [TrafficPattern; 2] {
    [TrafficPattern::bursty(), TrafficPattern::flash_crowd()]
}

/// The inputs of one (pattern, load) cell, shared by every scheme so the
/// schemes see the same arrivals and the same faults.
struct CellInput {
    pattern: TrafficPattern,
    load: f64,
    traffic_seed: u64,
    fault_seed: u64,
    crashes: [u64; 2],
}

fn inputs(seed: u64) -> Vec<CellInput> {
    let mut rng = SplitMix::new(seed);
    let mut out = Vec::new();
    for pattern in patterns() {
        for load in LOADS {
            let first = rng.range(CRASH_STEPS.0, CRASH_STEPS.1);
            let mut second = rng.range(CRASH_STEPS.0, CRASH_STEPS.1 - 1);
            if second >= first {
                second += 1;
            }
            out.push(CellInput {
                pattern,
                load,
                traffic_seed: rng.next_u64(),
                fault_seed: rng.next_u64(),
                crashes: [first, second],
            });
        }
    }
    out
}

fn options(c: &CellInput, crash: bool) -> UnifiedOptions {
    let mut plan = FaultPlan::uniform(c.fault_seed, SEVERITY);
    if crash {
        plan = plan.with_crash(c.crashes[0]).with_crash(c.crashes[1]);
    }
    UnifiedOptions {
        sup_cfg: Some(SupervisorConfig::default()),
        plan: Some(plan),
        swap: None,
        recovery: crash.then(RecoveryOptions::default),
        serving: Some(ServingSpec {
            traffic: TrafficConfig {
                pattern: c.pattern,
                load_factor: c.load,
                seed: c.traffic_seed,
                service_mean_gi: SERVICE_MEAN_GI,
                ..Default::default()
            },
            ..Default::default()
        }),
    }
}

/// What is wrong with a recovered run beyond `report_problems`.
fn recovery_problems(run: &RecoveredRun) -> Vec<String> {
    let r = &run.recovery;
    let mut p = report_problems(&run.report);
    if r.crashes != 2 || r.recoveries != 2 {
        p.push(format!(
            "{} crashes, {} recoveries (want 2)",
            r.crashes, r.recoveries
        ));
    }
    if r.replay_divergences != 0 {
        p.push(format!("{} replay divergences", r.replay_divergences));
    }
    if r.invariant_violations != 0 {
        p.push(format!("{} invariant violations", r.invariant_violations));
    }
    if run.report.slo.is_none() {
        p.push("no SLO report".into());
    }
    p
}

struct Deploy {
    wl: Workload,
    inputs: Vec<CellInput>,
    experiments: Vec<Experiment>,
    /// First-pass report of each (input, scheme, crash?) run.
    first: Vec<Option<Report>>,
}

impl Deploy {
    fn n_runs(&self) -> usize {
        self.inputs.len() * SCHEMES.len() * 2
    }

    /// Run `i` is input `i / 6`, scheme `(i / 2) % 3`, crashing if odd.
    fn split(i: usize) -> (usize, usize, bool) {
        (i / 6, (i / 2) % 3, i % 2 == 1)
    }

    fn label(&self, i: usize) -> String {
        let (c, s, crash) = Self::split(i);
        let input = &self.inputs[c];
        format!(
            "{} load {} / {}{}",
            input.pattern.name(),
            input.load,
            SCHEMES[s],
            if crash { " / crashes" } else { "" }
        )
    }

    /// Checks a run against the first pass and against its crash-free
    /// twin (run `i - 1`), or stores it as the first.
    fn settle(&mut self, i: usize, r: Report, mut problems: Vec<String>, checks: &mut Checks) {
        match &self.first[i] {
            Some(f) if !f.bit_identical(&r) => problems.push("differs from first pass".into()),
            Some(_) => {}
            None => self.first[i] = Some(r),
        }
        if Self::split(i).2 {
            match (&self.first[i - 1], &self.first[i]) {
                (Some(twin), Some(rec)) if twin.bit_identical(rec) => {}
                _ => problems.push("recovered run differs from its crash-free twin".into()),
            }
        }
        checks.record(&self.label(i), problems);
    }

    /// Runs `i` once, returning its wall time (ns), CPU time (ms) and
    /// outcome; `rec` receives its telemetry when given.
    fn run_one(
        &self,
        i: usize,
        rec: Option<Arc<MemRecorder>>,
    ) -> (f64, f64, Result<RecoveredRun, String>) {
        let (c, s, crash) = Self::split(i);
        let traced_exp;
        let exp = match &rec {
            Some(r) => {
                traced_exp =
                    adapter::experiment(SCHEMES[s], self.experiments[s].design(), Some(r.clone()));
                &traced_exp
            }
            None => &self.experiments[s],
        };
        let (t0, c0) = (Instant::now(), cpu::now());
        let run = adapter::run_unified(exp, &self.wl, options(&self.inputs[c], crash));
        let cpu_ms = cpu::since(c0).as_secs_f64() * 1e3;
        (t0.elapsed().as_nanos() as f64, cpu_ms, run)
    }

    /// One pass over every run, untraced (`layers = None`) or traced.
    /// Returns the wall time (ns) and simulated seconds of the pass.
    fn pass(
        &mut self,
        unit_ms: &mut Vec<f64>,
        mut layers: Option<&mut Layers>,
        checks: &mut Checks,
    ) -> (f64, f64) {
        let (mut wall, mut sim_s) = (0.0, 0.0);
        for i in 0..self.n_runs() {
            let rec = layers.as_ref().map(|_| Arc::new(MemRecorder::new()));
            let (ns, cpu_ms, run) = self.run_one(i, rec.clone());
            let run = match run {
                Ok(run) => run,
                Err(e) => {
                    checks.record_error(&self.label(i), &e);
                    continue;
                }
            };
            wall += ns;
            sim_s += run.report.metrics.delay_seconds;
            let mut problems = if Self::split(i).2 {
                recovery_problems(&run)
            } else {
                report_problems(&run.report)
            };
            match (&mut layers, &rec) {
                (Some(l), Some(rec)) => {
                    l.absorb_run(ns, &run.report, rec);
                    if Self::split(i).2 && !l.absorb_recovery(&run) {
                        problems.push("journal does not round-trip".into());
                    }
                }
                _ => {
                    unit_ms.push(cpu_ms);
                    let decoded = Journal::from_bytes(&run.journal.to_bytes()).ok();
                    if self.first[i].is_none()
                        && Self::split(i).2
                        && !same_journal(&run.journal, decoded.as_ref())
                    {
                        problems.push("journal does not round-trip".into());
                    }
                }
            }
            self.settle(i, run.report, problems, checks);
        }
        (wall, sim_s)
    }
}

pub fn run(setup: &Setup, mut layers: Option<&mut Layers>, checks: &mut Checks) -> Outcome {
    let mut d = Deploy {
        wl: catalog::parsec::bodytrack(),
        inputs: inputs(setup.seed),
        experiments: SCHEMES
            .iter()
            .map(|s| adapter::experiment(*s, &setup.design, None))
            .collect(),
        first: Vec::new(),
    };
    d.first = vec![None; d.n_runs()];
    let mut unit_ms = Vec::new();
    let t_start = Instant::now();
    for round in 0.. {
        let (wall, sim_s) = d.pass(&mut unit_ms, None, checks);
        if let Some(l) = layers.as_deref_mut() {
            let (traced_wall, _) = trace::traced(|| d.pass(&mut Vec::new(), Some(&mut *l), checks));
            l.add_pass_pair(wall, traced_wall, sim_s);
        }
        // Two passes at least, so every run repeats.
        if round >= 1 && t_start.elapsed().as_secs_f64() >= setup.seconds {
            break;
        }
    }

    // Simulated figures over the recovered runs of the first pass.
    let mut digest = Fnv::default();
    for r in d.first.iter().flatten() {
        report_digest(&mut digest, r);
    }
    let recovered: Vec<&Report> = (0..d.n_runs())
        .filter(|i| Deploy::split(*i).2)
        .filter_map(|i| d.first[i].as_ref())
        .collect();
    let slos: Vec<_> = recovered.iter().filter_map(|r| r.slo).collect();
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    // E×D of each Yukta scheme over the coordinated heuristic, per input.
    let exd = |s: usize| {
        let ratios: Vec<f64> = (0..d.inputs.len())
            .filter_map(|c| {
                let at = |s: usize| d.first[c * 6 + s * 2 + 1].as_ref().map(|r| r.metrics.exd());
                Some(at(s)? / at(0)?)
            })
            .collect();
        geomean(&ratios)
    };
    Outcome {
        unit_ms,
        mu_hw_max: setup.design.hw_ssv.mu_peak,
        mu_os_max: setup.design.os_ssv.mu_peak,
        sim: Sim {
            exd_hw_ssv_avg: exd(1),
            exd_ssv_ssv_avg: exd(2),
            slo_p99_s: geomean(&slos.iter().map(|s| s.p99_s).collect::<Vec<_>>()),
            slo_goodput_frac: mean(slos.iter().map(|s| s.goodput_frac()).collect()),
            slo_violation_frac: mean(slos.iter().map(|s| s.violation_frac).collect()),
        },
        digest: digest.finish(),
    }
}
