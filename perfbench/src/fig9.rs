//! `fig9-grid`: the paper's headline experiment. The 14 evaluation apps ×
//! the 4 Figure 9 schemes, each run to completion one after another on
//! the raw engine (no supervisor, queue or journal), in a seeded order.

use std::sync::Arc;
use std::time::Instant;

use yukta_core::metrics::Report;
use yukta_core::runtime::{Experiment, UnifiedOptions};
use yukta_core::schemes::Scheme;
use yukta_obs::mem::MemRecorder;
use yukta_workloads::{Workload, catalog};

use crate::check::{Checks, Fnv, report_digest, report_problems};
use crate::stats::{SplitMix, geomean};
use crate::trace::{self, Layers};
use crate::{Outcome, Setup, Sim};
use crate::{adapter, cpu};

/// Index of the coordinated heuristic (the normalization base) and of the
/// two Yukta schemes in `Scheme::figure9()`.
const BASE: usize = 0;
const HW_SSV: usize = 2;
const SSV_SSV: usize = 3;

struct Grid {
    workloads: Vec<Workload>,
    schemes: [Scheme; 4],
    experiments: Vec<Experiment>,
    /// First-pass report of each cell (`w * 4 + s`); later passes must
    /// reproduce it bit for bit.
    first: Vec<Option<Report>>,
}

impl Grid {
    fn label(&self, cell: usize) -> String {
        format!(
            "{} / {}",
            self.workloads[cell / 4].name,
            self.schemes[cell % 4]
        )
    }

    /// Checks a run against the first pass (or stores it as the first).
    fn settle(&mut self, cell: usize, r: Report, mut problems: Vec<String>, checks: &mut Checks) {
        match &self.first[cell] {
            Some(f) if !f.bit_identical(&r) => problems.push("differs from first pass".into()),
            Some(_) => {}
            None => self.first[cell] = Some(r),
        }
        checks.record(&self.label(cell), problems);
    }
}

/// One pass in `order`, untraced (`layers = None`) or traced (decorated
/// controllers, a recorder per run). Returns its wall time (ns) and the
/// simulated seconds it covered.
fn pass(
    g: &mut Grid,
    setup: &Setup,
    order: &[usize],
    unit_ms: &mut Vec<f64>,
    mut layers: Option<&mut Layers>,
    checks: &mut Checks,
) -> (f64, f64) {
    let (mut wall, mut sim_s) = (0.0, 0.0);
    for &cell in order {
        let (wl, scheme) = (&g.workloads[cell / 4], g.schemes[cell % 4]);
        let rec = layers.as_ref().map(|_| Arc::new(MemRecorder::new()));
        let traced_exp = rec
            .as_ref()
            .map(|r| adapter::experiment(scheme, &setup.design, Some(r.clone())));
        let exp = traced_exp.as_ref().unwrap_or(&g.experiments[cell % 4]);
        let (t0, c0) = (Instant::now(), cpu::now());
        let run = adapter::controllers(scheme, &setup.design).and_then(|c| {
            let c = match &layers {
                Some(l) => l.decorate(c),
                None => c,
            };
            adapter::run_raw(exp, wl, c)
        });
        let ns = t0.elapsed().as_nanos() as f64;
        let cpu_ms = cpu::since(c0).as_secs_f64() * 1e3;
        match run {
            Ok(r) => {
                wall += ns;
                sim_s += r.metrics.delay_seconds;
                match (&mut layers, &rec) {
                    (Some(l), Some(rec)) => l.absorb_run(ns, &r, rec),
                    _ => unit_ms.push(cpu_ms),
                }
                let problems = report_problems(&r);
                g.settle(cell, r, problems, checks);
            }
            Err(e) => checks.record_error(&g.label(cell), &e),
        }
    }
    (wall, sim_s)
}

/// The first pass's correctness sweep: every cell once more through the
/// composed runner with nothing enabled, which exposes the raw engine's
/// mode-automaton invariant count; its report must equal the raw run's.
fn automaton_sweep(g: &mut Grid, checks: &mut Checks) {
    for cell in 0..g.first.len() {
        let wl = &g.workloads[cell / 4];
        match adapter::run_unified(&g.experiments[cell % 4], wl, UnifiedOptions::default()) {
            Ok(run) => {
                let mut problems = report_problems(&run.report);
                if run.recovery.invariant_violations != 0 {
                    problems.push(format!(
                        "{} invariant violations",
                        run.recovery.invariant_violations
                    ));
                }
                g.settle(cell, run.report, problems, checks);
            }
            Err(e) => checks.record_error(&g.label(cell), &e),
        }
    }
}

pub fn run(setup: &Setup, mut layers: Option<&mut Layers>, checks: &mut Checks) -> Outcome {
    let schemes = Scheme::figure9();
    let workloads = catalog::evaluation_set();
    let n_cells = workloads.len() * schemes.len();
    let mut g = Grid {
        experiments: schemes
            .iter()
            .map(|s| adapter::experiment(*s, &setup.design, None))
            .collect(),
        workloads,
        schemes,
        first: vec![None; n_cells],
    };
    // The seed only orders the grid: the experiment is the paper's fixed
    // one, so its simulated outputs do not depend on the seed.
    let mut rng = SplitMix::new(setup.seed);
    let mut order: Vec<usize> = (0..n_cells).collect();
    let mut unit_ms = Vec::new();
    let t_start = Instant::now();
    for round in 0.. {
        rng.shuffle(&mut order);
        let (wall, sim_s) = pass(&mut g, setup, &order, &mut unit_ms, None, checks);
        if round == 0 {
            automaton_sweep(&mut g, checks);
        }
        if let Some(l) = layers.as_deref_mut() {
            let (traced_wall, _) = trace::traced(|| {
                pass(
                    &mut g,
                    setup,
                    &order,
                    &mut Vec::new(),
                    Some(&mut *l),
                    checks,
                )
            });
            l.add_pass_pair(wall, traced_wall, sim_s);
        }
        // Two passes at least, so every cell repeats.
        if round >= 1 && t_start.elapsed().as_secs_f64() >= setup.seconds {
            break;
        }
    }

    let mut digest = Fnv::default();
    let mut norm = vec![[f64::NAN; 2]; g.workloads.len()];
    for (w, row) in g.first.chunks(4).enumerate() {
        if let (Some(base), Some(hw), Some(ssv)) = (&row[BASE], &row[HW_SSV], &row[SSV_SSV]) {
            let b = base.metrics.exd();
            norm[w] = [hw.metrics.exd() / b, ssv.metrics.exd() / b];
        }
        for r in row.iter().flatten() {
            report_digest(&mut digest, r);
        }
    }
    let col = |j: usize| geomean(&norm.iter().map(|n| n[j]).collect::<Vec<_>>());
    Outcome {
        unit_ms,
        mu_hw_max: setup.design.hw_ssv.mu_peak,
        mu_os_max: setup.design.os_ssv.mu_peak,
        sim: Sim {
            exd_hw_ssv_avg: col(0),
            exd_ssv_ssv_avg: col(1),
            ..Sim::default()
        },
        digest: digest.finish(),
    }
}
