//! The end-to-end controller design pipeline of Figure 3.
//!
//! 1. **Characterize** — run the (disjoint) training workloads on the
//!    board while random-walking every actuator over its discrete grid,
//!    recording normalized inputs, external signals, and outputs at the
//!    500 ms controller period.
//! 2. **Identify** — fit black-box MIMO ARX models for each layer (the
//!    hardware model takes the OS inputs as measured external signals and
//!    vice versa), plus the layer-solo and joint models the LQG baselines
//!    need.
//! 3. **Synthesize** — run D–K iteration per layer with the Table II/III
//!    bounds, weights, and guardbands.
//!
//! The default design is deterministic and cached process-wide
//! ([`default_design`]); sensitivity experiments build variants through
//! [`build_design`] with modified [`DesignOptions`].

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yukta_board::{Actuation, Board, BoardConfig, Cluster, Placement};
use yukta_control::dk::{DkOptions, SsvSynthesis, synthesize_ssv};
use yukta_control::plant::SsvSpec;
use yukta_control::ss::StateSpace;
use yukta_control::sysid::{SysIdConfig, calibrate_dc_gains, fit_arx, validation_residual};
use yukta_linalg::{Error, Result};
use yukta_workloads::WorkloadRun;
use yukta_workloads::catalog::training;

use crate::signals::{ActuatorGrids, SignalRanges, spare_capacity};

/// The excitation schedule used during characterization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExcitationKind {
    /// Per-channel maximum-length PRBS between the operating-region floor
    /// and the grid top, held for three controller periods per chip. Flat
    /// power across the band; the default.
    Prbs,
    /// Per-channel Schroeder multisine on an interleaved frequency comb:
    /// simultaneous channels are exactly orthogonal over the record.
    Multisine,
    /// The legacy bounded random walk (±3 grid steps every third period).
    /// Kept for ablation: its power collapses onto DC, which is what the
    /// PRBS/multisine schedules fix.
    RandomWalk,
}

/// Guardband auto-tuning: derive the uncertainty radius Δ from a held-out
/// validation residual instead of a fixed Table II/III constant.
///
/// A guardband much wider than the model's actual prediction error forces
/// the µ synthesis to defend against plants that cannot occur, inflating
/// µ̂ and detuning the controller; one narrower than the residual voids the
/// robustness guarantee. The tuner sets
/// `Δ = clamp(margin · residual, min, max)` per layer, where `residual` is
/// the worst-output relative RMS one-step prediction error on a held-out
/// tail of the excitation record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardbandConfig {
    /// Tune Δ from the validation residual; `false` keeps the fixed
    /// `hw_uncertainty`/`os_uncertainty` values.
    pub auto: bool,
    /// Safety factor applied to the measured residual.
    pub margin: f64,
    /// Floor of the tuned radius (never trust a residual of zero).
    pub min: f64,
    /// Ceiling of the tuned radius (beyond this the synthesis gives up
    /// performance for phantom robustness).
    pub max: f64,
    /// Fraction of the excitation record held out for validation.
    pub holdout_frac: f64,
}

impl Default for GuardbandConfig {
    fn default() -> Self {
        GuardbandConfig {
            auto: true,
            margin: 1.25,
            min: 0.10,
            max: 0.60,
            holdout_frac: 0.25,
        }
    }
}

impl GuardbandConfig {
    /// Checks the configuration before the design pipeline starts.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSolution`] (op `guardband_config`) naming the
    /// first violated constraint.
    pub fn validate(&self) -> Result<()> {
        let fail = |why: &'static str| Error::NoSolution {
            op: "guardband_config",
            why,
        };
        if !(self.margin.is_finite() && self.margin > 0.0) {
            return Err(fail("margin must be positive and finite"));
        }
        if !(self.min.is_finite() && self.min > 0.0) {
            return Err(fail("min radius must be positive and finite"));
        }
        if !(self.max.is_finite() && self.max >= self.min) {
            return Err(fail("max radius must be finite and at least min"));
        }
        if !(self.holdout_frac > 0.0 && self.holdout_frac < 0.9) {
            return Err(fail("holdout_frac must lie in (0, 0.9)"));
        }
        Ok(())
    }

    /// The tuned radius for a measured validation residual.
    pub fn radius(&self, residual: f64) -> f64 {
        (self.margin * residual).clamp(self.min, self.max)
    }
}

/// Designer-facing knobs (Tables II and III), exposed so the sensitivity
/// experiments of Section VI-E can sweep them.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignOptions {
    /// HW output deviation bounds (Perf, P_big, P_little, Temp) as range
    /// fractions.
    pub hw_bounds: [f64; 4],
    /// HW input weights (#big, #little, f_big, f_little).
    pub hw_weights: [f64; 4],
    /// HW uncertainty guardband (used as-is when `guardband.auto` is off;
    /// otherwise the auto-tuner overrides it).
    pub hw_uncertainty: f64,
    /// OS output deviation bounds (Perf_little, Perf_big, ΔSC).
    pub os_bounds: [f64; 3],
    /// OS input weights (threads_big, packing_big, packing_little).
    pub os_weights: [f64; 3],
    /// OS uncertainty guardband (see `hw_uncertainty`).
    pub os_uncertainty: f64,
    /// Seed of the excitation schedules (every actuator channel derives
    /// its own salted stream from this).
    pub seed: u64,
    /// Seconds of excitation per training workload.
    pub excitation_secs: f64,
    /// Excitation schedule family.
    pub excitation: ExcitationKind,
    /// Guardband auto-tuning configuration.
    pub guardband: GuardbandConfig,
    /// DC boost of the shaped performance weight (see `SsvSpec`).
    pub perf_dc_boost: f64,
    /// Corner frequency of the shaped performance weight (rad/s).
    pub perf_corner: f64,
    /// Calibration of the absolute input-weight level (see `SsvSpec`).
    pub effort_scale: f64,
}

impl Default for DesignOptions {
    fn default() -> Self {
        // Bounds and weights exactly as Tables II and III; the guardbands
        // are auto-tuned from the validation residual by default.
        DesignOptions {
            hw_bounds: [0.20, 0.10, 0.10, 0.10],
            hw_weights: [1.0, 1.0, 1.0, 1.0],
            hw_uncertainty: 0.40,
            os_bounds: [0.20, 0.20, 0.20],
            os_weights: [2.0, 2.0, 2.0],
            os_uncertainty: 0.50,
            seed: 0x5EED_CAFE,
            excitation_secs: 60.0,
            excitation: ExcitationKind::Prbs,
            guardband: GuardbandConfig::default(),
            perf_dc_boost: 5.0,
            perf_corner: 0.15,
            effort_scale: 1.0,
        }
    }
}

/// Normalized excitation data at the controller period.
#[derive(Debug, Clone, Default)]
pub struct ExcitationData {
    /// Normalized hardware inputs per sample (4 columns).
    pub u_hw: Vec<Vec<f64>>,
    /// Normalized OS inputs per sample (3 columns).
    pub u_os: Vec<Vec<f64>>,
    /// Normalized hardware outputs per sample (4 columns).
    pub y_hw: Vec<Vec<f64>>,
    /// Normalized OS outputs per sample (3 columns).
    pub y_os: Vec<Vec<f64>>,
}

impl ExcitationData {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.u_hw.len()
    }

    /// Whether no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.u_hw.is_empty()
    }
}

/// The complete set of design artifacts every scheme draws from.
#[derive(Debug, Clone)]
pub struct Design {
    /// Synthesized hardware-layer SSV controller.
    pub hw_ssv: SsvSynthesis,
    /// Synthesized software-layer SSV controller.
    pub os_ssv: SsvSynthesis,
    /// HW model with external signals: `[u_hw; u_os] → y_hw`.
    pub hw_model_full: StateSpace,
    /// OS model with external signals: `[u_os; u_hw] → y_os`.
    pub os_model_full: StateSpace,
    /// HW-only model for the decoupled LQG baseline: `u_hw → y_hw`.
    pub hw_model_solo: StateSpace,
    /// OS-only model: `u_os → y_os`.
    pub os_model_solo: StateSpace,
    /// Joint model for the monolithic LQG: `[u_hw; u_os] → [y_hw; y_os]`.
    pub mono_model: StateSpace,
    /// Per-output identification fit of the full HW model.
    pub hw_fit: Vec<f64>,
    /// Per-output identification fit of the full OS model.
    pub os_fit: Vec<f64>,
    /// The HW uncertainty radius the synthesis actually used (auto-tuned
    /// when `options.guardband.auto`).
    pub hw_uncertainty_used: f64,
    /// The OS uncertainty radius the synthesis actually used.
    pub os_uncertainty_used: f64,
    /// Held-out validation residual of the HW model (worst output,
    /// relative RMS); `NaN` when auto-tuning is off.
    pub hw_residual: f64,
    /// Held-out validation residual of the OS model.
    pub os_residual: f64,
    /// The options the design was built with.
    pub options: DesignOptions,
}

/// Collects excitation data by driving every actuator with its own
/// deterministic schedule (PRBS, multisine, or the legacy random walk)
/// while the training workloads run.
pub fn collect_excitation(opts: &DesignOptions) -> ExcitationData {
    use yukta_control::sysid::excitation;
    let mut data = ExcitationData::default();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let ranges = SignalRanges::xu3();
    let grids = ActuatorGrids::xu3();
    for (wl_index, wl) in training::all().into_iter().enumerate() {
        let mut cfg = BoardConfig::odroid_xu3();
        cfg.seed = opts.seed ^ 0xB0A2D;
        let mut board = Board::new(cfg);
        let mut run = WorkloadRun::new(&wl);
        // Random-walk state: grid indices, restricted to the operating
        // region the controllers will live in. Linearizing the CV²f power
        // law over the full DVFS range would poison the model's gains;
        // identifying where the closed loop operates (upper half of the
        // frequency range, 2-4 cores) keeps the local fit accurate — the
        // guardband covers the rest, exactly as the paper argues.
        let mut idx = [
            grids.big_cores.quantize_index(4.0),
            grids.little_cores.quantize_index(4.0),
            grids.f_big.quantize_index(1.4),
            grids.f_little.quantize_index(1.0),
            grids.threads_big.quantize_index(4.0),
            grids.packing.quantize_index(1.0),
            grids.packing.quantize_index(1.0),
        ];
        // Lower bound of each walk (same order as `idx`).
        let idx_lo = [
            grids.big_cores.quantize_index(2.0),
            grids.little_cores.quantize_index(2.0),
            grids.f_big.quantize_index(0.8),
            grids.f_little.quantize_index(0.5),
            grids.threads_big.quantize_index(2.0),
            0,
            0,
        ];
        let grid_of = |k: usize| -> &yukta_control::quant::InputGrid {
            match k {
                0 => &grids.big_cores,
                1 => &grids.little_cores,
                2 => &grids.f_big,
                3 => &grids.f_little,
                4 => &grids.threads_big,
                5 | 6 => &grids.packing,
                _ => unreachable!(),
            }
        };
        let mut perf_reader_big = yukta_board::sensors::BipsReader::new();
        let mut perf_reader_little = yukta_board::sensors::BipsReader::new();
        let steps_per_interval = (0.5 / board.config().dt).round() as usize;
        let n_intervals = (opts.excitation_secs / 0.5) as usize;
        // Per-channel index schedules, precomputed for the whole record.
        // Every channel gets its own salted stream of the experiment seed
        // (workload index included in the salt so records differ across
        // workloads), shaped onto the quantized actuator grid between the
        // operating-region floor and the grid top.
        let wl_seed = opts.seed ^ (wl_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let schedules: Option<Vec<Vec<usize>>> = match opts.excitation {
            ExcitationKind::RandomWalk => None,
            kind => Some(
                (0..7)
                    .map(|k| {
                        let g = grid_of(k);
                        let lo = g.values()[idx_lo[k]];
                        let sig = match kind {
                            // Chips held three controller periods: the
                            // 10–50 ms transition stalls pollute at most
                            // one sample in three and the power band
                            // stays under the first spectral null.
                            ExcitationKind::Prbs => {
                                excitation::prbs_sequence(wl_seed, k, n_intervals, 3)
                            }
                            // Tone count capped so every channel's comb
                            // stays below the record's Nyquist bin.
                            ExcitationKind::Multisine => excitation::multisine_sequence(
                                wl_seed,
                                k,
                                7,
                                n_intervals,
                                (n_intervals / 14).clamp(1, 8),
                            ),
                            ExcitationKind::RandomWalk => unreachable!(),
                        };
                        excitation::shape_to_grid(&sig, g, lo, g.max())
                    })
                    .collect(),
            ),
        };
        // Mirror of yukta_board's counters for windowed BIPS.
        let mut counter_big = yukta_board::sensors::PerfCounter::new();
        let mut counter_little = yukta_board::sensors::PerfCounter::new();
        for interval in 0..n_intervals {
            match &schedules {
                Some(s) => {
                    for (k, i) in idx.iter_mut().enumerate() {
                        *i = s[k][interval];
                    }
                }
                // Legacy step-hold random walk: move the actuators only
                // every third controller period.
                None if interval % 3 == 0 => {
                    for (k, i) in idx.iter_mut().enumerate() {
                        let g = grid_of(k);
                        let delta: i64 = rng.gen_range(-3..=3);
                        let next = (*i as i64 + delta).clamp(idx_lo[k] as i64, g.len() as i64 - 1);
                        *i = next as usize;
                    }
                }
                None => {}
            }
            let act = Actuation {
                f_big: Some(grids.f_big.values()[idx[2]]),
                f_little: Some(grids.f_little.values()[idx[3]]),
                big_cores: Some(grids.big_cores.values()[idx[0]] as usize),
                little_cores: Some(grids.little_cores.values()[idx[1]] as usize),
                placement: Some(Placement {
                    threads_big: grids.threads_big.values()[idx[4]] as usize,
                    packing_big: grids.packing.values()[idx[5]],
                    packing_little: grids.packing.values()[idx[6]],
                }),
            };
            board.actuate(&act);
            for _ in 0..steps_per_interval {
                let rep = board.step(run.loads());
                counter_big.add(rep.instr_big);
                counter_little.add(rep.instr_little);
                run.advance(rep.thread_progress);
            }
            if run.is_done() {
                break;
            }
            // Record the *effective* operating point and the outputs.
            let st = board.state();
            let n_active = run.active_threads();
            let bips_big = perf_reader_big.sample(&counter_big, board.time());
            let bips_little = perf_reader_little.sample(&counter_little, board.time());
            let tb_actual = st.placement.threads_big.min(n_active);
            let sc = spare_capacity(st.big_cores, tb_actual)
                - spare_capacity(st.little_cores, n_active - tb_actual);
            data.u_hw.push(vec![
                ranges.cores.normalize(st.big_cores as f64),
                ranges.cores.normalize(st.little_cores as f64),
                ranges.f_big.normalize(st.f_big),
                ranges.f_little.normalize(st.f_little),
            ]);
            data.u_os.push(vec![
                ranges.threads_big.normalize(tb_actual as f64),
                ranges.packing.normalize(st.placement.packing_big),
                ranges.packing.normalize(st.placement.packing_little),
            ]);
            data.y_hw.push(vec![
                ranges.perf.normalize(bips_big + bips_little),
                ranges.p_big.normalize(board.read_power(Cluster::Big)),
                ranges.p_little.normalize(board.read_power(Cluster::Little)),
                ranges.temp.normalize(st.t_hot),
            ]);
            data.y_os.push(vec![
                ranges.perf_little.normalize(bips_little),
                ranges.perf_big.normalize(bips_big),
                ranges.spare_diff.normalize(sc),
            ]);
        }
    }
    data
}

/// Measures local DC gains by single-input step experiments around the
/// nominal operating point, running one of the training workloads.
///
/// Broadband ARX regression over a nonlinear plant underestimates the
/// per-input sensitivities; these short, controlled step tests recover the
/// local gains the controller will actually face, and
/// `yukta_control::sysid::calibrate_dc_gains` folds them into the models.
///
/// Returns a 7×7 matrix: rows are the normalized outputs
/// `[perf, p_big, p_little, temp, perf_little, perf_big, ΔSC]`, columns
/// the normalized inputs `[#big, #little, f_big, f_little, threads_big,
/// packing_big, packing_little]`.
pub fn measure_dc_gains(opts: &DesignOptions) -> yukta_linalg::Mat {
    use yukta_linalg::Mat;
    let ranges = SignalRanges::xu3();
    let mut gains = Mat::zeros(7, 7);
    // Nominal operating point and the step applied per input.
    let nominal = [4.0f64, 4.0, 1.4, 0.9, 5.0, 1.0, 1.0];
    let steps: [f64; 7] = [-2.0, -2.0, 0.4, 0.4, 2.0, 1.0, 1.0];
    let wl = training::vips();
    for j in 0..7 {
        let mut cfg = BoardConfig::odroid_xu3();
        cfg.seed = opts.seed ^ 0xCA11B ^ (j as u64);
        // Quiet the scheduler noise during calibration so a single step
        // resolves cleanly (a short, controlled experiment).
        cfg.hmp_noise = 0.0;
        let mut board = Board::new(cfg);
        let mut run = WorkloadRun::new(&wl);
        let mut vals = nominal;
        let apply = |board: &mut Board, v: &[f64; 7]| {
            board.actuate(&Actuation {
                f_big: Some(v[2]),
                f_little: Some(v[3]),
                big_cores: Some(v[0] as usize),
                little_cores: Some(v[1] as usize),
                placement: Some(Placement {
                    threads_big: v[4] as usize,
                    packing_big: v[5],
                    packing_little: v[6],
                }),
            });
        };
        apply(&mut board, &vals);
        let measure = |board: &mut Board, run: &mut WorkloadRun, settle: f64, window: f64| {
            let dt = board.config().dt;
            for _ in 0..(settle / dt) as usize {
                let rep = board.step(run.loads());
                run.advance(rep.thread_progress);
            }
            let ib0 = board.instructions(Cluster::Big);
            let il0 = board.instructions(Cluster::Little);
            let t0 = board.time();
            for _ in 0..(window / dt) as usize {
                let rep = board.step(run.loads());
                run.advance(rep.thread_progress);
            }
            let span = board.time() - t0;
            let bips_big = (board.instructions(Cluster::Big) - ib0) / span;
            let bips_little = (board.instructions(Cluster::Little) - il0) / span;
            let st = board.state();
            let n_active = run.active_threads();
            let tb = st.placement.threads_big.min(n_active);
            let sc =
                spare_capacity(st.big_cores, tb) - spare_capacity(st.little_cores, n_active - tb);
            [
                ranges.perf.normalize(bips_big + bips_little),
                ranges.p_big.normalize(board.read_power(Cluster::Big)),
                ranges.p_little.normalize(board.read_power(Cluster::Little)),
                ranges.temp.normalize(st.t_hot),
                ranges.perf_little.normalize(bips_little),
                ranges.perf_big.normalize(bips_big),
                ranges.spare_diff.normalize(sc),
            ]
        };
        let before = measure(&mut board, &mut run, 12.0, 5.0);
        vals[j] += steps[j];
        apply(&mut board, &vals);
        let after = measure(&mut board, &mut run, 8.0, 5.0);
        // Normalized input step size.
        let d_norm = match j {
            0 | 1 => ranges.cores.normalize_delta(steps[j]),
            2 => ranges.f_big.normalize_delta(steps[j]),
            3 => ranges.f_little.normalize_delta(steps[j]),
            4 => ranges.threads_big.normalize_delta(steps[j]),
            _ => ranges.packing.normalize_delta(steps[j]),
        };
        for i in 0..7 {
            gains[(i, j)] = (after[i] - before[i]) / d_norm;
        }
    }
    gains
}

fn concat(a: &[Vec<f64>], b: &[Vec<f64>]) -> Vec<Vec<f64>> {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let mut row = x.clone();
            row.extend_from_slice(y);
            row
        })
        .collect()
}

/// Aligns excitation data with the strictly proper ARX convention.
///
/// In the log, `y[k]` is measured over the same interval during which
/// `u[k]` was applied, but the regression's `u(t−1)` slot must hold the
/// input that *generated* `y(t)` — which is `u[t]`, not `u[t−1]`. Shifting
/// the input series back by one sample makes the identified one-step delay
/// equal the real controller-period delay (command at invocation `t`,
/// effect visible at invocation `t+1`).
fn align_for_arx(u: &[Vec<f64>], y: &[Vec<f64>]) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let n = u.len();
    if n < 2 {
        return (u.to_vec(), y.to_vec());
    }
    let u_fit = u[1..].to_vec();
    let y_fit = y[..n - 1].to_vec();
    (u_fit, y_fit)
}

/// Builds the full design from scratch (characterize → identify →
/// synthesize).
///
/// # Errors
///
/// Propagates identification failures (insufficient excitation) and
/// synthesis failures (infeasible bounds/guardbands, per the paper's
/// description of MATLAB failing to build the controller).
pub fn build_design(opts: &DesignOptions) -> Result<Design> {
    opts.guardband.validate()?;
    let data = collect_excitation(opts);
    if data.len() < 100 {
        return Err(Error::NoSolution {
            op: "build_design",
            why: "insufficient excitation data collected",
        });
    }
    // Local DC gains from step tests, used to calibrate every model.
    let dc = measure_dc_gains(opts);
    let pick = |rows: &[usize], cols: &[usize]| {
        let mut m = yukta_linalg::Mat::zeros(rows.len(), cols.len());
        for (i, &r) in rows.iter().enumerate() {
            for (j, &c) in cols.iter().enumerate() {
                m[(i, j)] = dc[(r, c)];
            }
        }
        m
    };
    let sysid_cfg = SysIdConfig {
        na: 2,
        nb: 2,
        nc: 0,
        plr_iters: 0,
        // A whiff of ridge keeps the joint (monolithic) regression well
        // posed: the spare-capacity output is piecewise-linear in the
        // inputs and can be exactly collinear with them over a run.
        ridge: 1e-4,
    };
    // Full models (with external signals).
    let u_hw_full = concat(&data.u_hw, &data.u_os);
    let (u_hwf, y_hwf) = align_for_arx(&u_hw_full, &data.y_hw);
    let mut hw_id = fit_arx(&u_hwf, &y_hwf, sysid_cfg)?
        .stabilized(0.97)?
        .with_sample_period(0.5)?;
    hw_id.sys = calibrate_dc_gains(&hw_id.sys, &pick(&[0, 1, 2, 3], &[0, 1, 2, 3, 4, 5, 6]))?;
    let u_os_full = concat(&data.u_os, &data.u_hw);
    let (u_osf, y_osf) = align_for_arx(&u_os_full, &data.y_os);
    let mut os_id = fit_arx(&u_osf, &y_osf, sysid_cfg)?
        .stabilized(0.97)?
        .with_sample_period(0.5)?;
    os_id.sys = calibrate_dc_gains(&os_id.sys, &pick(&[4, 5, 6], &[4, 5, 6, 0, 1, 2, 3]))?;
    // Guardband auto-tuning: re-fit each layer on the leading portion of
    // the record and measure the one-step prediction residual on the
    // held-out tail. The residual bounds how wrong the production model
    // (fitted on *all* data, so at least as good) can be on data it has
    // never seen; the uncertainty radius shrinks to a margin above it.
    let (hw_residual, os_residual, hw_uncertainty, os_uncertainty) = if opts.guardband.auto {
        let tune = |u: &[Vec<f64>], y: &[Vec<f64>]| -> Result<f64> {
            let split = ((1.0 - opts.guardband.holdout_frac) * u.len() as f64) as usize;
            let train = fit_arx(&u[..split], &y[..split], sysid_cfg)?;
            validation_residual(&u[split..], &y[split..], &train)
        };
        let (hw_r, os_r) = (tune(&u_hwf, &y_hwf)?, tune(&u_osf, &y_osf)?);
        (
            hw_r,
            os_r,
            opts.guardband.radius(hw_r),
            opts.guardband.radius(os_r),
        )
    } else {
        (f64::NAN, f64::NAN, opts.hw_uncertainty, opts.os_uncertainty)
    };
    // Solo and joint models for the LQG baselines.
    let (u_hws, y_hws) = align_for_arx(&data.u_hw, &data.y_hw);
    let mut hw_solo = fit_arx(&u_hws, &y_hws, sysid_cfg)?
        .stabilized(0.97)?
        .with_sample_period(0.5)?;
    hw_solo.sys = calibrate_dc_gains(&hw_solo.sys, &pick(&[0, 1, 2, 3], &[0, 1, 2, 3]))?;
    let (u_oss, y_oss) = align_for_arx(&data.u_os, &data.y_os);
    let mut os_solo = fit_arx(&u_oss, &y_oss, sysid_cfg)?
        .stabilized(0.97)?
        .with_sample_period(0.5)?;
    os_solo.sys = calibrate_dc_gains(&os_solo.sys, &pick(&[4, 5, 6], &[4, 5, 6]))?;
    let y_mono = concat(&data.y_hw, &data.y_os);
    let (u_mono, y_monof) = align_for_arx(&u_hw_full, &y_mono);
    let mut mono = fit_arx(&u_mono, &y_monof, sysid_cfg)?
        .stabilized(0.97)?
        .with_sample_period(0.5)?;
    mono.sys = calibrate_dc_gains(
        &mono.sys,
        &pick(&[0, 1, 2, 3, 4, 5, 6], &[0, 1, 2, 3, 4, 5, 6]),
    )?;

    // SSV synthesis per layer.
    let hw_spec = SsvSpec {
        ts: 0.5,
        output_bounds: opts.hw_bounds.to_vec(),
        input_weights: opts.hw_weights.to_vec(),
        n_ext: 3,
        uncertainty: hw_uncertainty,
        noise_eps: 0.05,
        prefilter_tau: None,
        unc_tau: None,
        sensor_tau: None,
        perf_dc_boost: opts.perf_dc_boost,
        perf_corner: opts.perf_corner,
        effort_scale: opts.effort_scale,
    };
    let dk = DkOptions {
        max_iters: 2,
        gamma_iters: 14,
        n_freq: 25,
        ..DkOptions::default()
    };
    let hw_ssv = synthesize_ssv(&hw_id.sys, &hw_spec, dk)?;
    let os_spec = SsvSpec {
        ts: 0.5,
        output_bounds: opts.os_bounds.to_vec(),
        input_weights: opts.os_weights.to_vec(),
        n_ext: 4,
        uncertainty: os_uncertainty,
        noise_eps: 0.05,
        prefilter_tau: None,
        unc_tau: None,
        sensor_tau: None,
        perf_dc_boost: opts.perf_dc_boost,
        perf_corner: opts.perf_corner,
        effort_scale: opts.effort_scale,
    };
    let os_ssv = synthesize_ssv(&os_id.sys, &os_spec, dk)?;
    Ok(Design {
        hw_ssv,
        os_ssv,
        hw_model_full: hw_id.sys,
        os_model_full: os_id.sys,
        hw_model_solo: hw_solo.sys,
        os_model_solo: os_solo.sys,
        mono_model: mono.sys,
        hw_fit: hw_id.fit,
        hw_uncertainty_used: hw_uncertainty,
        os_uncertainty_used: os_uncertainty,
        hw_residual,
        os_residual,
        os_fit: os_id.fit,
        options: opts.clone(),
    })
}

static DEFAULT_DESIGN: OnceLock<Design> = OnceLock::new();

/// Designs keyed by excitation seed, for experiments that thread their own
/// seed through the whole pipeline (identification excitation included)
/// rather than riding on the process-global default.
static SEEDED_DESIGNS: OnceLock<std::sync::Mutex<std::collections::HashMap<u64, Design>>> =
    OnceLock::new();

/// The design whose identification excitation (and every downstream
/// artifact) derives from `seed`. Results are cached process-wide, and the
/// default seed shares [`default_design`]'s cache, so repeated calls are
/// free and bit-identical — the property crash-recovery replay relies on.
///
/// # Errors
///
/// Propagates [`build_design`] failures for seeds whose excitation record
/// turns out too poor to identify (practically: never for realistic
/// seeds).
pub fn design_for_seed(seed: u64) -> Result<Design> {
    if seed == DesignOptions::default().seed {
        return Ok(default_design().clone());
    }
    let cache =
        SEEDED_DESIGNS.get_or_init(|| std::sync::Mutex::new(std::collections::HashMap::new()));
    if let Some(d) = cache.lock().expect("design cache poisoned").get(&seed) {
        return Ok(d.clone());
    }
    let d = build_design(&DesignOptions {
        seed,
        ..Default::default()
    })?;
    cache
        .lock()
        .expect("design cache poisoned")
        .insert(seed, d.clone());
    Ok(d)
}

/// The cached default design (Tables II/III parameters). Built once per
/// process; deterministic.
///
/// # Panics
///
/// Panics if the design pipeline fails — that is a build-breaking bug, not
/// a runtime condition.
pub fn default_design() -> &'static Design {
    DEFAULT_DESIGN.get_or_init(|| {
        build_design(&DesignOptions::default()).expect("default Yukta design pipeline failed")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn excitation_produces_rich_data() {
        let opts = DesignOptions {
            excitation_secs: 20.0,
            ..Default::default()
        };
        let data = collect_excitation(&opts);
        assert!(data.len() > 100, "samples {}", data.len());
        // Inputs actually move (random walk).
        let f_col: Vec<f64> = data.u_hw.iter().map(|r| r[2]).collect();
        let min = f_col.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = f_col.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 0.3, "f_big excitation span {}", max - min);
        // Outputs are normalized and finite.
        for row in &data.y_hw {
            for v in row {
                assert!(v.is_finite() && v.abs() <= 2.0, "normalized output {v}");
            }
        }
    }

    #[test]
    fn default_design_builds_and_is_sane() {
        let d = default_design();
        // Controller shapes per Tables II/III, plus the deployed
        // observer form's applied-input port (one per actuator).
        assert_eq!(d.hw_ssv.controller.n_inputs(), 11);
        assert_eq!(d.hw_ssv.controller.n_outputs(), 4);
        assert_eq!(d.os_ssv.controller.n_inputs(), 10);
        assert_eq!(d.os_ssv.controller.n_outputs(), 3);
        assert!(d.hw_ssv.controller.is_stable().unwrap());
        assert!(d.os_ssv.controller.is_stable().unwrap());
        // Identification succeeded meaningfully on at least the power
        // outputs (index 1, 2 of the HW model).
        assert!(d.hw_fit[1] > 0.3, "big power fit too poor: {:?}", d.hw_fit);
        // The models have the right shapes for the LQG baselines.
        assert_eq!(d.hw_model_solo.n_inputs(), 4);
        assert_eq!(d.os_model_solo.n_inputs(), 3);
        assert_eq!(d.mono_model.n_inputs(), 7);
        assert_eq!(d.mono_model.n_outputs(), 7);
    }

    #[test]
    fn design_is_deterministic() {
        let opts = DesignOptions {
            excitation_secs: 15.0,
            ..Default::default()
        };
        let d1 = collect_excitation(&opts);
        let d2 = collect_excitation(&opts);
        assert_eq!(d1.u_hw, d2.u_hw);
        assert_eq!(d1.y_hw, d2.y_hw);
    }
}
