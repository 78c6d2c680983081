//! End-to-end and per-layer benchmark of the Yukta reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig9-grid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every run builds the default design from scratch a few times (the
//! set-up, timed), then drives one workload for `--seconds` seconds of
//! host time, checks every output, and prints one JSON object as the last
//! line of standard output. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` alternates untraced and traced passes of the same inputs
//! and reports the per-layer metrics. See `perfbench/README.md` for the
//! workloads, metrics and seeds.

mod adapter;
mod check;
mod cpu;
mod fig9;
mod seeds;
mod serve;
mod stats;
mod trace;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the Linux process CPU clock and /proc: it needs 64-bit Linux");

use std::process::ExitCode;

use yukta_core::design::{Design, DesignOptions, build_design};

use crate::check::Checks;
use crate::stats::{median, quantile};
use crate::trace::Layers;

/// Default-design builds in one set-up; `setup_s` is their median. The
/// traced run reports no `setup_s` and builds once.
const SETUP_BUILDS: usize = 3;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What one workload produced, in either mode.
pub struct Outcome {
    /// Process CPU time per unit of work (ms), untraced.
    pub unit_ms: Vec<f64>,
    /// Worst µ̂ upper bound of the HW / OS designs the workload used.
    pub mu_hw_max: f64,
    pub mu_os_max: f64,
    /// Simulated figures of merit (deterministic).
    pub sim: Sim,
    /// Hash over the bit patterns of every simulated output.
    pub digest: u64,
}

/// Everything one invocation measured.
struct Measured {
    out: Outcome,
    /// Runs (experiment runs or design builds) attempted and failed.
    checks: Checks,
    /// Per-layer summary (`--trace 1` only).
    layers: Option<Layers>,
    setup_s: f64,
}

/// The simulated figures of merit; each workload fills the ones it
/// exercises and leaves the rest at 0. Deterministic: they must repeat
/// exactly across runs, and across untraced and traced passes.
#[derive(Default)]
pub struct Sim {
    /// Fig 9a Avg geomean E×D of SSV+SSV vs coordinated heuristic (the
    /// paper reports 0.50); on serve-deploy the geomean over its cells.
    pub exd_ssv_ssv_avg: f64,
    /// The same for HW SSV+OS heuristic (the paper reports 0.63).
    pub exd_hw_ssv_avg: f64,
    /// Geomean over serving cells of run-lifetime p99 latency (sim s).
    pub slo_p99_s: f64,
    /// Completed ÷ offered requests over serving cells.
    pub slo_goodput_frac: f64,
    /// Mean fraction of invocations whose windowed p99 broke the SLO.
    pub slo_violation_frac: f64,
}

impl Sim {
    pub fn list(&self) -> [Metric; 5] {
        [
            ("sim.exd_ssv_ssv_avg", self.exd_ssv_ssv_avg, "ratio"),
            ("sim.exd_hw_ssv_avg", self.exd_hw_ssv_avg, "ratio"),
            ("sim.slo_p99_s", self.slo_p99_s, "s"),
            ("sim.slo_goodput_frac", self.slo_goodput_frac, "ratio"),
            ("sim.slo_violation_frac", self.slo_violation_frac, "ratio"),
        ]
    }
}

/// Everything a workload needs from the set-up.
pub struct Setup {
    pub design: Design,
    pub seed: u64,
    pub seconds: f64,
}

/// Peak resident set size of this process (MB), from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Silences the panics the fault plan injects on purpose
/// ([`yukta_core::runtime::InjectedCrash`]); every other panic keeps the
/// default report. Without this, each injected crash would print (and,
/// under `RUST_BACKTRACE=1`, capture) a backtrace inside the timed region.
fn install_quiet_panic_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info
            .payload()
            .downcast_ref::<yukta_core::runtime::InjectedCrash>()
            .is_none()
        {
            default(info);
        }
    }));
}

/// Builds the default design `builds` times, checks the builds agree bit
/// for bit, and returns the design with the median build CPU time (s).
fn setup(builds: usize, checks: &mut Checks) -> Result<(Design, f64), String> {
    let mut times = Vec::with_capacity(builds);
    let mut first: Option<(Design, u64)> = None;
    for _ in 0..builds {
        let c0 = cpu::now();
        let design = build_design(&DesignOptions::default())
            .map_err(|e| format!("default design build failed: {e}"))?;
        times.push(cpu::since(c0).as_secs_f64());
        let digest = check::design_digest(&design);
        let mut problems = check::design_problems(&design);
        match &first {
            None => first = Some((design, digest)),
            Some((_, d0)) if digest != *d0 => problems.push("rebuild differs".into()),
            Some(_) => {}
        }
        checks.record("default design", problems);
    }
    let (design, _) = first.expect("at least one set-up build");
    Ok((design, median(&times)))
}

fn run(args: &Args) -> Result<Measured, String> {
    if args.trace {
        trace::install_global();
    }
    let workload = match args.workload.as_str() {
        "fig9-grid" => fig9::run,
        "serve-deploy" => serve::run,
        "design-seeds" => seeds::run,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let mut checks = Checks::default();
    let builds = if args.trace { 1 } else { SETUP_BUILDS };
    let (design, setup_s) = setup(builds, &mut checks)?;
    let setup = Setup {
        design,
        seed: args.seed,
        seconds: args.seconds,
    };
    let mut layers = None;
    if args.trace {
        let mut l = Layers::default();
        let d = l.probe_design()?;
        let mut problems = check::design_problems(&d);
        if check::design_digest(&d) != check::design_digest(&setup.design) {
            problems.push("differs from the untraced build".into());
        }
        checks.record("default design (traced)", problems);
        layers = Some(l);
    }
    let out = workload(&setup, layers.as_mut(), &mut checks);
    Ok(Measured {
        out,
        checks,
        layers,
        setup_s,
    })
}

/// One metric of the result line: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn json_line(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                check::json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.correct(),
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(out: &Outcome, setup_s: f64) -> Result<Vec<Metric>, String> {
    println!("run CPU time: {} samples", out.unit_ms.len());
    Ok(vec![
        ("setup_s", setup_s, "s"),
        ("run_cpu_ms_p50", quantile(&out.unit_ms, 0.5), "ms"),
        ("run_cpu_ms_p90", quantile(&out.unit_ms, 0.9), "ms"),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
        ("mu_hw_max", out.mu_hw_max, "ratio"),
        ("mu_os_max", out.mu_os_max, "ratio"),
    ])
}

fn main() -> ExitCode {
    install_quiet_panic_hook();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Measured {
        out,
        checks,
        layers,
        setup_s,
    } = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &checks.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!(
        "workload {} seed {}: {} runs attempted, {} failed",
        args.workload, args.seed, checks.attempted, checks.failed
    );
    println!("sim_digest {:016x}", out.digest);
    for (name, v, unit) in out.sim.list() {
        println!("{name} = {v} {unit}");
    }
    let metrics = match &layers {
        None => match end_to_end(&out, setup_s) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        },
        Some(layers) => layers.metrics(&out.sim),
    };
    for (name, value, unit) in &metrics {
        println!("{name:<28} {:>16} {unit}", check::json_number(*value));
    }
    println!("{}", json_line(&checks, &metrics));
    if checks.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
