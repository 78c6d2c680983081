//! The benchmark's only calls into `Experiment::run_*`. A change to the
//! runtime's entry points updates the call sites here and nowhere else.

use std::panic::{AssertUnwindSafe, catch_unwind};
use std::sync::Arc;

use yukta_core::design::Design;
use yukta_core::metrics::Report;
use yukta_core::runtime::{Experiment, RecoveredRun, RunOptions, UnifiedOptions};
use yukta_core::schemes::{Controllers, Scheme};
use yukta_obs::Recorder;
use yukta_workloads::Workload;

/// An experiment of `scheme` on `design`, optionally reporting its
/// runtime and board telemetry to `recorder`.
pub fn experiment(
    scheme: Scheme,
    design: &Design,
    recorder: Option<Arc<dyn Recorder>>,
) -> Experiment {
    let exp = Experiment::with_design(scheme, design.clone());
    match recorder {
        Some(r) => exp.with_recorder(r),
        None => exp,
    }
}

/// Fresh controllers of `scheme` for one run.
pub fn controllers(scheme: Scheme, design: &Design) -> Result<Controllers, String> {
    scheme
        .instantiate(design, RunOptions::default().limits)
        .map_err(|e| format!("instantiate {scheme}: {e}"))
}

/// One run on the raw engine (no supervisor, queue or journal).
pub fn run_raw(exp: &Experiment, wl: &Workload, c: Controllers) -> Result<Report, String> {
    guarded(|| exp.run_with_controllers(wl, c))
}

/// One run through the composed runner (supervisor, faults, crash
/// recovery, serving — whatever `opts` enables).
pub fn run_unified(
    exp: &Experiment,
    wl: &Workload,
    opts: UnifiedOptions,
) -> Result<RecoveredRun, String> {
    guarded(|| exp.run_unified(wl, opts))
}

/// Turns an error or an escaped panic into a failure message. Injected
/// crashes never escape `run_unified`; anything that does is a real bug.
fn guarded<T>(f: impl FnOnce() -> yukta_linalg::Result<T>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(format!("error: {e}")),
        Err(payload) => Err(match payload.downcast_ref::<&str>() {
            Some(s) => format!("panic: {s}"),
            None => match payload.downcast_ref::<String>() {
                Some(s) => format!("panic: {s}"),
                None => "panic".to_string(),
            },
        }),
    }
}
