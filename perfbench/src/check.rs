//! Correctness gate and simulated-output digests.

use std::fmt::Write as _;

use yukta_core::design::Design;
use yukta_core::metrics::Report;
use yukta_core::recorder::Journal;

/// Runs attempted and failed, with a reason per failure.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one run; it fails if `problems` is non-empty.
    pub fn record(&mut self, label: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures
                .push(format!("{label}: {}", problems.join("; ")));
        }
    }

    /// Counts one run that errored or panicked.
    pub fn record_error(&mut self, label: &str, err: &str) {
        self.record(label, vec![err.to_string()]);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// What is wrong with a design: an unstable controller, or a non-finite
/// γ or µ̂.
pub fn design_problems(d: &Design) -> Vec<String> {
    let mut problems = Vec::new();
    for (layer, syn) in [("hw", &d.hw_ssv), ("os", &d.os_ssv)] {
        if !matches!(syn.controller.is_stable(), Ok(true)) {
            problems.push(format!("{layer} controller not stable"));
        }
        if !(syn.mu_peak.is_finite() && syn.mu_peak > 0.0) {
            problems.push(format!("{layer} µ̂ {}", syn.mu_peak));
        }
        if !syn.gamma.is_finite() {
            problems.push(format!("{layer} γ {}", syn.gamma));
        }
    }
    problems
}

/// What is wrong with one finished run: incomplete, non-finite E×D, or a
/// broken actuation or mode-automaton invariant.
pub fn report_problems(r: &Report) -> Vec<String> {
    let mut p = Vec::new();
    if !r.metrics.completed {
        p.push(format!("timed out at {} s", r.metrics.delay_seconds));
    }
    let exd = r.metrics.exd();
    if !(exd.is_finite() && exd > 0.0) {
        p.push(format!("E×D {exd}"));
    }
    if r.actuation.double_actuations != 0 {
        p.push(format!(
            "{} double actuations",
            r.actuation.double_actuations
        ));
    }
    if r.actuation.tmu_cap_expansions != 0 {
        p.push(format!(
            "{} TMU cap expansions",
            r.actuation.tmu_cap_expansions
        ));
    }
    if let Some(s) = &r.supervisor {
        if s.invariant_violations != 0 {
            p.push(format!("{} invariant violations", s.invariant_violations));
        }
    }
    p
}

/// Whether `decoded` holds exactly the records of `journal`.
pub fn same_journal(journal: &Journal, decoded: Option<&Journal>) -> bool {
    decoded.is_some_and(|d| {
        d.len() == journal.len()
            && d.records()
                .iter()
                .zip(journal.records())
                .all(|(a, b)| a.bit_identical(b))
    })
}

/// FNV-1a over a byte stream; `fmt::Write` so `Debug` output (which
/// prints every `f64` in its shortest round-trip form, i.e. bit-exactly)
/// streams straight in.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64s(&mut self, v: &[f64]) {
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Digest of every simulated field of a report (wall-clock
/// `Report::compute` excluded, as in `Report::bit_identical`).
pub fn report_digest(h: &mut Fnv, r: &Report) {
    write!(
        h,
        "{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        r.workload, r.scheme, r.metrics, r.trace, r.supervisor, r.faults, r.slo, r.actuation
    )
    .expect("hashing cannot fail");
}

/// Digest of a design's deployed controllers, models and synthesis data.
pub fn design_digest(d: &Design) -> u64 {
    let mut h = Fnv::default();
    for syn in [&d.hw_ssv, &d.os_ssv] {
        h.f64s(&[syn.gamma, syn.mu_peak]);
        h.f64s(&syn.scalings);
        for s in &syn.d_sections {
            h.f64s(&[s.k, s.z, s.p]);
        }
        h.f64s(&syn.guaranteed_bounds);
        h.bytes(&(syn.iterations as u64).to_le_bytes());
    }
    for sys in [
        &d.hw_ssv.controller,
        &d.os_ssv.controller,
        &d.hw_model_full,
        &d.os_model_full,
        &d.hw_model_solo,
        &d.os_model_solo,
        &d.mono_model,
    ] {
        for m in [sys.a(), sys.b(), sys.c(), sys.d()] {
            h.bytes(&(m.rows() as u64).to_le_bytes());
            h.f64s(m.as_slice());
        }
    }
    h.f64s(&d.hw_fit);
    h.f64s(&d.os_fit);
    h.f64s(&[
        d.hw_uncertainty_used,
        d.os_uncertainty_used,
        d.hw_residual,
        d.os_residual,
    ]);
    h.finish()
}

/// A JSON number with every digit `f64` carries (`null` if non-finite).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
