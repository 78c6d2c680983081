//! `design-seeds`: the design pipeline alone. Default designs rebuilt
//! from scratch (no cache) for a few excitation seeds drawn from the
//! benchmark seed, none of them the default design's own. About 99% of
//! the time is D–K synthesis; no experiment runs.

use std::time::Instant;

use yukta_core::design::{DesignOptions, build_design};

use crate::check::{Checks, Fnv, design_digest, design_problems};
use crate::cpu;
use crate::stats::SplitMix;
use crate::trace::Layers;
use crate::{Outcome, Setup, Sim};

/// Excitation seeds per benchmark seed.
const N_SEEDS: usize = 10;

fn excitation_seeds(seed: u64) -> Vec<u64> {
    let default = DesignOptions::default().seed;
    let mut rng = SplitMix::new(seed);
    let mut out = Vec::with_capacity(N_SEEDS);
    while out.len() < N_SEEDS {
        let s = rng.next_u64();
        if s != default && !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

pub fn run(setup: &Setup, mut layers: Option<&mut Layers>, checks: &mut Checks) -> Outcome {
    let seeds = excitation_seeds(setup.seed);
    // First-round digest and µ̂ of each seed's design.
    let mut first: Vec<Option<(u64, f64, f64)>> = vec![None; seeds.len()];
    let mut unit_ms = Vec::new();
    let t_start = Instant::now();
    // Cycle through the seeds until the window is over, one round at least.
    for k in 0.. {
        let i = k % seeds.len();
        let opts = DesignOptions {
            seed: seeds[i],
            ..DesignOptions::default()
        };
        let label = format!("design seed {:#x}", seeds[i]);
        let (t0, c0) = (Instant::now(), cpu::now());
        let built = build_design(&opts).map_err(|e| e.to_string());
        let ns = t0.elapsed().as_nanos() as f64;
        unit_ms.push(cpu::since(c0).as_secs_f64() * 1e3);
        let mut builds = vec![built];
        if let Some(l) = layers.as_deref_mut() {
            let t0 = Instant::now();
            builds.push(l.build_traced(&opts));
            l.add_pass_pair(ns, t0.elapsed().as_nanos() as f64, 0.0);
        }
        for built in builds {
            let d = match built {
                Ok(d) => d,
                Err(e) => {
                    checks.record_error(&label, &e);
                    continue;
                }
            };
            let mut problems = design_problems(&d);
            let got = (design_digest(&d), d.hw_ssv.mu_peak, d.os_ssv.mu_peak);
            match first[i] {
                None => {
                    println!("{label}: µ̂ hw {} os {}", got.1, got.2);
                    first[i] = Some(got);
                }
                Some(f) if f.0 != got.0 => problems.push("rebuild differs".into()),
                Some(_) => {}
            }
            checks.record(&label, problems);
        }
        if k + 1 >= seeds.len() && t_start.elapsed().as_secs_f64() >= setup.seconds {
            break;
        }
    }
    let mut digest = Fnv::default();
    let (mut mu_hw_max, mut mu_os_max) = (f64::NAN, f64::NAN);
    for (d, hw, os) in first.iter().flatten() {
        digest.bytes(&d.to_le_bytes());
        mu_hw_max = hw.max(mu_hw_max);
        mu_os_max = os.max(mu_os_max);
    }
    Outcome {
        unit_ms,
        mu_hw_max,
        mu_os_max,
        sim: Sim::default(),
        digest: digest.finish(),
    }
}
