//! Property-based tests for the identification excitation schedules:
//! determinism under a fixed seed, channel isolation through stream
//! salting, amplitude shaping that respects actuator quantization, and
//! spectral coverage of the band the µ synthesis cares about.

use proptest::prelude::*;
use yukta_control::quant::InputGrid;
use yukta_control::sysid::excitation::{
    channel_seed, multisine_sequence, prbs_sequence, shape_to_grid,
};

/// Single-sided DFT power of a real record at integer bin `k`.
fn bin_power(x: &[f64], k: usize) -> f64 {
    let n = x.len() as f64;
    let w = std::f64::consts::TAU * k as f64 / n;
    let (mut re, mut im) = (0.0f64, 0.0f64);
    for (t, &v) in x.iter().enumerate() {
        re += v * (w * t as f64).cos();
        im -= v * (w * t as f64).sin();
    }
    (re * re + im * im) / (n * n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same (seed, channel) pair reproduces the identical PRBS and
    /// multisine records, and a different seed produces a different one —
    /// the determinism contract crash-recovery replay leans on.
    #[test]
    fn excitation_is_deterministic_in_the_seed(
        seed in 0u64..u64::MAX,
        channel in 0usize..6,
        n in 64usize..256,
    ) {
        let a = prbs_sequence(seed, channel, n, 3);
        let b = prbs_sequence(seed, channel, n, 3);
        prop_assert_eq!(&a, &b);
        let c = multisine_sequence(seed, channel, 4, n, 5);
        let d = multisine_sequence(seed, channel, 4, n, 5);
        prop_assert_eq!(&c, &d);
        // A flipped seed bit must change the PRBS chips (the multisine
        // comb is seed-independent by design; only its phase moves).
        let e = prbs_sequence(seed ^ 1, channel, n, 3);
        prop_assert!(a != e, "seed bit flip did not change the PRBS");
    }

    /// Stream salting: each channel's seed is distinct, and no channel's
    /// stream seed aliases the raw experiment seed (channel 0 included).
    #[test]
    fn channel_streams_are_isolated(seed in 0u64..u64::MAX, ch in 0usize..32) {
        prop_assert!(channel_seed(seed, ch) != seed);
        for other in 0..32usize {
            if other != ch {
                prop_assert!(channel_seed(seed, ch) != channel_seed(seed, other));
            }
        }
        // Different channels under the same seed give different PRBS
        // sequences (independent LFSR init states).
        let a = prbs_sequence(seed, ch, 128, 1);
        let b = prbs_sequence(seed, ch + 32, 128, 1);
        prop_assert!(a != b, "channel streams alias");
    }

    /// PRBS chips are exactly ±1, held for exactly `hold` samples, and
    /// roughly balanced (flat spectrum needs near-zero mean).
    #[test]
    fn prbs_is_binary_held_and_balanced(
        seed in 0u64..u64::MAX,
        hold in 1usize..6,
        chips in 40usize..120,
    ) {
        let n = chips * hold;
        let s = prbs_sequence(seed, 0, n, hold);
        prop_assert!(s.iter().all(|&v| v == 1.0 || v == -1.0));
        for (t, &v) in s.iter().enumerate() {
            // Within a hold window the chip cannot change.
            prop_assert_eq!(v, s[t - t % hold]);
        }
        let mean = s.iter().sum::<f64>() / n as f64;
        prop_assert!(mean.abs() < 0.5, "PRBS mean {mean} far from balanced");
    }

    /// Amplitude shaping: every shaped sample is an admissible grid index
    /// inside the requested window, and the window's end points are
    /// actually reached (the excitation uses the span it was given).
    #[test]
    fn shaping_respects_quantization(
        seed in 0u64..u64::MAX,
        step in 1usize..5,
        span in 3usize..10,
    ) {
        let grid = InputGrid::stepped(1.0, 1.0 + span as f64, step as f64 * 0.25);
        let (lo, hi) = (grid.min(), grid.max());
        let sig = prbs_sequence(seed, 1, 240, 2);
        let idx = shape_to_grid(&sig, &grid, lo, hi);
        prop_assert!(idx.iter().all(|&i| i < grid.len()));
        for (&v, &i) in sig.iter().zip(&idx) {
            let target = lo + (v + 1.0) * 0.5 * (hi - lo);
            let snapped = grid.values()[i];
            // Snapping error is bounded by the largest quantization gap.
            prop_assert!((snapped - target).abs() <= grid.max_gap() * 0.5 + 1e-12);
        }
        // A ±1 signal must visit both window ends.
        prop_assert!(idx.contains(&0));
        prop_assert!(idx.contains(&(grid.len() - 1)));
    }

    /// Spectral coverage: the multisine puts its power exactly on its own
    /// interleaved comb (orthogonal across channels) and covers `n_tones`
    /// distinct bins; the PRBS spreads power across the band rather than
    /// concentrating at DC the way the legacy random walk does.
    #[test]
    fn excitation_covers_the_band(
        seed in 0u64..u64::MAX,
        channel in 0usize..3,
        tones in 3usize..7,
    ) {
        let n = 256usize;
        let n_channels = 3usize;
        let ms = multisine_sequence(seed, channel, n_channels, n, tones);
        let own: f64 = (0..tones)
            .map(|i| bin_power(&ms, 1 + channel + i * n_channels))
            .sum();
        prop_assert!(own > 1e-3, "multisine comb power {own} too small");
        for i in 0..tones {
            prop_assert!(
                bin_power(&ms, 1 + channel + i * n_channels) > own / (tones as f64 * 20.0),
                "tone {i} missing from the comb"
            );
        }
        // Leakage onto another channel's comb is numerically zero.
        let other = (channel + 1) % n_channels;
        for i in 0..tones {
            prop_assert!(bin_power(&ms, 1 + other + i * n_channels) < 1e-12);
        }
        // PRBS: mid-band power is a healthy fraction of DC-adjacent power.
        let pr = prbs_sequence(seed, channel, n, 3);
        let low: f64 = (1..5).map(|k| bin_power(&pr, k)).sum();
        let mid: f64 = (n / 8..n / 8 + 4).map(|k| bin_power(&pr, k)).sum();
        prop_assert!(
            mid > 1e-3 * low.max(1e-12),
            "PRBS mid-band power {mid} collapsed relative to low band {low}"
        );
    }
}
