//! Cycle clock for the threaded executor.
//!
//! Provides a monotonic cycle counter ([`now`]) and calibrated busy
//! waiting ([`spin`]). On x86-64 the counter is `rdtsc`; elsewhere it is
//! derived from [`std::time::Instant`] scaled by a nominal frequency, so
//! "cycles" remain comparable across the codebase.

use std::sync::OnceLock;
use std::time::Instant;

/// Nominal frequency used to convert wall time to cycles on platforms
/// without a TSC (and to size spin loops): 2.33 GHz, the paper's Xeon.
pub const NOMINAL_FREQ_HZ: u64 = 2_330_000_000;

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Current value of the cycle counter.
#[inline]
pub fn now() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `rdtsc` has no preconditions.
    unsafe {
        std::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let ns = epoch().elapsed().as_nanos() as u64;
        // ns * 2.33 without overflow for decades of uptime.
        ns * (NOMINAL_FREQ_HZ / 1_000_000) / 1_000
    }
}

/// Busy-spins for approximately `cycles` cycles: real service time for
/// synthetic handlers and tests to burn. No executor calls it.
#[inline]
pub fn spin(cycles: u64) {
    let start = now();
    while now().wrapping_sub(start) < cycles {
        std::hint::spin_loop();
    }
}

/// Ensures the fallback epoch is initialised (call once at startup so the
/// first measurement is not skewed). Harmless on x86-64.
pub fn init() {
    let _ = epoch();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_is_monotonic_enough() {
        init();
        let a = now();
        let b = now();
        assert!(b >= a);
    }

    #[test]
    fn spin_advances_clock() {
        let start = now();
        spin(10_000);
        assert!(now() - start >= 10_000);
    }

    #[test]
    fn spin_zero_returns_immediately() {
        spin(0);
    }
}
