//! Process CPU time. The benchmark's host-time metrics are CPU time, not
//! wall time: on a shared virtual machine the hypervisor steals the vCPU
//! in bursts (10–30% of busy time on the 2-vCPU Xeon VM the bounds were
//! set on), which stretches wall time by up to 2× between processes a few
//! minutes apart but is not charged to the process's CPU clock.

use std::time::Duration;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: CPU time of every thread of the
/// process, the D–K sweep workers included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed by this process so far.
pub fn now() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, which the crate's `compile_error!` guard
    // enforces), and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time spent since `start` (a value of [`now`]).
pub fn since(start: Duration) -> Duration {
    now().saturating_sub(start)
}
