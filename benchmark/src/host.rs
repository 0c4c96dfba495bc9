//! What the harness reads from the host: process CPU time, peak resident
//! memory, and a fixed reference kernel whose timing says which speed state
//! the sandbox was in while a cell was measured.

use std::hint::black_box;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed so far by every thread of this
/// process, exited ones included (nanosecond resolution; `/proc/self/stat`
/// only offers 10 ms ticks, which is 1 % of a one-second cell).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the 64-bit Linux
    // layout (two `i64`s), and the clock id is a constant the kernel knows;
    // the call writes `ts` and nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM line in /proc/self/status") / 1024.0
}

fn parse_vm_hwm_kib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// What [`reference_kernel_seconds`] takes on the sandbox this benchmark was
/// calibrated on (its median over five minutes). It only fixes the scale of
/// the corrected timings: on a host in exactly this state they equal the raw
/// ones.
pub const NOMINAL_KERNEL_SECONDS: f64 = 0.0032;

/// Times one pass of a fixed kernel: eight independent multiply-add chains,
/// one million steps each, no memory traffic, no allocation (~3 ms).
///
/// The chains are independent on purpose. The sandbox's noise is a neighbour
/// on the same physical core taking execution slots: code that keeps the
/// core's ports busy — the simulator, this kernel — slows by up to 2x for
/// seconds to minutes, while a single dependent chain (latency-bound) barely
/// notices. Measured over five minutes next to `env_worlds` cells, this
/// kernel's time correlated 0.6–0.8 with the adjacent cell's and a dependent
/// xorshift chain's 0.4–0.5.
fn reference_kernel_seconds() -> f64 {
    let start = Instant::now();
    let mut chains = black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
    for step in 0..1_000_000u64 {
        for (lane, x) in chains.iter_mut().enumerate() {
            *x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(step ^ lane as u64);
        }
    }
    black_box(chains);
    start.elapsed().as_secs_f64()
}

/// [`reference_kernel_seconds`] on `threads` threads at once, averaged: the
/// host's speed as a cell that keeps `threads` cores busy feels it. A
/// two-worker sweep slows when either core's neighbour wakes up — and when
/// the two vCPUs turn out to share one physical core — which a kernel on one
/// thread with the other core idle cannot see.
pub fn reference_kernel_seconds_on(threads: u32) -> f64 {
    let total: f64 = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map(|_| scope.spawn(reference_kernel_seconds))
            .collect();
        let here = reference_kernel_seconds();
        here + helpers
            .into_iter()
            .map(|h| h.join().expect("the kernel does not panic"))
            .sum::<f64>()
    });
    total / f64::from(threads.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048.0));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let before = process_cpu_seconds();
        let mut spent = 0.0;
        while spent < 0.02 {
            spent += reference_kernel_seconds();
        }
        assert!(process_cpu_seconds() > before);
        assert!(peak_rss_mib() > 0.0);
    }
}
