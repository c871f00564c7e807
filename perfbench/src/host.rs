//! The host's speed, measured with a fixed reference kernel interleaved
//! with the workload.
//!
//! Shared virtual machines change speed by tens of percent over tens of
//! seconds (a neighbour's load moves the clock and the shared caches),
//! and every wall-clock figure inherits that drift. The kernel below is
//! the same work in every run and every revision of the crates, so the
//! ratio of its time now to its nominal time is the host's slowdown. The
//! end-to-end timings are scaled by the slowdown measured right before
//! and right after the slice of work they come from: what remains moves
//! with the code under test, not with the neighbours.

use crate::common::{median, timed};
use std::process::Command;

/// Kernel rounds per calibration.
const ROUNDS: usize = 5;

/// Elements the kernel sorts: 256 KiB of `u64`, inside L2 on common
/// hosts, so the kernel mixes branches, arithmetic and cache traffic.
const ELEMENTS: usize = 1 << 15;

/// Calibrations in fresh processes per measurement; the median counts.
const PROCESS_ROUNDS: usize = 3;

/// One round of the kernel on one thread: fill a vector from a
/// xorshift stream and sort it.
fn kernel() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut v: Vec<u64> = (0..ELEMENTS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    std::hint::black_box(&v)[ELEMENTS / 2]
}

/// The `--kernel` mode: every round of one calibration, in this
/// process.
pub fn kernel_process() {
    for _ in 0..ROUNDS {
        kernel();
    }
}

/// Measures the host's speed the way a workload uses it: on as many
/// threads as it keeps busy (a slow second vCPU shows as it does in the
/// workload), and for a workload of worker processes, in fresh
/// processes, so that process start-up and first-touch page faults
/// count as they do in the workload.
#[derive(Clone, Copy, Debug)]
pub struct Host {
    threads: usize,
    processes: bool,
    /// The calibration's time on the host the baseline was recorded
    /// on; timings are reported as if every slice ran at that speed.
    nominal_s: f64,
}

impl Host {
    pub const fn threads(threads: usize) -> Self {
        Host {
            threads,
            processes: false,
            nominal_s: 1.1e-3,
        }
    }

    pub const fn processes(processes: usize) -> Self {
        Host {
            threads: processes,
            processes: true,
            nominal_s: 7.5e-3,
        }
    }

    /// The calibration's time, in seconds. On threads, every thread runs
    /// `ROUNDS` rounds at once and keeps its fastest (a thread's first
    /// round pays for waking its vCPU, and a stray interrupt slows one
    /// round, not the host), and the threads' times are averaged. In
    /// processes, it is the median wall of starting the processes, each
    /// running every round, and waiting for them.
    pub fn calibrate(self) -> f64 {
        if self.processes {
            return self.calibrate_processes();
        }
        let fastest = || {
            (0..ROUNDS)
                .map(|_| timed(kernel).1.as_secs_f64())
                .fold(f64::INFINITY, f64::min)
        };
        let per_thread: Vec<f64> = std::thread::scope(|s| {
            let others: Vec<_> = (1..self.threads).map(|_| s.spawn(fastest)).collect();
            let mine = fastest();
            others
                .into_iter()
                .map(|h| h.join().expect("kernel thread"))
                .chain([mine])
                .collect()
        });
        per_thread.iter().sum::<f64>() / per_thread.len() as f64
    }

    fn calibrate_processes(self) -> f64 {
        let exe = std::env::current_exe().expect("locate the benchmark binary");
        let walls = (0..PROCESS_ROUNDS)
            .map(|_| {
                timed(|| {
                    let children: Vec<_> = (0..self.threads)
                        .map(|_| {
                            Command::new(&exe)
                                .arg("--kernel")
                                .spawn()
                                .expect("start a kernel process")
                        })
                        .collect();
                    for mut child in children {
                        let _ = child.wait();
                    }
                })
                .1
                .as_secs_f64()
            })
            .collect();
        median(walls)
    }

    /// Scales a duration measured while the calibration took
    /// `calibration_s` to the nominal host speed.
    pub fn adjust(self, seconds: f64, calibration_s: f64) -> f64 {
        seconds * self.nominal_s / calibration_s
    }
}
