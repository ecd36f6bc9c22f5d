//! Machine calibrations: three fixed kernels that use nothing of the
//! program but `dot_scalar`. They run before and after the measured
//! part of every run. They are the ceilings the per-layer rates are
//! compared with, and the noise sentinel: when the two readings of one
//! kernel differ by more than [`NOISE_BOUND`], something else was using
//! the machine and the run says so.

use std::hint::black_box;

use crate::harness::fastest_secs;

/// Buffer size of the copy and read kernels: far beyond L2, small
/// enough that the two buffers do not disturb the peak-RSS metric.
const BUF_BYTES: usize = 64 << 20;

/// Length of the `dot_scalar` operands: one consumer-year.
const DOT_LEN: usize = 8760;

/// Two readings further apart than this mark the run as noisy (the
/// issue's 10 %).
pub const NOISE_BOUND: f64 = 0.10;

/// A run during which the hypervisor took more than this share of the
/// machine's CPU time is marked noisy as well.
pub const STOLEN_BOUND: f64 = 0.02;

/// One reading of the three calibration kernels.
#[derive(Debug, Clone, Copy)]
pub struct Machine {
    /// Bytes copied per second by `copy_from_slice` over 64 MiB.
    pub memcpy_gb_per_s: f64,
    /// Bytes summed per second over 64 MiB of `f64`.
    pub read_gb_per_s: f64,
    /// `smda_stats::dot_scalar` on two 8760-vectors (2 flops/element).
    pub dot_scalar_gflops: f64,
}

/// Run the three kernels once (a warm-up and five timed reps each).
pub fn calibrate() -> Machine {
    let words = BUF_BYTES / 8;
    let src: Vec<f64> = (0..words).map(|i| (i % 251) as f64).collect();
    let mut dst = vec![0.0f64; words];
    let copy_s = fastest_secs(5, || dst.copy_from_slice(black_box(&src)));
    // Eight running sums, so the adds of one lane do not wait on each
    // other and the loop runs at the speed the memory delivers.
    let read_s = fastest_secs(5, || {
        black_box(&src)
            .chunks_exact(8)
            .fold([0.0f64; 8], |mut lanes, chunk| {
                for (lane, x) in lanes.iter_mut().zip(chunk) {
                    *lane += x;
                }
                lanes
            })
            .iter()
            .sum::<f64>()
    });
    let (a, b) = (&src[..DOT_LEN], &src[DOT_LEN..2 * DOT_LEN]);
    const DOTS: usize = 2_000;
    let dot_s = fastest_secs(5, || {
        (0..DOTS)
            .map(|_| smda_stats::dot_scalar(black_box(a), black_box(b)))
            .sum::<f64>()
    });
    Machine {
        memcpy_gb_per_s: BUF_BYTES as f64 / copy_s / 1e9,
        read_gb_per_s: BUF_BYTES as f64 / read_s / 1e9,
        dot_scalar_gflops: (2 * DOT_LEN * DOTS) as f64 / dot_s / 1e9,
    }
}

impl Machine {
    /// The three readings under their per-layer metric names.
    pub fn named(&self) -> [(&'static str, f64); 3] {
        [
            ("machine.memcpy_gb_per_s", self.memcpy_gb_per_s),
            ("machine.read_gb_per_s", self.read_gb_per_s),
            ("machine.dot_scalar_gflops", self.dot_scalar_gflops),
        ]
    }

    /// Largest relative difference between this reading and `other`.
    pub fn drift(&self, other: &Machine) -> f64 {
        self.named()
            .iter()
            .zip(other.named())
            .map(|((_, a), (_, b))| (a - b).abs() / a.min(b))
            .fold(0.0, f64::max)
    }

    /// The faster reading of each kernel: the ceiling that per-layer
    /// rates are compared with.
    pub fn ceiling(&self, other: &Machine) -> Machine {
        Machine {
            memcpy_gb_per_s: self.memcpy_gb_per_s.max(other.memcpy_gb_per_s),
            read_gb_per_s: self.read_gb_per_s.max(other.read_gb_per_s),
            dot_scalar_gflops: self.dot_scalar_gflops.max(other.dot_scalar_gflops),
        }
    }
}

/// Words of the kernel's CPU mask (`cpu_set_t`, 1024 CPUs).
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    // From the C library `std` links; the workspace vendors no `libc`.
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
}

/// The calling thread held on one CPU until dropped; threads spawned
/// meanwhile inherit the hold.
///
/// Left free, the kernel moves the benchmark's threads between the two
/// vCPUs, and how it does so has two moods: for minutes after the
/// machine was busy (a build) a woken thread lands on the other vCPU,
/// which costs the closed serve loop 40 % of its requests per second,
/// adds 30 % to a top-k miss and 15 % to a single-threaded Histogram
/// run, and speeds the ingest pipeline up by 15 %; later it stays where
/// its waker runs. On one CPU there is nothing to decide, and every
/// metric reads the same in both moods.
pub struct Pinned {
    pub cpu: usize,
    previous: [u64; MASK_WORDS],
}

impl Pinned {
    /// Hold the calling thread on the CPU it is running on. `None` where
    /// the platform has no such call or refuses it; the run then goes on
    /// unpinned and its report says so.
    pub fn here() -> Option<Pinned> {
        #[cfg(target_os = "linux")]
        {
            let bytes = MASK_WORDS * 8;
            let mut previous = [0u64; MASK_WORDS];
            // SAFETY: both masks are `bytes` long and live across the calls.
            unsafe {
                let cpu = usize::try_from(sched_getcpu()).ok()?;
                if cpu >= MASK_WORDS * 64 || sched_getaffinity(0, bytes, previous.as_mut_ptr()) != 0 {
                    return None;
                }
                let mut one = [0u64; MASK_WORDS];
                one[cpu / 64] = 1 << (cpu % 64);
                (sched_setaffinity(0, bytes, one.as_ptr()) == 0).then_some(Pinned { cpu, previous })
            }
        }
        #[cfg(not(target_os = "linux"))]
        None
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // SAFETY: as in `here`. A refusal leaves the thread pinned,
        // which only makes the two-thread probes read 1.
        #[cfg(target_os = "linux")]
        unsafe {
            sched_setaffinity(0, MASK_WORDS * 8, self.previous.as_ptr());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_is_the_worst_kernel_relative_to_the_slower_reading() {
        let a = Machine {
            memcpy_gb_per_s: 10.0,
            read_gb_per_s: 20.0,
            dot_scalar_gflops: 2.0,
        };
        let b = Machine {
            memcpy_gb_per_s: 10.5,
            read_gb_per_s: 16.0,
            dot_scalar_gflops: 2.0,
        };
        assert!((a.drift(&b) - 0.25).abs() < 1e-12);
        assert!(a.drift(&b) > NOISE_BOUND && a.drift(&a) == 0.0);
        assert_eq!(a.ceiling(&b).read_gb_per_s, 20.0);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn a_pinned_thread_and_its_children_stay_on_one_cpu_until_released() {
        let cpus = || std::thread::available_parallelism().map_or(1, |n| n.get());
        let before = cpus();
        let pinned = Pinned::here().expect("Linux lets a thread pin itself");
        assert_eq!(cpus(), 1);
        let child = std::thread::spawn(move || (cpus(), unsafe { sched_getcpu() }));
        assert_eq!(child.join().unwrap(), (1, pinned.cpu as i32));
        drop(pinned);
        assert_eq!(cpus(), before);
    }
}
