//! Host speed, measured beside every timing, so that the benchmark can
//! report its times at one reference speed of the host.
//!
//! The small shared hosts this benchmark runs on change speed by
//! 30–50 % over minutes as their neighbours come and go, and the
//! memory-heavy work of the program (JSON encoding, plan scheduling)
//! slows more than plain arithmetic does. So the benchmark times a
//! fixed reference kernel of its own — text formatting and parsing of
//! floats, a sort and a hash map, the same kinds of work — next to each
//! measurement, and scales each time it reports by
//! `REFERENCE_MS / measured`. The kernel calls no code of the program,
//! so a change to the program cannot move it: a program that gets 10 %
//! slower reads 10 % slower at any host speed.

use std::fmt::Write;
use std::os::raw::{c_int, c_long};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The reference kernel's time on the host the scale was set on: a
/// time measured while the kernel takes `REFERENCE_MS` is reported
/// as measured.
pub const REFERENCE_MS: f64 = 8.0;

/// Records the kernel formats, parses back, sorts and indexes.
const RECORDS: usize = 20_000;

/// Wall milliseconds of one run of the reference kernel.
pub fn reference_ms() -> f64 {
    let t = Instant::now();
    reference_kernel();
    t.elapsed().as_secs_f64() * 1e3
}

/// The reference kernel: fixed work, the same on every call.
fn reference_kernel() {
    let mut x = 0x1234_5678_9abc_def0_u64;
    let mut text = String::with_capacity(48 * RECORDS);
    for _ in 0..RECORDS {
        // SplitMix64, so the work is the same on every call.
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let v = (z >> 11) as f64 / (1u64 << 53) as f64 * 1e4;
        let _ = write!(text, "{{\"v\":{v},\"k\":\"{z:x}\"}},");
    }
    let mut values: Vec<f64> = text
        .split(',')
        .filter_map(|f| f.strip_prefix("{\"v\":"))
        .filter_map(|f| f.parse().ok())
        .collect();
    values.sort_by(f64::total_cmp);
    let index: std::collections::HashMap<u64, usize> = values
        .iter()
        .enumerate()
        .map(|(i, v)| (v.to_bits(), i))
        .collect();
    std::hint::black_box(index.len());
}

/// How much slower than the reference the host ran while the kernel
/// took `reference_ms` on average over `samples`: divide a time by it
/// (multiply a rate) to report it at the reference speed.
pub fn slowness(samples: &[f64]) -> f64 {
    let mean = samples.iter().sum::<f64>() / samples.len().max(1) as f64;
    mean / REFERENCE_MS
}

/// Time between samples of a [`Probe`]: ~8 ms of kernel per 200 ms
/// keeps it at ~4 % of one core.
const PROBE_PERIOD: Duration = Duration::from_millis(200);

/// One run of the reference kernel under a [`Probe`].
pub struct Sample {
    /// When the run started, in seconds since the probe did.
    pub at_s: f64,
    /// How long it took, in milliseconds.
    pub ms: f64,
}

/// Samples the reference kernel on a thread of its own while a
/// single-threaded child process does the measured work, both held on
/// one core by a [`OneCpu`]: on the other core the probe measured a
/// different core's contention, and once read the host 2× slower while
/// the CLI ran only 1.3× slower. A sample is the kernel's CPU time, as
/// its wall time would include the CLI's share of the core.
pub struct Probe {
    stop: mpsc::Sender<()>,
    sampler: JoinHandle<Vec<Sample>>,
}

impl Probe {
    pub fn start() -> Probe {
        let (stop, stopped) = mpsc::channel::<()>();
        let started = Instant::now();
        let sampler = std::thread::spawn(move || {
            let mut samples = Vec::new();
            loop {
                let at_s = started.elapsed().as_secs_f64();
                let cpu_s = thread_cpu_s();
                reference_kernel();
                samples.push(Sample {
                    at_s,
                    ms: (thread_cpu_s() - cpu_s) * 1e3,
                });
                if stopped.recv_timeout(PROBE_PERIOD) != Err(RecvTimeoutError::Timeout) {
                    return samples;
                }
            }
        });
        Probe { stop, sampler }
    }

    /// Stop sampling; the samples taken, in order (at least one).
    pub fn finish(self) -> Vec<Sample> {
        drop(self.stop);
        self.sampler.join().expect("the sampler only computes")
    }
}

#[repr(C)]
struct Timespec {
    sec: c_long,
    nsec: c_long,
}

/// `cpu_set_t`: 1024 CPUs, one bit each.
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// CPU seconds the calling thread has run.
fn thread_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, aligned timespec that clock_gettime(2)
    // writes and nothing else reads meanwhile.
    unsafe {
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts);
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Holds the calling thread, and every thread and child process it
/// starts meanwhile (they inherit its CPU mask), on its lowest allowed
/// CPU; the thread's own mask is restored on drop.
pub struct OneCpu {
    previous: CpuSet,
}

impl OneCpu {
    /// `None` when the mask cannot be read or set: the work then runs
    /// unpinned.
    pub fn pin() -> Option<OneCpu> {
        let size = std::mem::size_of::<CpuSet>();
        let mut previous = CpuSet([0; 16]);
        // SAFETY: `previous` is a live cpu_set_t of `size` bytes that
        // sched_getaffinity(2) writes; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, size, &mut previous) } != 0 {
            return None;
        }
        let (word, bits) = previous.0.iter().enumerate().find(|(_, w)| **w != 0)?;
        let mut one = CpuSet([0; 16]);
        one.0[word] = 1 << bits.trailing_zeros();
        // SAFETY: `one` is a live cpu_set_t of `size` bytes that
        // sched_setaffinity(2) only reads.
        (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(OneCpu { previous })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // SAFETY: as in `pin`; the mask is the one read there.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &self.previous);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_the_mean_sample_over_the_reference() {
        assert_eq!(slowness(&[REFERENCE_MS]), 1.0);
        assert_eq!(slowness(&[REFERENCE_MS, 3.0 * REFERENCE_MS]), 2.0);
    }

    #[test]
    fn one_cpu_pins_and_restores_the_mask() {
        let size = std::mem::size_of::<CpuSet>();
        let mask = || {
            let mut m = CpuSet([0; 16]);
            // SAFETY: as in `OneCpu::pin`.
            assert_eq!(unsafe { sched_getaffinity(0, size, &mut m) }, 0);
            m.0
        };
        let before = mask();
        let pinned = OneCpu::pin().expect("the mask can be set");
        assert_eq!(mask().iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        drop(pinned);
        assert_eq!(mask(), before);
    }

    #[test]
    fn probe_takes_a_sample_at_once_and_stops_when_asked() {
        let samples = Probe::start().finish();
        assert!(!samples.is_empty());
        assert!(samples.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        assert!(samples.iter().all(|s| s.ms > 0.0 && s.ms.is_finite()));
    }
}
