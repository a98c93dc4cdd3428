//! The host the benchmark runs on: how fast it is right now, and
//! pinning a closed-loop ping-pong to one CPU.
//!
//! On a shared virtual machine the CPU time a guest gets per wall-clock
//! second drifts by tens of percent over minutes, with other tenants'
//! load. A latency measured in one run is then as much a reading of the
//! host as of the program. The benchmark therefore times a fixed
//! reference kernel, written here and independent of every crate it
//! measures, between rounds of requests while every client is idle, and
//! reports latencies also in host-normalized microseconds: scaled to a
//! host on which the kernel takes [`REFERENCE_US`]. A change to the
//! program moves the normalized latency exactly as it moves the raw
//! one; a change of host speed moves the kernel too and cancels out.

use crate::stats::Samples;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel time that defines the normalized microsecond: the kernel took
/// about this long on the 2-vCPU VM the bounds were set on, so there
/// normalized and raw latencies are close.
pub const REFERENCE_US: f64 = 1000.0;
/// Kernel runs per pause between rounds.
const RUNS_PER_PAUSE: usize = 3;
/// Strings the kernel builds, sorts, counts and joins.
const KERNEL_STRINGS: usize = 3000;

/// The reference kernel: string formatting, allocation, a sort, a hash
/// map and a concatenation, the kinds of work a request does, in about
/// one millisecond. `salt` varies the input so no run can be elided.
pub fn reference_kernel(salt: usize) -> usize {
    let mut v: Vec<String> = (0..KERNEL_STRINGS)
        .map(|i| format!("<attr name=\"k{}\">{i}</attr>", (i * 7919 + salt) % 4001))
        .collect();
    v.sort_unstable();
    let mut counts = std::collections::HashMap::new();
    for s in &v {
        *counts.entry(&s[10..14]).or_insert(0usize) += 1;
    }
    v.concat().len() + counts.len()
}

/// Reference-kernel times taken over one run.
#[derive(Debug, Default)]
pub struct HostClock {
    samples: Samples,
    /// Wall-clock time the kernel runs took.
    pub spent: Duration,
    /// Largest resident set size seen at a pause, in MiB.
    pub rss_peak_mb: f64,
}

impl HostClock {
    /// Time the kernel a few times; call it while no request is in
    /// flight. Returns the median of these runs in microseconds.
    pub fn pause(&mut self) -> f64 {
        let t = Instant::now();
        let mut runs = Samples::default();
        for k in 0..RUNS_PER_PAUSE {
            let run = Instant::now();
            black_box(reference_kernel(black_box(self.samples.len() + k)));
            runs.push(run.elapsed());
        }
        self.samples.extend(&runs);
        self.spent += t.elapsed();
        if let Ok(mb) = rss_mb("VmRSS") {
            self.rss_peak_mb = self.rss_peak_mb.max(mb);
        }
        runs.median_us()
    }

    /// Add another clock's kernel times and resident set sizes (not its
    /// time spent).
    pub fn merge(&mut self, other: HostClock) {
        self.samples.extend(&other.samples);
        self.rss_peak_mb = self.rss_peak_mb.max(other.rss_peak_mb);
    }

    /// Pause repeatedly for about `d`.
    pub fn pause_for(&mut self, d: Duration) {
        let end = Instant::now() + d;
        while Instant::now() < end {
            self.pause();
        }
    }

    /// Median kernel time in microseconds.
    pub fn median_us(&self) -> f64 {
        self.samples.median_us()
    }

    /// Kernel runs timed.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `us` measured on this host, in normalized microseconds.
    pub fn normalize(&self, us: f64) -> f64 {
        us * REFERENCE_US / self.median_us()
    }
}

/// This process's `VmRSS` (resident set size now) or `VmHWM` (its
/// peak) from `/proc/self/status`, in MiB.
pub fn rss_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or(format!("no {field} in /proc/self/status"))
}

/// Hand the heap's free memory back to the operating system (glibc).
pub fn trim_heap() {
    // SAFETY: malloc_trim only releases memory no allocation uses.
    unsafe { malloc_trim(0) };
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A CPU affinity mask of up to 1024 CPUs.
pub type CpuMask = [u64; 16];

fn get_affinity() -> Result<CpuMask, String> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: the kernel writes at most `size` bytes into `mask`.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(mask)
}

/// Set the calling thread's CPU affinity; threads it spawns afterwards
/// inherit it.
pub fn set_affinity(mask: &CpuMask) -> Result<(), String> {
    // SAFETY: the kernel reads `size` bytes from `mask`.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(())
}

/// Pin the calling thread, and every thread it spawns from now on, to
/// the first CPU it may run on. Returns that CPU and the mask before.
///
/// With one request in flight, the client and the server hand the
/// request back and forth and never run at once. On two CPUs each
/// hand-off wakes a CPU that has gone idle, and on a virtual machine
/// that wake-up costs whatever the host's load makes it cost; on one
/// CPU it is a plain context switch.
pub fn pin_to_one_cpu() -> Result<(usize, CpuMask), String> {
    let before = get_affinity()?;
    let cpu = (0..1024)
        .find(|c| before[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("empty CPU affinity mask")?;
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    set_affinity(&one)?;
    Ok((cpu, before))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_per_salt() {
        assert_eq!(reference_kernel(1), reference_kernel(1));
        assert!(reference_kernel(0) > KERNEL_STRINGS * 20);
    }

    #[test]
    fn pause_times_the_kernel() {
        let mut h = HostClock::default();
        h.pause();
        assert_eq!(h.len(), RUNS_PER_PAUSE);
        assert!(h.median_us() > 0.0 && h.spent > Duration::ZERO);
        assert!((h.normalize(h.median_us()) - REFERENCE_US).abs() < 1e-9);
    }

    #[test]
    fn resident_set_sizes() {
        let (now, peak) = (rss_mb("VmRSS").expect("VmRSS"), rss_mb("VmHWM").expect("VmHWM"));
        assert!(now > 0.0 && peak >= now);
        trim_heap();
        assert!(rss_mb("VmNoSuchField").is_err());
    }

    #[test]
    fn pin_and_restore() {
        std::thread::spawn(|| {
            let (cpu, before) = pin_to_one_cpu().expect("pin");
            let now = get_affinity().expect("mask");
            assert_eq!(now.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_eq!(now[cpu / 64] >> (cpu % 64) & 1, 1);
            set_affinity(&before).expect("restore");
            assert_eq!(get_affinity().expect("mask"), before);
        })
        .join()
        .expect("pinning thread");
    }
}
