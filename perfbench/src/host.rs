//! Host-side measurements: process CPU time, peak resident memory, the
//! host-speed probe, the git revision of the checkout, and the median the
//! benchmark reports.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use simkernel::SimRng;

/// The probe's walks: `(elements of u32, dependent loads)`.  Their sizes
/// span the private caches, the shared cache and memory (256 KiB to
/// 16 MiB), like the simulator's own cache-model arrays.
const PROBE_WALKS: [(usize, usize); 4] = [
    (64 << 10, 500_000),
    (256 << 10, 300_000),
    (1 << 20, 200_000),
    (4 << 20, 150_000),
];
/// Rounds of the probe's branchy integer loop.
const PROBE_ROUNDS: u64 = 1_500_000;
/// The probe's time on the host the benchmark was defined on (a 2-thread
/// shared VM).  Normalised times are host seconds on a host running at that
/// speed.
pub const PROBE_REFERENCE_S: f64 = 0.1;

/// A fixed host-speed probe, about 0.1 s: dependent walks over one random
/// cycle through each of four buffers from 256 KiB to 16 MiB, then a loop
/// of unpredictable branches.
///
/// On a shared VM the speed of the whole host drifts by tens of percent
/// for minutes at a time.  The probe is timed right before each timed step,
/// and the step's time is divided by its slowdown, so most of the drift
/// cancels out of the comparison between two runs made at different times.
/// No single part tracks the simulator's slowdowns; their sum does best.
/// Its code is the benchmark's own, so no change to the simulator moves it.
pub struct SpeedProbe {
    walks: Vec<(Vec<u32>, usize)>,
}

impl SpeedProbe {
    /// Builds the walks (Sattolo's shuffle: a single cycle through every
    /// element, so a walk never settles into a short loop).
    pub fn new() -> Self {
        let mut rng = SimRng::seed_from_u64(0x5EED_5EED);
        let walks = PROBE_WALKS
            .iter()
            .map(|&(elems, steps)| {
                let mut next: Vec<u32> = (0..elems as u32).collect();
                for i in (1..elems).rev() {
                    let j = rng.next_below(i as u64) as usize;
                    next.swap(i, j);
                }
                (next, steps)
            })
            .collect();
        SpeedProbe { walks }
    }

    /// How many times slower than the reference the host runs right now
    /// (host seconds of one probe ÷ [`PROBE_REFERENCE_S`]).
    pub fn slowdown(&self) -> f64 {
        let start = Instant::now();
        let mut at = 0u32;
        for (next, steps) in &self.walks {
            at %= next.len() as u32;
            for _ in 0..*steps {
                at = next[at as usize];
            }
        }
        let mut x = u64::from(at) | 1;
        let mut acc = 0u64;
        for round in 0..PROBE_ROUNDS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = match x % 7 {
                0 => acc.wrapping_add(round),
                1 => acc ^ x,
                2 => acc.rotate_left(3),
                3 => acc.wrapping_mul(3),
                4 => acc.wrapping_sub(x >> 3),
                5 => acc | (round & 0xff),
                _ => acc.wrapping_add(7),
            };
        }
        black_box(acc);
        start.elapsed().as_secs_f64() / PROBE_REFERENCE_S
    }
}

/// CPU seconds (user + system, every thread) the process has used so far.
#[cfg(target_os = "linux")]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: on 64-bit Linux `struct timespec` is two 64-bit integers, so
    // `ts` has the C layout the call writes; the pointer is valid and unique
    // for the duration of the call, and the clock id is the kernel's
    // constant for the calling process's CPU clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The commit the current directory is checked out at, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The median of `values` (the mean of the two middle values for an even
/// count); zero for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// `num / den`, or zero when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn cpu_clock_advances_and_rss_is_positive() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
