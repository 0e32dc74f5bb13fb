//! The host's current speed, from a fixed reference kernel.
//!
//! The benchmark shares a few cores of a host whose speed drifts by
//! tens of percent over seconds and minutes with what runs beside it.
//! The timed loops therefore run a fixed, std-only kernel between their
//! units of work, and the end-to-end host times are reported rescaled
//! to the speed at which that kernel takes [`REFERENCE_S`] (see
//! [`rescale`]). The kernel never changes with the repository's code,
//! so a change that makes the simulator faster lowers a rescaled time
//! by the same share it lowers the raw one.

use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::OnceLock;
use std::time::Instant;

/// About the kernel's median host time on the machine the bounds were
/// set on (2 vCPUs of a 2.0 GHz Xeon), so that rescaled times read
/// roughly as seconds there.
pub const REFERENCE_S: f64 = 0.045;

/// Table words: 8 MiB, beyond the private caches, so that the kernel
/// feels the shared-cache and memory contention that slows the
/// simulator, not only the core's.
const TABLE_WORDS: usize = 1 << 20;
const ALU_STEPS: u64 = 8_000_000;
const MEM_STEPS: u64 = 1_500_000;

/// One table for the whole process, so that it adds 8 MiB to peak
/// memory once. Its values publish nothing, only the memory traffic
/// matters, so relaxed atomics let workers sample at once without a
/// lock; on x86-64 they are plain loads and stores.
fn table() -> &'static [AtomicU64] {
    static TABLE: OnceLock<Vec<AtomicU64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        (0..TABLE_WORDS as u64)
            .map(|i| AtomicU64::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect()
    })
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One run of the reference kernel (about 45 ms on an idle core):
/// pseudo-random arithmetic, then loads, then loads and stores, at
/// pseudo-random places in an 8 MiB table. Returns its host seconds.
pub fn sample() -> f64 {
    let table = table();
    let mask = TABLE_WORDS as u64 - 1;
    let started = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..ALU_STEPS {
        acc = acc.wrapping_add(xorshift(&mut x).wrapping_mul(i | 1));
    }
    for _ in 0..MEM_STEPS {
        let slot = (xorshift(&mut x) & mask) as usize;
        acc = acc.rotate_left(7) ^ table[slot].load(Relaxed);
    }
    for i in 0..MEM_STEPS {
        let slot = &table[(xorshift(&mut x) & mask) as usize];
        acc ^= slot.load(Relaxed);
        slot.store(acc.wrapping_add(i), Relaxed);
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64()
}

/// `host_s` rescaled from a host on which the kernel took `kernel_s`
/// to the reference speed.
pub fn rescale(host_s: f64, kernel_s: f64) -> f64 {
    host_s * REFERENCE_S / kernel_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescaling_keeps_the_ratio_of_host_times() {
        assert_eq!(rescale(2.0, REFERENCE_S), 2.0);
        // A host running at half speed doubles both the kernel's and
        // the work's time; the rescaled time stays.
        assert_eq!(rescale(4.0, 2.0 * REFERENCE_S), 2.0);
        // At a fixed host speed, halving the work halves the result.
        let k = 0.03;
        assert_eq!(rescale(1.0, k) / rescale(2.0, k), 0.5);
    }

    #[test]
    fn kernel_runs() {
        let secs = sample();
        assert!(secs > 0.0 && secs < 5.0, "kernel took {secs} s");
    }
}
