//! Host-speed calibration: a fixed CPU kernel that shares no code with
//! the program under test, timed at the start and the end of every round.
//!
//! The shared virtual machine this benchmark was built on changes speed
//! by up to 1.7× over seconds to minutes with no hypervisor steal to show
//! for it: set-up, fit, simulation and round-trip times all stretch
//! together, so ten runs of the same code straddle two speeds. End-to-end
//! times are therefore reported at a reference speed: each is multiplied
//! by [`REFERENCE_NS`] over the interquartile mean of the run's kernel
//! times (rates divided). The kernel runs the same on every commit, so a
//! change to the program moves the reported figures in full; only the
//! host's speed cancels.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Keys sorted, then inserted into and looked up in a `HashMap`, per
/// pass: branchy integer work with allocation and hashing, the mix the
/// program's own set-up and request paths run. Of four kernels tried
/// (a dependent memory walk, a sort, a hash map and floating-point
/// arithmetic), sort and hash map together tracked the median set-up
/// time of eight runs best: correlation 0.95, and the spread of set-up
/// over kernel time was 0.045 where set-up alone spread 0.15.
const KEYS: usize = 1 << 15;
/// Passes per calibration point; the fastest counts, so an interrupt
/// inside one pass does not.
const PASSES: usize = 3;

/// One kernel pass's time, in nanoseconds, at the reference speed: the
/// fast phase of the 2-vCPU "Intel(R) Xeon(R) Processor" machine the
/// benchmark was built on.
pub const REFERENCE_NS: f64 = 1.6e6;

/// Time the kernel: the fastest of [`PASSES`] passes, in nanoseconds.
pub fn kernel_ns() -> f64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let keys: Vec<u64> = (0..KEYS)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 20
        })
        .collect();
    (0..PASSES)
        .map(|_| {
            let mut sorted = keys.clone();
            let started = Instant::now();
            sorted.sort_unstable();
            let mut map = HashMap::new();
            for (i, &k) in keys.iter().enumerate().take(KEYS / 2) {
                map.insert(k, i);
            }
            let hits: usize = keys.iter().filter_map(|k| map.get(k)).sum();
            black_box((&sorted, hits));
            started.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}
