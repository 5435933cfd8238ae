//! Host-speed rescaling of wall-clock figures.
//!
//! When other work shares the host's cores, its speed can drift by tens of
//! percent over a few seconds, and every wall-clock figure drifts with it.
//! To compare runs made at different moments, a fixed reference kernel,
//! which runs none of the repository's code, is timed between the calls a
//! pass measures, about every [`SAMPLE_EVERY_S`] of measured time. Every
//! wall-clock metric is then reported rescaled to a host on which the kernel
//! takes [`REF_NOMINAL_S`]: a measured time `t` is reported as
//! `t * REF_NOMINAL_S / mean kernel time`.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Kernel time the rescaled figures refer to.
pub const REF_NOMINAL_S: f64 = 250e-6;
/// Measured time between two kernel samples.
const SAMPLE_EVERY_S: f64 = 0.02;

/// Kernel samples averaged for the speed around a call.
const RECENT: usize = 8;

/// Kernel samples taken during one pass.
#[derive(Default)]
pub struct HostSpeed {
    total_s: f64,
    samples: usize,
    since_s: f64,
    recent: VecDeque<f64>,
}

impl HostSpeed {
    /// Notes `measured_s` more measured time; samples the kernel once that
    /// has reached [`SAMPLE_EVERY_S`] since the last sample.
    pub fn after(&mut self, measured_s: f64) {
        self.since_s += measured_s;
        if self.since_s >= SAMPLE_EVERY_S {
            self.sample();
        }
    }

    /// Times the kernel once.
    pub fn sample(&mut self) {
        let t = kernel_secs();
        self.total_s += t;
        self.samples += 1;
        self.since_s = 0.0;
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back(t);
    }

    /// The factor that rescales a time measured now: from the mean of the
    /// last few samples, so it follows the host's speed through a pass.
    pub fn local_scale(&mut self) -> f64 {
        if self.recent.is_empty() {
            self.sample();
        }
        REF_NOMINAL_S * self.recent.len() as f64 / self.recent.iter().sum::<f64>()
    }

    /// Mean kernel time (samples once if none was taken yet).
    pub fn mean_s(&mut self) -> f64 {
        if self.samples == 0 {
            self.sample();
        }
        self.total_s / self.samples as f64
    }

    /// The factor that rescales a measured time of this pass.
    pub fn scale(&mut self) -> f64 {
        REF_NOMINAL_S / self.mean_s()
    }
}

/// Sorts 4096 pseudo-random words and counts them into a hash map: the
/// sorting, hashing and allocation the simulator itself spends its time on.
fn kernel_secs() -> f64 {
    let start = Instant::now();
    let mut x = 0x1234_5678_9abc_def0u64;
    let mut words: Vec<u64> = (0..4096)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 27)
        })
        .collect();
    words.sort_unstable();
    let mut counts: HashMap<u64, u32> = HashMap::with_capacity(1024);
    for w in &words {
        *counts.entry(w >> 52).or_insert(0) += 1;
    }
    black_box((&words, &counts));
    start.elapsed().as_secs_f64()
}
