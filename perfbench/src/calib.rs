//! Host-speed reference. On a shared virtual machine the host's speed
//! drifts by up to half again over tens of seconds (other tenants, not
//! this program), which swamps any change a benchmark run is meant to
//! show. So a fixed kernel owned by the benchmark, calling nothing in
//! the program under test, is timed between requests, and the gated
//! end-to-end times are reported at a fixed reference speed:
//! `measured × (NOMINAL_NS / kernel_ns)^EXPONENT`. Raw wall times are
//! printed beside them.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time at the reference speed. Any constant works, since
/// only ratios between runs matter; this one is close to the kernel's
/// time on a 2.1 GHz Xeon vCPU in its fast state.
const NOMINAL_NS: f64 = 300_000.0;
/// How strongly the workloads follow the kernel. A shared host's slow
/// states are contention for the caches, and they slow the kernel more
/// than the workloads, part of whose time is pure computation. On
/// a 2-vCPU KVM guest, log request time against log kernel time fitted
/// a slope of 0.74 for 600 table builds of one 2048-switch fabric
/// (370 → 700 ms while the kernel went 190 → 440 µs), 0.74 for `sweep`
/// passes and 0.59 for `corpus` passes. Rescaled by the full ratio,
/// the spread of 30-second medians of the table builds fell from 0.31
/// to 0.12 of the median; by the ratio to this power, to 0.03.
const EXPONENT: f64 = 0.75;
const STEPS: u64 = 25_000;
/// 2 MiB: larger than L2, so the kernel feels the cache contention the
/// simulator feels, not only the clock.
const TABLE_WORDS: usize = 1 << 18;

pub struct HostSpeed {
    table: Vec<u64>,
    heap: BinaryHeap<u64>,
    samples: Vec<f64>,
}

impl HostSpeed {
    /// A reference that rescales when `enabled`, and otherwise samples
    /// nothing and leaves times raw (factor 1).
    pub fn new(enabled: bool) -> Self {
        HostSpeed {
            table: (0..if enabled { TABLE_WORDS as u64 } else { 0 }).collect(),
            heap: BinaryHeap::with_capacity(1024),
            samples: Vec::new(),
        }
    }

    fn kernel(&mut self) {
        let mask = self.table.len() - 1;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        self.heap.clear();
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) & mask;
            self.table[j] = self.table[j].wrapping_mul(0xff51_afd7_ed55_8ccd) ^ i;
            if x & 7 == 0 {
                self.heap.push(self.table[j] >> 20);
                if self.heap.len() > 512 {
                    self.heap.pop();
                }
            }
        }
        black_box(&self.heap);
        black_box(&self.table);
    }

    /// Times the kernel once. An untimed run first brings its table back
    /// into the caches, so the sample does not depend on how much memory
    /// the program touched before it.
    pub fn sample(&mut self) {
        if self.table.is_empty() {
            return;
        }
        self.kernel();
        let t = Instant::now();
        self.kernel();
        self.samples.push(t.elapsed().as_nanos() as f64);
    }

    /// The factor that rescales times measured since the last call to
    /// the reference speed: `NOMINAL_NS` over the median kernel sample,
    /// to the power `EXPONENT`.
    pub fn take_factor(&mut self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        self.samples.sort_by(f64::total_cmp);
        let median = self.samples[self.samples.len() / 2];
        self.samples.clear();
        (NOMINAL_NS / median).powf(EXPONENT)
    }
}
