//! Host-speed calibration.
//!
//! Host time on a shared machine drifts. On the 2-vCPU host this benchmark
//! was built on, one pass over the same queries took from 2.0 to 3.2 s
//! within two minutes, in episodes of 10–30 s, and every statistic of a
//! run (mean, median, best of repeats) moved with it. So the benchmark
//! interleaves a fixed calibration loop with the work it times and reports
//! host times at a nominal machine speed: times measured next to the loop
//! are multiplied by [`NOMINAL_MS`] ÷ the loop's median time there.
//!
//! The loop resembles the program's hot paths: merges of sorted id lists
//! and binary-search membership probes over 1.6 MB of sorted ids. It is the
//! benchmark's own code, so no change to the program moves it.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;
use crate::workload::mix;

/// The loop's duration, in ms, at the nominal machine speed that reported
/// host times are scaled to (about its time on the host named above).
pub const NOMINAL_MS: f64 = 4.0;

const LIST_LEN: usize = 200_000;
const ID_RANGE: u64 = 4_000_000;
const MERGES: usize = 40;
const MERGE_LEN: usize = 4_000;
const PROBES: usize = 60_000;

/// The calibration loop and its input lists.
pub struct Calibration {
    a: Vec<u32>,
    b: Vec<u32>,
    seed: u64,
}

impl Default for Calibration {
    fn default() -> Self {
        let sorted = |mut x: u64| {
            let mut v: Vec<u32> = (0..LIST_LEN)
                .map(|_| {
                    x = mix(x);
                    (x % ID_RANGE) as u32
                })
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        Calibration {
            a: sorted(1),
            b: sorted(2),
            seed: 0,
        }
    }
}

impl Calibration {
    /// Run the loop once on each of `threads` threads at the same time;
    /// returns the slowest one's host ms. Work spread over several threads
    /// waits for the slowest, so this measures what the machine offers it.
    pub fn run_ms(&mut self, threads: usize) -> f64 {
        self.seed += 1;
        let (this, seed) = (&*self, self.seed);
        std::thread::scope(|s| {
            let others: Vec<_> = (1..threads as u64)
                .map(|i| s.spawn(move || this.timed_ms(seed ^ (i << 32))))
                .collect();
            let mine = this.timed_ms(seed);
            others
                .into_iter()
                .map(|h| h.join().expect("calibration loop does not panic"))
                .fold(mine, f64::max)
        })
    }

    fn timed_ms(&self, seed: u64) -> f64 {
        let t = Instant::now();
        black_box(self.work(black_box(seed)));
        t.elapsed().as_secs_f64() * 1e3
    }

    fn work(&self, mut x: u64) -> u64 {
        let (a, b) = (&self.a, &self.b);
        let mut hits = 0;
        for _ in 0..MERGES {
            x = mix(x);
            let mut i = (x as usize) % (a.len() - MERGE_LEN);
            let mut j = ((x >> 32) as usize) % (b.len() - MERGE_LEN);
            let (i_end, j_end) = (i + MERGE_LEN, j + MERGE_LEN);
            while i < i_end && j < j_end {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        hits += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        for _ in 0..PROBES {
            x = mix(x);
            hits += u64::from(a.binary_search(&((x % ID_RANGE) as u32)).is_ok());
        }
        hits
    }
}

/// The factor that scales host times measured next to `loop_ms` (loop
/// durations) to the nominal machine speed.
pub fn speed_factor(loop_ms: &[f64]) -> f64 {
    NOMINAL_MS / median(loop_ms)
}
