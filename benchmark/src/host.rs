//! The host-speed reference.
//!
//! A vCPU of a shared host runs at a speed that changes as other tenants'
//! work comes and goes. On the 2-vCPU host the bounds were set on, one
//! repetition takes from 1x to 2x its calm time, in phases of seconds to
//! minutes, so a phase can cover every repetition of a run or a whole set of
//! runs. No statistic over a run's own repetitions removes such a phase.
//!
//! So every repetition is bracketed by a fixed reference kernel, timed on the
//! same thread right before and right after it, and the repetition's times
//! are read at the reference's nominal speed: `t * NOMINAL_S / reference`.
//! The kernel is the benchmark's own code, so no change to the library
//! moves it. It does random read-modify-writes over a 1 MiB and a 4 MiB
//! table, the access pattern of the engines' packet and gate arrays. Of the
//! kernels tried (dependent and independent ALU chains, pointer chasing,
//! streaming, a small breadth-first search, a kernel on the other vCPU),
//! this one tracked the workloads best. It cut the spread of `run_s` over
//! ten seeds 2-3x on the three engine workloads, and 1-3x on
//! `paper_tolerance`, whose slow phases it follows least.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one [`Reference::time`] pass takes on the host the bounds were
/// set on when it was calm. It fixes only the scale of the corrected times.
pub const NOMINAL_S: f64 = 0.0115;

/// Read-modify-writes per table in one pass.
const OPS_PER_TABLE: u32 = 2_000_000;
/// The two tables, as index masks into one allocation of `u32`s: 1 MiB fits
/// the 2 MiB private L2 of the host, 4 MiB spills to the shared L3.
const MASKS: [usize; 2] = [(1 << 18) - 1, (1 << 20) - 1];

pub struct Reference {
    table: Vec<u32>,
    state: u64,
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            table: vec![0; MASKS[1] + 1],
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Runs one pass of the kernel and returns its length in seconds.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = self.state;
        for mask in MASKS {
            for _ in 0..OPS_PER_TABLE {
                // xorshift64: a fixed pseudo-random index sequence.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let cell = &mut self.table[x as usize & mask];
                *cell = cell.wrapping_add(1);
            }
        }
        self.state = black_box(x);
        black_box(&self.table);
        start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_does_the_same_work_every_time() {
        let mut r = Reference::new();
        assert!(r.time() > 0.0);
        let after_one: u64 = r.table.iter().map(|&c| u64::from(c)).sum();
        assert_eq!(after_one, 2 * u64::from(OPS_PER_TABLE));
        r.time();
        let after_two: u64 = r.table.iter().map(|&c| u64::from(c)).sum();
        assert_eq!(after_two, 4 * u64::from(OPS_PER_TABLE));
    }
}
