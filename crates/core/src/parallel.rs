//! One fan-out for every parallel loop in the workspace.
//!
//! [`fan_out`] cuts a piece of work — a slice, a mutable slice or a range
//! of indices ([`Split`]) — into at most `workers` contiguous parts of
//! near-equal size, runs every part through the same closure and returns
//! the results in part order. Part 0 runs on the calling thread and each
//! other part on a scoped thread of its own (`std::thread::scope`), so the
//! closure may borrow from the caller and every thread has joined when
//! `fan_out` returns. A caller that merges the results in the order they
//! come back gets the same answer at any worker count; the exhaustive
//! verifier, the sweep drivers, the routing driver and the sharded
//! engine's per-cycle phases all rely on that.
//!
//! With one part, `fan_out` is a plain call of the closure: no scope and
//! no thread. An empty `std::thread::scope` allocates on every call, and
//! the sharded engine fans out twice a cycle, so that call must stay
//! plain: when the closure returns `()`, a one-part `fan_out` allocates
//! nothing at all (the counting-allocator tests pin this).
//!
//! A panic in any part reaches the caller with that part's own payload,
//! once every other part has finished; when several parts panic, the
//! first in part order wins.

use std::ops::Range;
use std::panic::resume_unwind;

/// Work that [`fan_out`] can cut into contiguous parts.
pub trait Split: Sized + Send {
    /// The number of items in the work.
    fn size(&self) -> usize;
    /// Cuts the work into its first `mid` items and the rest.
    fn split_at(self, mid: usize) -> (Self, Self);
}

impl<T: Sync> Split for &[T] {
    fn size(&self) -> usize {
        self.len()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        <[T]>::split_at(self, mid)
    }
}

impl<T: Send> Split for &mut [T] {
    fn size(&self) -> usize {
        self.len()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }
}

impl Split for Range<usize> {
    fn size(&self) -> usize {
        self.len()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let cut = self.start + mid;
        (self.start..cut, cut..self.end)
    }
}

/// The number of parts [`fan_out`] cuts `len` items into at `workers`
/// workers: one per worker, no more than there are items, and at least one
/// (0 workers count as 1).
fn part_count(len: usize, workers: usize) -> usize {
    workers.min(len).max(1)
}

/// Cuts `work` into `parts` contiguous parts (one per worker, no more than
/// there are items, and at least one; 0 workers count as 1), the first
/// `len % parts` of them one item longer than the rest, runs `run` on each
/// (part 0 on the calling thread, every other part on a scoped thread) and
/// returns the results in part order. With one part this is `vec![run(work)]`.
/// A part's panic resumes on the calling thread with its own payload.
pub fn fan_out<W, R, F>(work: W, workers: usize, run: F) -> Vec<R>
where
    W: Split,
    R: Send,
    F: Fn(W) -> R + Sync,
{
    let len = work.size();
    let parts = part_count(len, workers);
    if parts == 1 {
        return vec![run(work)];
    }
    let part_len = |part: usize| len / parts + usize::from(part < len % parts);
    let run = &run;
    std::thread::scope(|scope| {
        let (first, mut rest) = work.split_at(part_len(0));
        let mut handles = Vec::with_capacity(parts - 1);
        for part in 1..parts {
            let (this, tail) = rest.split_at(part_len(part));
            rest = tail;
            handles.push(scope.spawn(move || run(this)));
        }
        let mut results = Vec::with_capacity(parts);
        results.push(run(first));
        for handle in handles {
            results.push(handle.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const LENGTHS: [usize; 5] = [0, 1, 7, 64, 1_000];

    /// The message a caught panic carries.
    fn message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(text) => *text,
            Err(payload) => payload
                .downcast::<&str>()
                .map_or_else(|_| String::from("<not a string>"), |text| text.to_string()),
        }
    }

    #[test]
    fn parts_come_back_in_order_and_cover_every_item_once() {
        for len in LENGTHS {
            for workers in 0..=8 {
                let parts = fan_out(0..len, workers, |range| range);
                assert_eq!(parts.len(), part_count(len, workers), "{len} x {workers}");
                assert_eq!(parts.len(), workers.clamp(1, len.max(1)));
                // Contiguous, in order, and together exactly 0..len.
                let mut next = 0;
                for part in &parts {
                    assert_eq!(part.start, next, "{len} x {workers}: {parts:?}");
                    next = part.end;
                }
                assert_eq!(next, len);
                // Near-equal: longer parts first, by one item at most.
                let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
                assert!(sizes.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1));
            }
        }
    }

    #[test]
    fn slices_and_ranges_are_cut_alike() {
        for len in LENGTHS {
            let items: Vec<usize> = (0..len).collect();
            for workers in 1..=8 {
                let from_range = fan_out(0..len, workers, |range| range.collect::<Vec<_>>());
                let from_slice = fan_out(&items[..], workers, <[usize]>::to_vec);
                assert_eq!(from_slice, from_range, "{len} x {workers}");
                assert_eq!(from_slice.concat(), items);
            }
        }
    }

    #[test]
    fn every_item_of_a_mutable_slice_is_visited_exactly_once() {
        for len in LENGTHS {
            for workers in 1..=8 {
                let mut visits = vec![0u32; len];
                let parts = fan_out(&mut visits[..], workers, |part| {
                    part.iter_mut().for_each(|v| *v += 1);
                    part.len()
                });
                assert!(visits.iter().all(|&v| v == 1), "{len} x {workers}");
                assert_eq!(parts.iter().sum::<usize>(), len);
            }
        }
    }

    #[test]
    fn a_panic_in_part_zero_reaches_the_caller_with_its_message() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            fan_out(0..8, 4, |range| {
                if range.start == 0 {
                    panic!("part zero failed at {}", range.start);
                }
                range.len()
            })
        }));
        let payload = caught.expect_err("the panic must reach the caller");
        assert_eq!(message(payload), "part zero failed at 0");
    }

    #[test]
    fn a_panic_in_a_spawned_part_reaches_the_caller_with_its_message() {
        for workers in [2, 3, 8] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                fan_out(0..8, workers, |range| {
                    if range.end == 8 {
                        panic!("last part failed at {}", range.start);
                    }
                    range.len()
                })
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            let start = 8 - 8 / workers;
            assert_eq!(message(payload), format!("last part failed at {start}"));
        }
    }

    #[test]
    fn the_first_panicking_part_wins() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            fan_out(0..4, 4, |range| {
                if range.start >= 1 {
                    panic!("part {} failed", range.start);
                }
            })
        }));
        let payload = caught.expect_err("the panic must reach the caller");
        assert_eq!(message(payload), "part 1 failed");
    }
}
