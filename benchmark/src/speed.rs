//! The machine's speed, measured beside every end-to-end timing.
//!
//! Each virtual CPU of the box this benchmark was written on runs in one of
//! two speeds, about 1.28 apart (base clock or turbo, whichever the host
//! and its other tenants allow), independently of the other CPU, for
//! seconds to minutes at a time. Nothing inside the guest can hold or
//! choose the speed; left alone, identical back-to-back runs of a CPU-bound
//! op gave 51.5 ms or 64.4 ms, and ten runs' quartiles sat up to 18% apart.
//!
//! So every timed interval is bracketed by a fixed reference kernel — a
//! hash-table probe, a pointer chase through separately boxed rows and a
//! small allocation per step, the engine's instruction mix, all benchmark
//! code that no change to the crates can touch — run on the core that does
//! the interval's work. The interval's times are multiplied by
//! `NOMINAL_S / (kernel time)`: the end-to-end timings are reported *at the
//! reference speed*, the speed at which the kernel takes [`NOMINAL_S`].
//! With it the same ten runs' quartiles sit 3–5% apart. The kernel's time is
//! printed with every run, so a raw time is one multiplication away.

use crate::pin;
use std::time::Instant;

/// The reference kernel's time at the reference speed: its time on the
/// box this was written on while that box runs at its base clock.
pub const NOMINAL_S: f64 = 1.45e-3;

const TABLE_SLOTS: usize = 1 << 12;
const ROWS: usize = 1 << 11;
const STEPS: usize = 40_000;
/// Passes per reading; the first ones also bring the kernel's data back into
/// the cache the workload pushed it out of.
const PASSES: usize = 6;

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// The reference kernel's data: half a MiB of open-addressed table and 16k
/// rows allocated one by one.
pub struct Reference {
    table: Vec<(u64, u64)>,
    rows: Vec<Box<[u32]>>,
}

impl Reference {
    pub fn new() -> Reference {
        let mut table = vec![(0u64, 0u64); TABLE_SLOTS];
        let mut x = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..TABLE_SLOTS / 2 {
            x = lcg(x);
            let mut slot = (x >> 20) as usize % TABLE_SLOTS;
            while table[slot].0 != 0 {
                slot = (slot + 1) % TABLE_SLOTS;
            }
            table[slot] = (x | 1, x);
        }
        let rows = (0..ROWS as u32)
            .map(|i| vec![i, i.wrapping_mul(2654435761), i ^ 0x5555].into_boxed_slice())
            .collect();
        Reference { table, rows }
    }

    /// Seconds one pass of the kernel takes on the calling thread now.
    fn pass(&self) -> f64 {
        let start = Instant::now();
        let mut acc = 0u64;
        let mut x = 12345u64;
        for _ in 0..STEPS {
            x = lcg(x);
            // Almost every key is absent: walk its probe run to the end.
            let mut slot = (x >> 20) as usize % TABLE_SLOTS;
            while self.table[slot].0 != 0 && self.table[slot].0 != (x | 1) {
                slot = (slot + 1) % TABLE_SLOTS;
            }
            acc ^= self.table[slot].1;
            let row = &self.rows[(x >> 40) as usize % ROWS];
            acc = acc.wrapping_add(u64::from(row[0] ^ row[2]));
            let scratch: Box<[u64]> = vec![acc, x].into_boxed_slice();
            acc ^= std::hint::black_box(scratch)[1];
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64()
    }

    /// Best of three passes on `core` (a scoped thread pins itself there),
    /// or on the calling thread for `None`. The best, because a pass can
    /// only be slowed by interference, never sped up.
    pub fn seconds_on(&self, core: Option<usize>) -> f64 {
        let best_of_three = || {
            (0..PASSES)
                .map(|_| self.pass())
                .fold(f64::INFINITY, f64::min)
        };
        match core {
            None => best_of_three(),
            Some(core) => std::thread::scope(|s| {
                s.spawn(|| {
                    pin::pin_current_thread(core);
                    best_of_three()
                })
                .join()
                .expect("the reference kernel does not panic")
            }),
        }
    }
}

/// The factor that brings times measured between two kernel readings to
/// the reference speed.
pub fn factor_between(before_s: f64, after_s: f64) -> f64 {
    NOMINAL_S / ((before_s + after_s) / 2.0)
}

/// Kernel readings on one core; consecutive intervals share an endpoint.
pub struct Speed<'a> {
    reference: &'a Reference,
    core: Option<usize>,
    /// Every reading so far, oldest first; never empty.
    pub readings: Vec<f64>,
}

impl<'a> Speed<'a> {
    /// Takes the first reading.
    pub fn new(reference: &'a Reference, core: Option<usize>) -> Speed<'a> {
        Speed {
            reference,
            core,
            readings: vec![reference.seconds_on(core)],
        }
    }

    /// Takes a reading and returns the factor for the interval since the
    /// previous one.
    pub fn interval_factor(&mut self) -> f64 {
        let before = *self.readings.last().expect("never empty");
        let after = self.reference.seconds_on(self.core);
        self.readings.push(after);
        factor_between(before, after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_takes_time_and_the_factor_inverts_it() {
        let reference = Reference::new();
        let seconds = reference.seconds_on(None);
        assert!(seconds > 0.0);
        // A machine running the kernel at exactly the nominal time changes
        // nothing; one twice as slow has its times halved.
        assert_eq!(factor_between(NOMINAL_S, NOMINAL_S), 1.0);
        assert_eq!(factor_between(2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 0.5);
        let mut speed = Speed::new(&reference, None);
        let factor = speed.interval_factor();
        assert_eq!(speed.readings.len(), 2);
        assert_eq!(factor, factor_between(speed.readings[0], speed.readings[1]));
    }
}
