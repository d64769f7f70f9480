//! Host speed, measured beside the program.
//!
//! On a shared virtual machine the host's speed drifts by tens of
//! percent over minutes (see `README.md`), and every wall-clock time
//! drifts with it. A [`HostClock`] runs a fixed calibration kernel right
//! before and after each timed piece of work. The kernel is a toy
//! front end: it fetches straight-line code with a jump per 64-byte
//! block, predicts each instruction with 2-bit counters indexed by PC
//! and global history, trains them, and on a misprediction rewinds a
//! ring buffer — small tables, mostly predictable branches and a
//! dependent chain through memory, the kind of work the simulator does.
//! The kernel is the benchmark's own code, so no change to the simulator
//! moves it. A piece's wall time divided by the kernel's time around it
//! follows the program, while a host that slows both cancels out;
//! multiplied by [`REF_TICK_S`] it reads as seconds on a host where one
//! kernel run takes exactly that long (*reference seconds*).

use std::hint::black_box;
use std::time::Instant;

/// Seconds one kernel run takes on the reference host (about what it
/// takes on a 2.1 GHz Xeon virtual machine).
pub const REF_TICK_S: f64 = 0.008;

/// 2-bit counters of the kernel's predictor (32 KiB of `u64`).
const COUNTERS: usize = 4096;
/// Entries of the kernel's ring buffer.
const RING: usize = 256;
/// Instructions of one kernel run.
const STEPS: u64 = 1_500_000;
/// A kernel run that ended at most this long before a piece starts
/// serves as the piece's "before" run.
const REUSE_S: f64 = 0.01;

/// The calibration kernel and the times of its runs.
pub struct HostClock {
    counters: Vec<u64>,
    ring: Vec<u64>,
    last: Option<(Instant, f64)>,
    ticks: Vec<f64>,
}

impl Default for HostClock {
    fn default() -> Self {
        HostClock {
            counters: vec![1; COUNTERS],
            ring: vec![0; RING],
            last: None,
            ticks: Vec::new(),
        }
    }
}

/// A piece of work's wall time `dt` in reference seconds, given the
/// kernel's times `before` and `after` it.
pub fn to_ref(dt: f64, before: f64, after: f64) -> f64 {
    dt / ((before + after) / 2.0) * REF_TICK_S
}

impl HostClock {
    /// Runs the kernel once and returns its seconds.
    pub fn tick(&mut self) -> f64 {
        let t0 = Instant::now();
        let (ctrs, ring) = (&mut self.counters, &mut self.ring);
        let (mut pc, mut hist, mut head, mut acc) = (0u64, 0u64, 0usize, 0u64);
        for i in 0..STEPS {
            // Straight-line fetch, with a jump at the end of every block.
            pc = pc.wrapping_add(4);
            if pc & 0x3f == 0x3c {
                pc = pc.wrapping_add((ctrs[(pc >> 6) as usize % COUNTERS] & 0xff) << 2);
            }
            // Predict, then train on the outcome (7 in 8 taken).
            let k = ((pc >> 2) ^ hist) as usize % COUNTERS;
            let ctr = ctrs[k];
            let predicted = ctr >= 2;
            let taken = (pc >> 4) & 7 != 0;
            hist = ((hist << 1) | u64::from(predicted)) & 0xfff;
            ctrs[k] = if taken { (ctr + 1).min(3) } else { ctr.saturating_sub(1) };
            // A misprediction squashes: the ring's head jumps.
            if predicted != taken {
                head = (head + 200) % RING;
                acc = acc.wrapping_add(ring[head]);
            }
            ring[head] = pc ^ i;
            head = (head + 1) % RING;
            acc ^= ring[(head + RING / 2) % RING].rotate_left(3);
        }
        black_box(acc);
        let end = Instant::now();
        let dt = (end - t0).as_secs_f64();
        self.last = Some((end, dt));
        self.ticks.push(dt);
        dt
    }

    /// Runs `f` between two kernel runs (the first one reused when it
    /// has only just ended) and returns its result, its wall seconds and
    /// its reference seconds.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let before = match self.last {
            Some((end, dt)) if end.elapsed().as_secs_f64() <= REUSE_S => dt,
            _ => self.tick(),
        };
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed().as_secs_f64();
        let after = self.tick();
        (r, dt, to_ref(dt, before, after))
    }

    /// Every kernel time so far.
    pub fn ticks(&self) -> &[f64] {
        &self.ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_that_slows_everything_cancels_out() {
        let fast = to_ref(1.0, 0.004, 0.004);
        let slow = to_ref(1.5, 0.006, 0.006);
        assert!((fast - slow).abs() < 1e-12);
        assert!((fast - 2.0).abs() < 1e-12, "1 s at half the reference tick is 2 reference s");
    }

    #[test]
    fn a_slower_program_reads_slower() {
        assert!(to_ref(1.2, 0.008, 0.008) > to_ref(1.0, 0.008, 0.008));
    }

    #[test]
    fn timed_pieces_are_framed_by_kernel_runs() {
        let mut c = HostClock::default();
        let (v, dt, r) = c.time(|| 7);
        assert_eq!(v, 7);
        assert!(dt >= 0.0 && r >= 0.0);
        assert_eq!(c.ticks().len(), 2);
        // The closing run just ended, so the next piece reuses it.
        c.time(|| ());
        assert_eq!(c.ticks().len(), 3);
    }
}
