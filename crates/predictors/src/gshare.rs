//! Gshare direction predictor (trace-cache secondary path).
//!
//! Table 2 gives the trace cache a backup BTB but leaves the secondary-path
//! *direction* predictor unnamed; consistent with the stated ≈45KB predictor
//! budget we use a 16K-entry gshare (~4KB), a substitution for the
//! unnamed predictor.

use sfetch_isa::wire::{WireReader, WireWriter};
use sfetch_isa::Addr;

use crate::counters::Counter2;

/// A classic gshare predictor: PC ⊕ global-history indexed 2-bit counters.
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<Counter2>,
    hist_bits: u32,
}

impl Gshare {
    /// Creates a gshare with `entries` counters and `hist_bits` of history.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize, hist_bits: u32) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        Gshare { table: vec![Counter2::WEAK_NT; entries], hist_bits }
    }

    #[inline]
    fn index(&self, pc: Addr, hist: u64) -> usize {
        let mask = self.table.len() as u64 - 1;
        let h = hist & ((1u64 << self.hist_bits.min(63)) - 1);
        (((pc.get() >> 2) ^ h) & mask) as usize
    }

    /// Predicts the direction of the conditional at `pc` under `hist`.
    pub fn predict(&self, pc: Addr, hist: u64) -> bool {
        self.table[self.index(pc, hist)].taken()
    }

    /// Commit-time training with the resolved outcome and the history the
    /// prediction was made under.
    pub fn update(&mut self, pc: Addr, hist: u64, taken: bool) {
        let i = self.index(pc, hist);
        self.table[i].train(taken);
    }

    /// Storage in bits.
    pub fn storage_bits(&self) -> u64 {
        self.table.len() as u64 * 2
    }

    /// Serializes the counter table (warm-state banking).
    pub fn save_wire(&self, w: &mut WireWriter) {
        let Self { table, hist_bits } = self;
        w.u32(*hist_bits);
        Counter2::save_slice(w, table);
    }

    /// Deserializes into this predictor; geometry must match.
    pub fn load_wire(&mut self, r: &mut WireReader<'_>) -> Result<(), String> {
        let hist_bits = r.u32()?;
        if hist_bits != self.hist_bits {
            return Err(format!(
                "gshare history width {hist_bits} does not match {}",
                self.hist_bits
            ));
        }
        Counter2::load_slice(r, &mut self.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_bias() {
        let mut g = Gshare::new(1024, 8);
        let pc = Addr::new(0x400100);
        for _ in 0..4 {
            g.update(pc, 0, true);
        }
        assert!(g.predict(pc, 0));
        for _ in 0..4 {
            g.update(pc, 0, false);
        }
        assert!(!g.predict(pc, 0));
    }

    #[test]
    fn history_separates_contexts() {
        let mut g = Gshare::new(1024, 8);
        let pc = Addr::new(0x400100);
        // Outcome correlates with history: taken iff hist lsb set.
        for _ in 0..8 {
            g.update(pc, 0b1, true);
            g.update(pc, 0b0, false);
        }
        assert!(g.predict(pc, 0b1));
        assert!(!g.predict(pc, 0b0));
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut g = Gshare::new(4096, 10);
        let pc = Addr::new(0x40_0230);
        let mut hist = 0u64;
        let mut correct = 0;
        let mut total = 0;
        for i in 0..400u64 {
            let outcome = i % 2 == 0;
            let pred = g.predict(pc, hist);
            if i >= 100 {
                total += 1;
                correct += u64::from(pred == outcome);
            }
            g.update(pc, hist, outcome);
            hist = (hist << 1) | u64::from(outcome);
        }
        assert!(correct as f64 / total as f64 > 0.95, "gshare must learn period-2");
    }

    #[test]
    fn storage_counts_two_bits_per_entry() {
        assert_eq!(Gshare::new(16_384, 12).storage_bits(), 32_768);
    }
}
