//! Workload inputs generated from the benchmark seed.
//!
//! The seed draws each program's **input** — the *ref* seed its
//! functional executor runs with, i.e. which path through the program
//! every branch outcome takes — for the four suite programs and the
//! phased long-horizon program, and it draws the `serve_mix` request
//! sequence. The programs themselves (generator parameters, generation
//! and training seeds, hence code footprint and optimized layout) stay
//! the registered ones: across freshly generated programs the host cost
//! of one operation moved by up to 30% (see `README.md`), far beyond any
//! bound a run-to-run gate can hold, while a new input of the same
//! program keeps the cost comparable and still exercises unseen paths.
//! [`DEFAULT_SEED`] reproduces the registered workloads exactly — the
//! ones `figure8_sampled` and the other figure binaries simulate — and
//! [`HELD_OUT_SEED`] is kept back for checking later claims on an input
//! nobody tuned against.

use sfetch_bench::{grid::GridCell, ABLATION_BENCHES};
use sfetch_workloads::phased::{self, PhasedParams};
use sfetch_workloads::suite::{self, BenchSpec};
use sfetch_workloads::Workload;

/// The seed that reproduces the registered workloads.
pub const DEFAULT_SEED: u64 = 1;

/// The held-out seed for checking claims on unseen inputs.
pub const HELD_OUT_SEED: u64 = 7;

/// SplitMix64 finalizer: a well-mixed 64-bit hash of `x`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A derived seed for stream `salt` of benchmark seed `seed`.
fn derived(seed: u64, salt: u64) -> u64 {
    1_000 + mix(seed.wrapping_mul(0x1000_0001) ^ salt) % 1_000_000_000
}

/// The suite recipes of the ablation subset under `seed`.
///
/// # Panics
///
/// Panics if the suite no longer registers an ablation benchmark.
pub fn suite_specs(seed: u64) -> Vec<BenchSpec> {
    ABLATION_BENCHES
        .iter()
        .map(|name| {
            let mut spec = suite::by_name(name).expect("ablation bench is registered");
            if seed != DEFAULT_SEED {
                spec.ref_seed = derived(seed, spec.ref_seed);
            }
            spec
        })
        .collect()
}

/// Builds the four suite workloads of `seed`, single-threaded.
pub fn suite_workloads(seed: u64) -> Vec<Workload> {
    suite_specs(seed).into_iter().map(suite::build).collect()
}

/// Generation and training seeds of the registered phased workload
/// (`sfetch_workloads::phased::long_workload`).
const PHASED_GEN_SEED: u64 = 2026;
const PHASED_TRAIN_SEED: u64 = 7001;

/// Builds the phased long-horizon workload of `seed`.
pub fn phased_workload(seed: u64) -> Workload {
    if seed == DEFAULT_SEED {
        return phased::long_workload();
    }
    let cfg = phased::generate(&PhasedParams::long(), PHASED_GEN_SEED);
    Workload::from_cfg(phased::LONG_NAME, cfg, PHASED_TRAIN_SEED, derived(seed, 9103))
}

/// What a `serve_mix` request is expected to cost the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// A fresh family: every cell is computed (fast-forward, warming,
    /// detail).
    Computed,
    /// A sibling family over the same windows: the ledger misses but
    /// every cell's warm state is banked, so only the detail reruns.
    Banked,
    /// A resubmission: every cell is resumed from the family ledger.
    Resumed,
}

/// One planned `serve_mix` request.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedRequest {
    /// Expected cost class.
    pub kind: ReqKind,
    /// Sampling interval `U` of the request's family.
    pub interval: u64,
    /// Sampled horizon (the family's total).
    pub total: u64,
    /// Requested cells.
    pub cells: Vec<GridCell>,
}

/// Shape of the `serve_mix` request sequence.
#[derive(Debug, Clone, Copy)]
pub struct ServePlan {
    /// Base sampling interval; family `b` uses `base_interval + b * 1000`
    /// so every fresh family samples fresh window positions.
    pub base_interval: u64,
    /// Windows per family.
    pub windows: u64,
    /// Cells per request.
    pub cells_per_request: usize,
    /// Ledger resubmissions per block (one computed and one banked
    /// request complete each block).
    pub resumed_per_block: usize,
    /// How many recent families a resubmission may target.
    pub recent: usize,
}

impl ServePlan {
    /// Requests per block.
    pub fn block_len(&self) -> usize {
        2 + self.resumed_per_block
    }

    /// The request sequence's block `b`, drawn from `seed`: one computed
    /// request on fresh family `b`, one banked request re-running a
    /// recent family's cells under a sibling horizon, and ledger
    /// resubmissions of recent families' cells — shuffled after the
    /// computed request, which opens the block. Every block has the same
    /// composition, so the computed share does not depend on how many
    /// blocks a run completes.
    pub fn block(&self, seed: u64, b: u64, all_cells: &[GridCell]) -> Vec<PlannedRequest> {
        let mut rng = Rng(mix(seed ^ mix(b.wrapping_add(0x5e_7e)) ^ 0x5e_4e_5e));
        let family = |f: u64| {
            let interval = self.base_interval + f * 1_000;
            (interval, interval * self.windows)
        };
        let (interval, total) = family(b);
        let mut out = vec![PlannedRequest {
            kind: ReqKind::Computed,
            interval,
            total,
            cells: family_cells(seed, b, self.cells_per_request, all_cells),
        }];
        let recent = |rng: &mut Rng| {
            let back = rng.below(self.recent.min(b as usize + 1) as u64);
            b - back
        };
        let mut rest = Vec::new();
        let f = recent(&mut rng);
        let (interval, total) = family(f);
        // Same interval and window count, a few more instructions of
        // horizon: a different family (fresh ledger) over the same
        // window positions (banked warm state). The offset is unique per
        // (family, block), so no later block resubmits it.
        rest.push(PlannedRequest {
            kind: ReqKind::Banked,
            interval,
            total: total + 1 + (b - f),
            cells: family_cells(seed, f, self.cells_per_request, all_cells),
        });
        for _ in 0..self.resumed_per_block {
            let f = recent(&mut rng);
            let (interval, total) = family(f);
            rest.push(PlannedRequest {
                kind: ReqKind::Resumed,
                interval,
                total,
                cells: family_cells(seed, f, self.cells_per_request, all_cells),
            });
        }
        for i in (1..rest.len()).rev() {
            rest.swap(i, rng.below(i as u64 + 1) as usize);
        }
        out.extend(rest);
        out
    }
}

/// The cells family `f` computes: a seed-drawn rectangular sub-grid (a
/// request names an engine list and a width list and asks for their
/// cross product), in grid order — `k / 2` seed-drawn engines at the two
/// widest widths, so every request holds the same mix of core sizes.
fn family_cells(seed: u64, f: u64, k: usize, all_cells: &[GridCell]) -> Vec<GridCell> {
    let mut rng = Rng(mix(seed.wrapping_mul(31) ^ mix(f ^ 0xce11)));
    let mut engines: Vec<_> = Vec::new();
    let mut widths: Vec<usize> = Vec::new();
    for c in all_cells {
        if !engines.contains(&c.engine) {
            engines.push(c.engine);
        }
        if !widths.contains(&c.width) {
            widths.push(c.width);
        }
    }
    widths.sort_unstable();
    let wide = &widths[widths.len().saturating_sub(2)..];
    let pick = draw(&mut rng, engines.len(), (k / wide.len()).clamp(1, engines.len()));
    all_cells
        .iter()
        .copied()
        .filter(|c| pick.iter().any(|&i| engines[i] == c.engine) && wide.contains(&c.width))
        .collect()
}

/// `k` distinct indices below `n`.
fn draw(rng: &mut Rng, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        idx.swap(i, rng.below(i as u64 + 1) as usize);
    }
    idx.truncate(k);
    idx
}

/// A tiny deterministic generator (SplitMix64 stream).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfetch_bench::grid::{cells, grid_engines, FIG8_WIDTHS};

    #[test]
    fn default_seed_reproduces_the_registered_suite() {
        for (spec, name) in suite_specs(DEFAULT_SEED).iter().zip(ABLATION_BENCHES) {
            let reg = suite::by_name(name).expect("registered");
            assert_eq!(
                (spec.gen_seed, spec.train_seed, spec.ref_seed),
                (reg.gen_seed, reg.train_seed, reg.ref_seed)
            );
        }
        let other = suite_specs(HELD_OUT_SEED);
        for (a, b) in other.iter().zip(suite_specs(DEFAULT_SEED)) {
            assert_eq!((a.gen_seed, a.train_seed), (b.gen_seed, b.train_seed), "same programs");
            assert_ne!(a.ref_seed, b.ref_seed, "new inputs");
        }
        assert_eq!(suite_specs(5)[0].ref_seed, suite_specs(5)[0].ref_seed);
    }

    #[test]
    fn phased_inputs_keep_the_registered_program() {
        let reg = phased::long_workload();
        let same = phased_workload(DEFAULT_SEED);
        assert_eq!(same.ref_seed(), reg.ref_seed());
        let other = phased_workload(HELD_OUT_SEED);
        assert_eq!(
            other.image(sfetch_workloads::LayoutChoice::Optimized).code_bytes(),
            reg.image(sfetch_workloads::LayoutChoice::Optimized).code_bytes()
        );
        assert_ne!(other.ref_seed(), reg.ref_seed());
    }

    #[test]
    fn serve_blocks_are_seeded_and_fixed_in_composition() {
        let all = cells(&grid_engines(), &FIG8_WIDTHS);
        let plan = ServePlan {
            base_interval: 500_000,
            windows: 4,
            cells_per_request: 4,
            resumed_per_block: 3,
            recent: 3,
        };
        for b in 0..6 {
            let blk = plan.block(3, b, &all);
            assert_eq!(blk, plan.block(3, b, &all), "same seed, same block");
            assert_eq!(blk.len(), plan.block_len());
            assert_eq!(blk[0].kind, ReqKind::Computed);
            assert_eq!(blk.iter().filter(|r| r.kind == ReqKind::Banked).count(), 1);
            for r in &blk {
                assert_eq!(r.cells.len(), 4);
                assert_eq!(r.total / r.interval, 4);
            }
        }
        assert_ne!(plan.block(3, 4, &all), plan.block(4, 4, &all), "seeds differ");
    }
}
