//! Cross-crate correctness of the checkpoint store (`sfetch_sample::store`):
//! suspend/resume through *disk* is bit-identical to running straight
//! through, warm-store replays equal cold-store runs byte-for-byte, and
//! damaged store entries are rejected and recomputed — never trusted.

use proptest::prelude::*;

use sfetch_cfg::{layout, CodeImage};
use sfetch_core::ProcessorConfig;
use sfetch_fetch::EngineKind;
use sfetch_sample::{
    BatchCell, BatchSampler, CheckpointStore, SampleConfig, SamplePoint, Sampler, StoreKey,
    StoreMiss,
};
use sfetch_workloads::phased::{self, PhasedParams};

fn phased_image(seed: u64) -> CodeImage {
    let cfg = phased::generate(&PhasedParams::small(), seed);
    let lay = layout::natural(&cfg);
    CodeImage::build(&cfg, &lay)
}

fn quick_schedule() -> SampleConfig {
    SampleConfig {
        interval: 50_000,
        warm_func: 8_000,
        warm_mem: 8_000,
        warm_detail: 1_000,
        measure: 3_000,
        ..Default::default()
    }
}

/// One cell's windows `0..windows` through a one-cell batch.
fn run_cell(
    s: &mut BatchSampler<'_>,
    kind: EngineKind,
    pcfg: ProcessorConfig,
    windows: u64,
) -> Vec<SamplePoint> {
    s.run_range_points(&[BatchCell { kind, pcfg }], 0..windows, 1).remove(0)
}

fn tmp_store(tag: &str) -> CheckpointStore {
    let dir = std::env::temp_dir().join(format!(
        "sfetch-ckpt-itest-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointStore::open(dir).expect("open store")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Serialize → store (disk) → load → resume at a random sampling-unit
    /// boundary of the phased workload: every window measured after the
    /// suspension point — sample points *and* complete per-window
    /// `SimStats` — must be bit-identical to the uninterrupted run.
    #[test]
    fn suspend_resume_through_disk_is_bit_identical(
        boundary in 1u64..4,
        gen_seed in 0u64..20,
        exec_seed in 0u64..1000,
    ) {
        let img = phased_image(gen_seed);
        let scfg = quick_schedule();
        let pcfg = ProcessorConfig::table2(4);
        let windows = 4u64;

        // Uninterrupted run: full SimStats per window.
        let mut straight = Sampler::new(&img, EngineKind::Stream, pcfg, scfg, exec_seed);
        let all: Vec<_> = (0..windows).map(|_| straight.next_window_full()).collect();

        // Interrupted run: walk to `boundary`, checkpoint through the
        // on-disk store, drop everything, reload, resume.
        let store = tmp_store("resume");
        let key = {
            let mut head = Sampler::new(&img, EngineKind::Stream, pcfg, scfg, exec_seed);
            head.skip(boundary);
            let cp = head.checkpoint();
            let key = StoreKey {
                fingerprint: sfetch_trace::trace_fingerprint(&img, exec_seed, 4096),
                seed: exec_seed,
                at_inst: cp.seq,
            };
            store.save(&key, &cp).expect("bank the suspension point");
            key
        };
        let cp = store.load(&key).expect("verified reload");
        let mut resumed = Sampler::resume(&img, EngineKind::Stream, pcfg, scfg, &cp);
        prop_assert_eq!(resumed.window(), boundary);
        for (i, (want_point, want_stats)) in
            all.iter().enumerate().skip(boundary as usize)
        {
            let (point, stats) = resumed.next_window_full();
            prop_assert_eq!(want_point, &point, "window {} point diverged", i);
            prop_assert_eq!(want_stats, &stats, "window {} SimStats diverged", i);
        }
        let _ = std::fs::remove_dir_all(store.root());
    }
}

/// Running the sampler twice — once against a cold store, once against
/// the store the first run populated — must produce byte-identical
/// merged window stats, equal to the storeless live sampler's, with the
/// second run served entirely from disk.
#[test]
fn cold_and_warm_store_runs_are_byte_identical() {
    let img = phased_image(3);
    let scfg = quick_schedule();
    let pcfg = ProcessorConfig::table2(8);
    let store = tmp_store("reuse");
    let fp = sfetch_trace::trace_fingerprint(&img, 7, 4096);
    let windows = 4u64;
    let live = Sampler::new(&img, EngineKind::Stream, pcfg, scfg, 7).run(windows);

    let mut cold = BatchSampler::new(&img, fp, 7, scfg, &store);
    let cold_pts = run_cell(&mut cold, EngineKind::Stream, pcfg, windows);
    assert_eq!(cold.stats().misses, windows, "cold run computes every checkpoint");
    assert_eq!(store.entries() as u64, windows);
    assert_eq!(cold_pts, live, "cold-store run must match the storeless sampler");

    let mut warm = BatchSampler::new(&img, fp, 7, scfg, &store);
    let warm_pts = run_cell(&mut warm, EngineKind::Stream, pcfg, windows);
    assert_eq!(warm.stats().hits, windows, "warm run loads every checkpoint");
    assert_eq!(warm.stats().misses, 0);
    assert_eq!(cold_pts, warm_pts, "warm-store replay must be byte-identical");

    // And so must a different engine/width riding the same store: the
    // checkpoints are configuration-independent.
    let ev8 = ProcessorConfig::table2(4);
    let mut other = BatchSampler::new(&img, fp, 7, scfg, &store);
    let other_pts = run_cell(&mut other, EngineKind::Ev8, ev8, windows);
    assert_eq!(other.stats().hits, windows, "cross-config run reuses the same entries");
    assert_eq!(other_pts, Sampler::new(&img, EngineKind::Ev8, ev8, scfg, 7).run(windows));
    let _ = std::fs::remove_dir_all(store.root());
}

/// A corrupted or version-mismatched store entry must be *rejected and
/// recomputed* — the run's results stay identical to the storeless live
/// sampler's, the damage is counted, and the entry is healed on disk.
#[test]
fn damaged_entries_are_rejected_and_recomputed() {
    let img = phased_image(5);
    let scfg = quick_schedule();
    let pcfg = ProcessorConfig::table2(8);
    let store = tmp_store("damage");
    let fp = sfetch_trace::trace_fingerprint(&img, 9, 4096);
    let windows = 3u64;

    let want = Sampler::new(&img, EngineKind::Stream, pcfg, scfg, 9).run(windows);
    let mut cold = BatchSampler::new(&img, fp, 9, scfg, &store);
    assert_eq!(run_cell(&mut cold, EngineKind::Stream, pcfg, windows), want);

    // Corrupt window 1's entry (flip a payload byte) and stamp window
    // 2's entry with a future format version.
    let key = |w: u64| StoreKey {
        fingerprint: fp,
        seed: 9,
        at_inst: w * scfg.interval + scfg.fast_forward(),
    };
    let p1 = store.entry_path(&key(1));
    let mut bytes = std::fs::read(&p1).expect("read entry 1");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x5a;
    std::fs::write(&p1, &bytes).expect("corrupt entry 1");
    let p2 = store.entry_path(&key(2));
    let mut bytes = std::fs::read(&p2).expect("read entry 2");
    bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&p2, &bytes).expect("version-mismatch entry 2");
    assert!(matches!(store.load(&key(1)), Err(StoreMiss::Rejected(_))));
    assert!(matches!(store.load(&key(2)), Err(StoreMiss::Rejected(_))));

    // The damaged run must notice, recompute, and still match.
    let mut healed = BatchSampler::new(&img, fp, 9, scfg, &store);
    let got = run_cell(&mut healed, EngineKind::Stream, pcfg, windows);
    assert_eq!(want, got, "recomputed windows must equal the storeless run");
    assert_eq!(healed.stats().rejected, 2, "both damaged entries rejected");
    // Window 0's intact entry serves twice: once for its own window and
    // once as the restart point for recomputing window 1.
    assert_eq!(healed.stats().hits, 2, "intact entries keep serving");

    // The store healed itself: every entry verifies again.
    for w in 0..windows {
        assert!(store.load(&key(w)).is_ok(), "window {w} entry healed");
    }
    let _ = std::fs::remove_dir_all(store.root());
}
