//! Traced runs: the per-layer metrics.
//!
//! A traced run repeats its workload's operations, alternating a traced
//! operation — the same work issued through the layers' own public
//! calls, each call timed (a *span*) — with an untraced one through the
//! top-level entry point. Traced and untraced operations must produce
//! identical output (checked), and their latency ratio is the
//! `tracing_overhead`. `layer_coverage` is the share of a traced
//! operation's wall time that falls inside timed layer calls.
//!
//! Time spent *inside* `Processor::run` cannot be split into fetch, L1i
//! and back-end from outside the program; that split needs spans inside
//! the simulator. So, besides the in-workload spans, every traced run
//! first times each layer directly on the workload's own program (a
//! *probe*): the functional executor, engine and memory warming,
//! checkpoint round trips, store reads and writes, the cell ledger, the
//! merge and a daemon request. Every per-layer metric is reported on
//! every workload; a value from the workload's own operations replaces
//! the probe's, and the report's `layer_sources` says which is which.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use sfetch_bench::driver::validate_shard_text;
use sfetch_bench::grid::{cell_config, engine_key, grid_engines, merge_grid, CellRun, GridCell};
use sfetch_core::{CycleBuckets, Processor, SimStats};
use sfetch_fetch::{CommittedControl, CommittedInst, EngineKind};
use sfetch_fleet::{now_ms, CellId, Ledger};
use sfetch_mem::{MemoryConfig, MemoryHierarchy};
use sfetch_sample::{
    estimate, warm_model_digest, BatchCell, BatchSampler, CheckpointStore, StoreKey,
};
use sfetch_trace::{ArchCheckpoint, DynInst, Executor};
use sfetch_workloads::{LayoutChoice, Workload};

use crate::check::{self, Checks};
use crate::inputs::{PlannedRequest, ReqKind};
use crate::stats::{median, Summary};
use crate::workloads::{
    fig8_cells, grid_op, grid_opts, serve_one, suite_config, suite_point, suite_points, timed,
    Budget, GridRun, Leg, Outcome, RunConfig, Scale, ServeHandle, Served, Setups, LEGS,
};

/// Per-layer metric names and units, in reporting order. Every traced
/// run reports every one of them.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("workloads.build_s", "s"),
    ("trace.ns_per_inst", "ns"),
    ("trace.ckpt_roundtrip_us", "us"),
    ("fetch.warm_ns_per_inst.stream", "ns"),
    ("fetch.warm_ns_per_inst.ev8", "ns"),
    ("fetch.warm_ns_per_inst.ftb", "ns"),
    ("fetch.warm_ns_per_inst.tcache", "ns"),
    ("mem.warm_ns_per_inst", "ns"),
    ("core.ns_per_inst.stream", "ns"),
    ("core.ns_per_inst.ev8", "ns"),
    ("core.ns_per_inst.ftb", "ns"),
    ("core.ns_per_inst.tcache", "ns"),
    ("core.ns_per_cycle.stream", "ns"),
    ("core.ns_per_cycle.ev8", "ns"),
    ("core.ns_per_cycle.ftb", "ns"),
    ("core.ns_per_cycle.tcache", "ns"),
    ("core.commit_share", "ratio"),
    ("core.fetch_stall_share", "ratio"),
    ("sample.populate_s", "s"),
    ("store.load_us", "us"),
    ("store.save_us", "us"),
    ("store.load_warm_us", "us"),
    ("store.save_warm_us", "us"),
    ("store.bytes", "bytes"),
    ("store.hit_ratio", "ratio"),
    ("store.bank_hit_ratio", "ratio"),
    ("fleet.ledger_open_ms", "ms"),
    ("serve.accept_s", "s"),
    ("serve.compute_s", "s"),
    ("serve.reuse_ratio", "ratio"),
    ("bench.merge_ms", "ms"),
    ("tracing_overhead", "ratio"),
    ("layer_coverage", "ratio"),
    ("work.ops", "count"),
    ("work.windows", "count"),
    ("work.detailed_insts", "count"),
    ("work.store_entries", "count"),
    ("work.computed_cells", "count"),
    ("work.resumed_cells", "count"),
    ("work.probe_insts", "count"),
];

fn unit_of(name: &str) -> &'static str {
    PER_LAYER.iter().find(|(n, _)| *n == name).map_or("count", |(_, u)| u)
}

/// Per-layer metrics being collected, with where each came from.
#[derive(Default)]
pub struct Layers {
    values: Vec<(String, f64, &'static str)>,
}

impl Layers {
    /// Sets `name` from the workload's own operations (replacing a
    /// probe's value).
    fn workload(&mut self, name: &str, v: f64) {
        self.set(name, v, "workload");
    }

    /// Sets `name` from a probe.
    fn probe(&mut self, name: &str, v: f64) {
        self.set(name, v, "probe");
    }

    fn set(&mut self, name: &str, v: f64, src: &'static str) {
        self.values.retain(|(n, _, _)| n != name);
        self.values.push((name.to_owned(), v, src));
    }

    /// Moves the metrics into `out`, in [`PER_LAYER`] order, plus the
    /// source map.
    fn finish(self, out: &mut Outcome) {
        let mut sources = Vec::new();
        for (name, _) in PER_LAYER {
            let (v, src) = self
                .values
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or((f64::NAN, "missing"), |(_, v, s)| (*v, *s));
            out.metric(name, v, unit_of(name));
            sources.push(format!("\"{name}\": \"{src}\""));
        }
        out.field("layer_sources", format!("{{{}}}", sources.join(", ")));
    }
}

/// Shares of cycles that committed and that fetch spent waiting on an
/// L1i miss — what idle-cycle skipping could at most reclaim.
fn shares(b: &CycleBuckets) -> (f64, f64) {
    let total = b.sum().max(1) as f64;
    (b.commit as f64 / total, (b.fetch_l2 + b.fetch_mem + b.fetch_mshr) as f64 / total)
}

/// Median ratio of paired traced/untraced latencies, minus one.
fn overhead(traced: &[f64], untraced: &[f64]) -> f64 {
    let ratios: Vec<f64> = traced.iter().zip(untraced).map(|(t, u)| t / u).collect();
    if ratios.is_empty() {
        f64::NAN
    } else {
        median(&ratios) - 1.0
    }
}

/// Traced `suite_detail`: passes alternate between `simulate` and the
/// same simulation issued as `Processor` calls.
pub fn trace_suite(
    cfg: &RunConfig,
    budget: &Budget,
    suite: &[Workload],
    setup: &Summary,
    out: &mut Outcome,
) {
    let sc = &cfg.scale;
    let mut checks = Checks::default();
    let progs: Vec<&Workload> = suite.iter().collect();
    let mut l = probes(cfg, &progs, &mut checks);
    l.workload("workloads.build_s", setup.median);
    let points = suite_points(suite);
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let mut per_engine: Vec<(EngineKind, f64, u64, u64)> =
        grid_engines().iter().map(|&k| (k, 0.0, 0, 0)).collect();
    let mut buckets = CycleBuckets::default();
    let (mut spans, mut walls) = (0.0, 0.0);
    let mut rounds = Vec::new();
    let mut pass = 0usize;
    while budget.fits(pass, 2, &rounds) {
        let t_pass = Instant::now();
        for &(w, kind) in &points {
            if pass.is_multiple_of(2) {
                let t0 = Instant::now();
                let img = w.image(LayoutChoice::Optimized);
                let pcfg = suite_config();
                let (mut p, build) = timed(|| {
                    let engine =
                        kind.build_for(pcfg.width, img.entry(), &pcfg.prefetch, &pcfg.front);
                    Processor::new(pcfg, engine, w.cfg(), img, w.ref_seed())
                });
                let ((), warm) = timed(|| p.run(sc.suite_warmup));
                p.reset_stats();
                let ((), run) = timed(|| p.run(sc.suite_insts));
                let s = p.stats();
                let wall = t0.elapsed().as_secs_f64();
                let e = per_engine.iter_mut().find(|e| e.0 == kind).expect("engine");
                e.1 += warm + run;
                e.2 += sc.suite_warmup + s.committed;
                // Warm-up cycles are not in the window's statistics;
                // charge them at the measured rate.
                e.3 += s.cycles + s.cycles * sc.suite_warmup / s.committed.max(1);
                buckets.add(&s.buckets);
                spans += build + warm + run;
                walls += wall;
                traced.push(wall);
                checks.op(check::detailed_stats(w.name(), &s));
            } else {
                let (s, dt) = timed(|| suite_point(w, kind, sc));
                untraced.push(dt);
                checks.op(check::detailed_stats(w.name(), &s));
            }
        }
        rounds.push(t_pass.elapsed().as_secs_f64());
        pass += 1;
    }
    for (kind, secs, insts, cycles) in &per_engine {
        let k = engine_key(*kind);
        l.workload(&format!("core.ns_per_inst.{k}"), secs * 1e9 / *insts as f64);
        l.workload(&format!("core.ns_per_cycle.{k}"), secs * 1e9 / *cycles as f64);
    }
    let (commit, stall) = shares(&buckets);
    l.workload("core.commit_share", commit);
    l.workload("core.fetch_stall_share", stall);
    l.workload("tracing_overhead", overhead(&traced, &untraced));
    l.workload("layer_coverage", spans / walls);
    l.workload("work.ops", (traced.len() + untraced.len()) as f64);
    l.workload("work.windows", 0.0);
    l.workload(
        "work.detailed_insts",
        ((traced.len() + untraced.len()) as u64 * (sc.suite_warmup + sc.suite_insts)) as f64,
    );
    for name in ["store.bytes", "store.hit_ratio", "store.bank_hit_ratio", "work.store_entries"] {
        l.workload(name, 0.0);
    }
    l.workload("work.computed_cells", 0.0);
    l.workload("work.resumed_cells", 0.0);
    out.checks = checks;
    l.finish(out);
}

/// Traced phased-grid campaign: campaigns alternate between
/// `run_sampled_grid` legs and the same legs issued as store and
/// `BatchSampler` calls, whose own host-time split separates checkpoint
/// resolution (the fast-forward walk and store traffic) from warming.
pub fn trace_grid(
    cfg: &RunConfig,
    budget: &Budget,
    g: &mut GridRun,
    setups: &mut Setups,
    n: &mut usize,
    checks: &mut Checks,
    out: &mut Outcome,
) -> Result<(), String> {
    let sc = &cfg.scale;
    let mut l = probes(cfg, &[&g.w], checks);
    let opts = grid_opts(sc);
    let cells = fig8_cells();
    let windows = sc.grid_sample.windows(sc.grid_total);
    let bcells: Vec<BatchCell> =
        cells.iter().map(|&c| BatchCell { kind: c.engine, pcfg: cell_config(c, &opts) }).collect();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let (mut spans, mut walls, mut populate) = (0.0, 0.0, Vec::new());
    let (mut hits, mut probes_n, mut bank_hits, mut bank_probes) = (0u64, 0u64, 0u64, 0u64);
    let mut buckets = CycleBuckets::default();
    let mut last: Vec<CellRun> = Vec::new();
    let mut rounds = Vec::new();
    let mut i = 0usize;
    while budget.fits(i, 2, &rounds) {
        let t_round = Instant::now();
        if i > 0 {
            g.renew(cfg, setups, n)?;
        }
        let mut campaign = 0.0;
        for leg in LEGS {
            g.prepare(leg, sc)?;
            if i % 2 == 1 {
                let (runs, dt) = timed(|| grid_op(&g.w, sc, &g.store));
                checks.op(g.check(&runs, false));
                campaign += dt;
                continue;
            }
            let t0 = Instant::now();
            let img = g.w.image(LayoutChoice::Optimized);
            let fp = g.w.fingerprint(LayoutChoice::Optimized);
            let ((rows, timing, st, wb), run_s) = timed(|| {
                let mut s = BatchSampler::new(img, fp, g.w.ref_seed(), sc.grid_sample, &g.store)
                    .with_warm_bank(opts.warm_bank);
                let rows = s.run_range(&bcells, 0..windows, opts.jobs);
                (rows, s.timing(), s.stats(), s.warm_bank_stats())
            });
            let (runs, est_s) = timed(|| {
                cells
                    .iter()
                    .zip(&rows)
                    .map(|(&cell, r)| {
                        let points: Vec<_> = r.iter().map(|(p, _)| *p).collect();
                        let estimate = estimate(&points, sc.grid_sample.confidence);
                        CellRun { cell, points, estimate }
                    })
                    .collect::<Vec<_>>()
            });
            let wall = t0.elapsed().as_secs_f64();
            for (cell, r) in cells.iter().zip(&rows) {
                for (_, s) in r {
                    checks.op(check::detailed_stats("grid window", s));
                    if cell.width == 8 && leg == Leg::Banked {
                        buckets.add(&s.buckets);
                    }
                }
            }
            checks.op(g.check(&runs, false));
            if leg == Leg::Cold {
                populate.push(timing.ff_ns as f64 / 1e9);
            }
            hits += st.hits;
            probes_n += st.hits + st.misses + st.rejected;
            bank_hits += wb.hits;
            bank_probes += wb.hits + wb.misses + wb.rejected;
            spans += run_s + est_s;
            walls += wall;
            campaign += wall;
            last = runs;
        }
        if i.is_multiple_of(2) {
            traced.push(campaign);
        } else {
            untraced.push(campaign);
        }
        rounds.push(t_round.elapsed().as_secs_f64());
        i += 1;
    }
    l.workload("workloads.build_s", setups.wall_summary().median);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    l.workload("sample.populate_s", median(&populate));
    l.workload("store.hit_ratio", ratio(hits, probes_n));
    l.workload("store.bank_hit_ratio", ratio(bank_hits, bank_probes));
    l.workload("store.bytes", g.store.total_bytes() as f64);
    l.workload("work.store_entries", (g.store.entries() + g.store.warm_entries()) as f64);
    let (commit, stall) = shares(&buckets);
    l.workload("core.commit_share", commit);
    l.workload("core.fetch_stall_share", stall);
    l.workload("tracing_overhead", overhead(&traced, &untraced));
    l.workload("layer_coverage", spans / walls);
    l.workload("work.ops", i as f64);
    let cell_windows = (i * LEGS.len()) as u64 * windows * cells.len() as u64;
    l.workload("work.windows", cell_windows as f64);
    l.workload(
        "work.detailed_insts",
        (cell_windows * (sc.grid_sample.warm_detail + sc.grid_sample.measure)) as f64,
    );
    l.workload("work.computed_cells", 0.0);
    l.workload("work.resumed_cells", 0.0);
    // The merge every grid path ends in, on this campaign's own points.
    let tuples: Vec<(String, usize, sfetch_sample::SamplePoint)> = last
        .iter()
        .flat_map(|r| {
            r.points.iter().map(move |p| (engine_key(r.cell.engine).to_owned(), r.cell.width, *p))
        })
        .collect();
    let merge: Vec<f64> = (0..20)
        .map(|_| {
            timed(|| black_box(merge_grid(&cells, windows, &tuples, sc.grid_sample.confidence))).1
        })
        .collect();
    l.workload("bench.merge_ms", median(&merge) * 1e3);
    l.finish(out);
    Ok(())
}

/// Traced `serve_mix`: odd blocks time each request's stages from its
/// event stream; even blocks run untraced. `l` holds the probes, taken
/// before the blocks.
#[allow(clippy::too_many_arguments)]
pub fn trace_serve(
    cfg: &RunConfig,
    mut l: Layers,
    setup: &Summary,
    served: &[Served],
    traced_flags: &[bool],
    daemon_store: &Path,
    checks: &mut Checks,
    out: &mut Outcome,
) {
    l.workload("workloads.build_s", setup.median);
    let pick = |traced: bool, f: &dyn Fn(&Served) -> f64| -> Vec<f64> {
        served.iter().zip(traced_flags).filter(|(_, &t)| t == traced).map(|(s, _)| f(s)).collect()
    };
    let resumed = |traced: bool| -> Vec<f64> {
        served
            .iter()
            .zip(traced_flags)
            .filter(|(s, &t)| t == traced && s.plan.kind == ReqKind::Resumed)
            .map(|(s, _)| s.total_s)
            .collect()
    };
    let med = |v: Vec<f64>| if v.is_empty() { f64::NAN } else { median(&v) };
    l.workload("serve.accept_s", med(pick(true, &|s| s.accept_s)));
    l.workload("serve.compute_s", med(pick(true, &|s| s.compute_s)));
    l.workload("bench.merge_ms", med(pick(true, &|s| s.merge_s)) * 1e3);
    let (tr, un) = (resumed(true), resumed(false));
    l.workload(
        "tracing_overhead",
        if tr.is_empty() || un.is_empty() { f64::NAN } else { median(&tr) / median(&un) - 1.0 },
    );
    let stage: f64 = pick(true, &|s| s.accept_s + s.compute_s + s.merge_s).iter().sum();
    let wall: f64 = pick(true, &|s| s.total_s).iter().sum();
    l.workload("layer_coverage", stage / wall);
    let cells: u64 = served.iter().map(|s| s.plan.cells.len() as u64).sum();
    let computed: u64 = served.iter().map(|s| s.counts.0).sum();
    let reused: u64 = served.iter().map(|s| s.counts.1 + s.counts.2).sum();
    l.workload("serve.reuse_ratio", reused as f64 / cells.max(1) as f64);
    // The daemon's store hits are not visible to a client (its counters
    // report a banked cell as computed, hit or miss), so
    // `store.hit_ratio` and `store.bank_hit_ratio` stay the probe's.
    l.workload("work.ops", served.len() as f64);
    l.workload("work.computed_cells", computed as f64);
    l.workload("work.resumed_cells", reused as f64);
    let windows: u64 =
        served.iter().map(|s| s.plan.cells.len() as u64 * (s.plan.total / s.plan.interval)).sum();
    l.workload("work.windows", windows as f64);
    let ss = &cfg.scale.serve_sample;
    l.workload(
        "work.detailed_insts",
        (served
            .iter()
            .filter(|s| s.plan.kind != ReqKind::Resumed)
            .map(|s| s.plan.cells.len() as u64 * (s.plan.total / s.plan.interval))
            .sum::<u64>()
            * (ss.warm_detail + ss.measure)) as f64,
    );
    if let Ok(store) = CheckpointStore::open(daemon_store) {
        l.workload("store.bytes", store.total_bytes() as f64);
        l.workload("work.store_entries", store.entries() as f64);
    }
    // Replay the families' ledgers exactly as the daemon opens them.
    let mut opens = Vec::new();
    let mut seen = Vec::new();
    for s in served.iter().filter(|s| s.error.is_none()) {
        let req = crate::workloads::serve_request(&cfg.scale, &s.plan);
        let tag = req.family_tag();
        if seen.contains(&tag) || seen.len() >= 4 {
            continue;
        }
        seen.push(tag);
        let path = daemon_store.join("fleet").join(format!("{tag:016x}")).join("cells.ledger");
        let validate = |text: &str| validate_shard_text(text);
        let (r, dt) =
            timed(|| Ledger::open(&path, tag, &req.canonical_cells(), now_ms(), &validate));
        checks.op(r.map(|_| ()).map_err(|e| format!("reopen ledger: {e}")));
        opens.push(dt);
    }
    if !opens.is_empty() {
        l.workload("fleet.ledger_open_ms", median(&opens) * 1e3);
    }
    l.finish(out);
}

/// Converts an executor record into the committed record engines warm on.
fn committed(d: &DynInst) -> CommittedInst {
    CommittedInst {
        pc: d.pc,
        control: d.control.map(|c| CommittedControl {
            kind: c.kind,
            taken: c.taken,
            target: c.target,
            next_pc: c.next_pc,
            is_fixup: c.is_fixup,
        }),
        mispredicted: false,
    }
}

/// Chunk size of the warming probes (the sampler warms in chunks too).
const CHUNK: usize = 4096;

/// Direct per-layer probes on the workload's programs; each fills only
/// the metrics the workload's own operations did not.
/// Times every layer directly on `progs` (see the module docs).
pub fn probes(cfg: &RunConfig, progs: &[&Workload], checks: &mut Checks) -> Layers {
    let mut l = Layers::default();
    probe_layers(cfg, progs, &mut l, checks);
    l
}

fn probe_layers(cfg: &RunConfig, progs: &[&Workload], l: &mut Layers, checks: &mut Checks) {
    let sc = &cfg.scale;
    let per_prog = (sc.probe_insts / progs.len() as u64).max(1);
    l.workload("work.probe_insts", (per_prog * progs.len() as u64) as f64);

    // Executor walk, engine warming, memory warming.
    let (mut exec_s, mut mem_s, mut n) = (0.0, 0.0, 0u64);
    let mut fetch_s = [0.0f64; 4];
    for w in progs {
        let img = w.image(LayoutChoice::Optimized);
        let mut ex = Executor::from_image(img, w.ref_seed());
        let ((), dt) = timed(|| {
            for _ in 0..per_prog {
                black_box(ex.next());
            }
        });
        exec_s += dt;
        let mut ex = Executor::from_image(img, w.ref_seed());
        let kinds = grid_engines();
        let mut engines: Vec<_> = kinds
            .iter()
            .map(|&k| {
                let pcfg = cell_config(GridCell { engine: k, width: 8 }, &grid_opts(sc));
                k.build_for(8, img.entry(), &pcfg.prefetch, &pcfg.front)
            })
            .collect();
        let mut mem = MemoryHierarchy::new(MemoryConfig::table2(8));
        let line_bytes = mem.l1i_line_bytes();
        let mut last_line = u64::MAX;
        let mut left = per_prog;
        while left > 0 {
            let k = left.min(CHUNK as u64) as usize;
            let recs: Vec<DynInst> =
                (0..k).map(|_| ex.next().expect("executor is infinite")).collect();
            let ((), dt) = timed(|| {
                for d in &recs {
                    let line = d.pc.line_index(line_bytes);
                    if line != last_line {
                        mem.warm_inst(d.pc);
                        last_line = line;
                    }
                    if let Some(a) = d.mem_addr {
                        mem.warm_data(a);
                    }
                }
            });
            mem_s += dt;
            let cis: Vec<CommittedInst> = recs.iter().map(committed).collect();
            for (e, slot) in engines.iter_mut().zip(fetch_s.iter_mut()) {
                let ((), dt) = timed(|| e.warm_block(&cis));
                *slot += dt;
            }
            left -= k as u64;
        }
        n += per_prog;
    }
    l.probe("trace.ns_per_inst", exec_s * 1e9 / n as f64);
    l.probe("mem.warm_ns_per_inst", mem_s * 1e9 / n as f64);
    for (k, s) in grid_engines().iter().zip(fetch_s) {
        l.probe(&format!("fetch.warm_ns_per_inst.{}", engine_key(*k)), s * 1e9 / n as f64);
    }

    // Checkpoint round trip: capture, encode, decode, resume.
    let w = progs[0];
    let img = w.image(LayoutChoice::Optimized);
    let mut ex = Executor::from_image(img, w.ref_seed());
    for _ in 0..per_prog.min(100_000) {
        ex.next();
    }
    let rt: Vec<f64> = (0..30)
        .map(|_| {
            timed(|| {
                let bytes = ex.checkpoint().to_bytes();
                let cp = ArchCheckpoint::from_bytes(&bytes).expect("round trip");
                black_box(Executor::from_checkpoint(img, &cp));
            })
            .1
        })
        .collect();
    l.probe("trace.ckpt_roundtrip_us", median(&rt) * 1e6);

    // Full-detail core runs, one per engine at 8-wide.
    let mut buckets = CycleBuckets::default();
    for k in grid_engines() {
        let pcfg = cell_config(GridCell { engine: k, width: 8 }, &grid_opts(sc));
        let (s, dt): (SimStats, f64) = timed(|| {
            let engine = k.build_for(8, img.entry(), &pcfg.prefetch, &pcfg.front);
            let mut p = Processor::new(pcfg, engine, w.cfg(), img, w.ref_seed());
            p.run(per_prog / 4);
            p.stats()
        });
        checks.op(check::detailed_stats("core probe", &s));
        buckets.add(&s.buckets);
        l.probe(&format!("core.ns_per_inst.{}", engine_key(k)), dt * 1e9 / s.committed as f64);
        l.probe(&format!("core.ns_per_cycle.{}", engine_key(k)), dt * 1e9 / s.cycles as f64);
    }
    let (commit, stall) = shares(&buckets);
    l.probe("core.commit_share", commit);
    l.probe("core.fetch_stall_share", stall);

    // A small banked grid on a probe store: checkpoint resolution, then
    // direct store reads and writes of its entries.
    let dir = cfg.work_dir.join("probe-store");
    let _ = std::fs::remove_dir_all(&dir);
    let Ok(store) = CheckpointStore::open(&dir) else {
        checks.op(Err("open probe store".into()));
        return;
    };
    let scfg = sc.serve_sample;
    let windows = 2;
    let fp = w.fingerprint(LayoutChoice::Optimized);
    let kinds = grid_engines();
    let pcfgs: Vec<_> = kinds
        .iter()
        .map(|&k| cell_config(GridCell { engine: k, width: 8 }, &grid_opts(sc)))
        .collect();
    let bcells: Vec<BatchCell> =
        kinds.iter().zip(&pcfgs).map(|(&kind, &pcfg)| BatchCell { kind, pcfg }).collect();
    let mut s = BatchSampler::new(img, fp, w.ref_seed(), scfg, &store).with_warm_bank(true);
    let pts = s.run_range_points(&bcells, 0..windows, 1);
    l.probe("sample.populate_s", s.timing().ff_ns as f64 / 1e9);
    // The same grid resubmitted to the resident store: without the bank
    // (checkpoint reads, warming recomputed) and with it (banked warm
    // state restored, no checkpoint read) — the hit ratios each sees.
    let resubmit = |bank: bool| {
        let mut s = BatchSampler::new(img, fp, w.ref_seed(), scfg, &store).with_warm_bank(bank);
        let same = s.run_range_points(&bcells, 0..windows, 1) == pts;
        (same, s.stats(), s.warm_bank_stats())
    };
    let ((same_ck, st, _), (same_wb, _, wb)) = (resubmit(false), resubmit(true));
    let same = same_ck && same_wb;
    checks.op(if same { Ok(()) } else { Err("probe grid resubmission differs".into()) });
    l.probe("store.hit_ratio", st.hits as f64 / (st.hits + st.misses + st.rejected).max(1) as f64);
    l.probe(
        "store.bank_hit_ratio",
        wb.hits as f64 / (wb.hits + wb.misses + wb.rejected).max(1) as f64,
    );
    let key = StoreKey { fingerprint: fp, seed: w.ref_seed(), at_inst: scfg.fast_forward() };
    let model = warm_model_digest(kinds[0], &pcfgs[0], &scfg);
    // Reads go through a fresh handle with the warm read cache off, so
    // every read hits the file and re-verifies it; writes go to a second
    // store (entries must sit under their own key).
    let scratch_dir = cfg.work_dir.join("probe-scratch");
    let handles = CheckpointStore::open(&dir)
        .and_then(|r| Ok((r.with_warm_cache_bytes(0), CheckpointStore::open(&scratch_dir)?)));
    if let Ok((reader, writer)) = handles {
        let (mut load, mut save, mut load_warm, mut save_warm) = (vec![], vec![], vec![], vec![]);
        for _ in 0..20 {
            let (cp, dt) = timed(|| reader.load(&key));
            load.push(dt);
            let Ok(cp) = cp else {
                checks.op(Err("probe checkpoint missing".into()));
                break;
            };
            let (r, dt) = timed(|| writer.save(&key, &cp));
            save.push(dt);
            checks.op(r.map_err(|e| format!("probe save: {e}")));
            let (entry, dt) = timed(|| reader.load_warm(&key, model));
            load_warm.push(dt);
            let Ok(entry) = entry else {
                checks.op(Err("probe warm entry missing".into()));
                break;
            };
            let (r, dt) = timed(|| writer.save_warm(&key, model, &entry));
            save_warm.push(dt);
            checks.op(r.map_err(|e| format!("probe save_warm: {e}")));
        }
        let us = |v: &[f64]| if v.is_empty() { f64::NAN } else { median(v) * 1e6 };
        l.probe("store.load_us", us(&load));
        l.probe("store.save_us", us(&save));
        l.probe("store.load_warm_us", us(&load_warm));
        l.probe("store.save_warm_us", us(&save_warm));
    }
    let _ = std::fs::remove_dir_all(&scratch_dir);

    // The merge, over the probe grid's points.
    let cells: Vec<GridCell> = kinds.iter().map(|&k| GridCell { engine: k, width: 8 }).collect();
    let tuples: Vec<_> = cells
        .iter()
        .zip(&pts)
        .flat_map(|(c, p)| p.iter().map(move |p| (engine_key(c.engine).to_owned(), c.width, *p)))
        .collect();
    let merge: Vec<f64> = (0..20)
        .map(|_| timed(|| black_box(merge_grid(&cells, windows, &tuples, scfg.confidence))).1)
        .collect();
    l.probe("bench.merge_ms", median(&merge) * 1e3);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    // The cell ledger: create, then replay.
    {
        let path = cfg.work_dir.join("probe.ledger");
        let ids: Vec<CellId> = fig8_cells()
            .iter()
            .map(|c| CellId::new(engine_key(c.engine), c.width, 0, windows))
            .collect();
        let validate = |text: &str| validate_shard_text(text);
        let mut opens = Vec::new();
        for i in 0..11 {
            let (r, dt) = timed(|| Ledger::open(&path, 1, &ids, now_ms(), &validate).map(|_| ()));
            checks.op(r.map_err(|e| format!("probe ledger: {e}")));
            // The first open creates the ledger; the rest replay it.
            if i > 0 {
                opens.push(dt);
            }
        }
        l.probe("fleet.ledger_open_ms", median(&opens) * 1e3);
    }

    // One computed and one resumed request to a resident daemon.
    {
        match ServeHandle::start(&cfg.work_dir.join("probe-daemon"), cfg.scale.serve_procs) {
            Ok(h) => {
                let r = PlannedRequest {
                    kind: ReqKind::Computed,
                    interval: scfg.interval,
                    total: scfg.interval * windows,
                    cells: vec![GridCell { engine: EngineKind::Stream, width: 8 }],
                };
                let probe_scale = Scale { serve_sample: scfg, ..*sc };
                let a = serve_one(&h, &probe_scale, "probe-a", &r, true);
                let b = serve_one(&h, &probe_scale, "probe-b", &r, true);
                for s in [&a, &b] {
                    checks.op(s.error.clone().map_or(Ok(()), Err));
                }
                l.probe("serve.accept_s", (a.accept_s + b.accept_s) / 2.0);
                l.probe("serve.compute_s", a.compute_s);
                l.probe("serve.reuse_ratio", (b.counts.1 + b.counts.2) as f64 / 2.0);
            }
            Err(e) => checks.op(Err(format!("probe daemon: {e}"))),
        }
    }
}
