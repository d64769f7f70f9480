//! The benchmark's workloads and their untraced (end-to-end) runs.
//!
//! Every workload repeats one *operation* until its time budget is
//! spent and reports the same end-to-end metrics — set-up time, the
//! median operation latency and peak memory — so that every metric is
//! defined on every workload. The set-up is repeated before every
//! operation, so set-up times are taken throughout the run, on the same
//! host as the operations. Both times are reported in reference seconds:
//! every set-up and every piece of an operation is framed by runs of the
//! [`HostClock`] kernel, which cancels the host's drift (wall seconds
//! stay in the report):
//!
//! | workload | one operation |
//! |---|---|
//! | `suite_detail` | one pass: full detailed simulation of all 16 (bench, engine) points |
//! | `phased_grid` | one campaign: the sampled Fig. 8 grid cold (empty store), warm (checkpoints stored, bank empty) and banked (resident store, every window banked) |
//! | `serve_mix` | one block of closed-loop requests (fixed mix: computed, banked, resumed) to a resident `sfetch-serve` daemon |
//!
//! The traced run ([`crate::layers`]) repeats the same operations with
//! spans around the layer calls and adds per-layer probes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sfetch_bench::driver::{submit_and_collect, GridRequest, ServeEvent};
use sfetch_bench::grid::{
    cell_config, cells, engine_key, grid_engines, merge_grid, run_sampled_grid, CellRun, GridCell,
    FIG8_WIDTHS,
};
use sfetch_bench::HarnessOpts;
use sfetch_core::{simulate, ProcessorConfig, SimStats};
use sfetch_fetch::EngineKind;
use sfetch_sample::{
    run_full_detailed, warm_model_digest, CheckpointStore, SampleConfig, StoreKey,
};
use sfetch_serve::{Daemon, DaemonConfig};
use sfetch_workloads::{LayoutChoice, Workload};

use crate::check::{self, Checks};
use crate::host::HostClock;
use crate::inputs::{self, PlannedRequest, ReqKind, ServePlan, DEFAULT_SEED};
use crate::stats::Summary;

/// The workloads, in reporting order.
pub const WORKLOADS: [&str; 3] = ["suite_detail", "phased_grid", "serve_mix"];

/// Sizes of every workload's inputs and repeats.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Timed set-ups before every operation; `setup_s` is the median
    /// of all of a run's set-ups.
    pub setups: usize,
    /// Detailed warm-up instructions per suite point (excluded from its
    /// statistics).
    pub suite_warmup: u64,
    /// Measured instructions per suite point.
    pub suite_insts: u64,
    /// Sampled horizon of the phased grid.
    pub grid_total: u64,
    /// Sampling schedule of the phased grid.
    pub grid_sample: SampleConfig,
    /// `serve_mix` request sequence.
    pub serve: ServePlan,
    /// Schedule of `serve_mix` requests (the interval comes from the
    /// plan's family).
    pub serve_sample: SampleConfig,
    /// Daemon cell workers.
    pub serve_procs: usize,
    /// Blocks every `serve_mix` run completes, however short its budget
    /// (every other workload completes at least two operations).
    pub serve_min_blocks: u64,
    /// Instructions per layer probe.
    pub probe_insts: u64,
}

impl Scale {
    /// The registered benchmark.
    pub fn full() -> Self {
        Scale {
            setups: 2,
            suite_warmup: 100_000,
            suite_insts: 500_000,
            // The SMARTS-dense default schedule, three windows per cell.
            grid_total: 3 * SampleConfig::default().interval,
            grid_sample: SampleConfig::default(),
            serve: ServePlan {
                base_interval: 500_000,
                windows: 4,
                cells_per_request: 4,
                resumed_per_block: 3,
                recent: 3,
            },
            serve_sample: SampleConfig::parse("500000,60000,5000,5000").expect("CI schedule"),
            serve_procs: 2,
            serve_min_blocks: 2,
            probe_insts: 1_000_000,
        }
    }

    /// A shrunken pass of every workload, for the benchmark's own tests.
    pub fn tiny() -> Self {
        let grid_sample = SampleConfig::parse("200000,40000,2000,2000").expect("tiny schedule");
        Scale {
            setups: 2,
            suite_warmup: 2_000,
            suite_insts: 10_000,
            grid_total: 2 * grid_sample.interval,
            grid_sample,
            serve: ServePlan {
                base_interval: 100_000,
                windows: 2,
                cells_per_request: 2,
                resumed_per_block: 2,
                recent: 2,
            },
            serve_sample: SampleConfig::parse("100000,20000,1000,1000").expect("tiny schedule"),
            serve_procs: 2,
            serve_min_blocks: 2,
            probe_insts: 20_000,
        }
    }
}

/// A deliberate output corruption, so tests can show the checks fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturb {
    /// Alter one merged point line (the first campaign's warm leg, or
    /// the first served request).
    PointLine,
    /// Alter the statistics of the first suite point.
    SuiteStats,
}

/// One run's configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Scratch directory (stores, sockets); created and removed by the
    /// run. Relative paths keep socket names short.
    pub work_dir: PathBuf,
    /// `figure8_sampled` binary for the default-seed output check.
    pub fig8_bin: Option<PathBuf>,
    /// Test hook: corrupt one output.
    pub perturb: Option<Perturb>,
    /// Digest the run's simulated output must have (a mismatch is a
    /// failed operation) — e.g. the parent commit's, for a change that
    /// claims to alter host time only.
    pub expect_digest: Option<String>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks.
    pub checks: Checks,
    /// Reported metrics (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Report fields: `(key, JSON value)`.
    pub report: Vec<(String, String)>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_owned(), value, unit });
    }

    /// Adds a report field holding raw JSON.
    pub fn field(&mut self, key: &str, json: String) {
        self.report.push((key.to_owned(), json));
    }

    /// Looks a report field up by key (raw JSON).
    pub fn report_field(&self, key: &str) -> Option<&str> {
        self.report.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Removes the scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Unknown workloads and failures that leave nothing to measure (an
/// unwritable scratch directory, a daemon that never starts). Output
/// mismatches are not errors: they count as failed operations.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let budget = Budget::new(cfg.seconds);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("create {}: {e}", cfg.work_dir.display()))?;
    let _guard = WorkDir(cfg.work_dir.clone());
    let mut out = match cfg.workload.as_str() {
        "suite_detail" => suite_detail(cfg, &budget),
        "phased_grid" => phased_grid(cfg, &budget),
        "serve_mix" => serve_mix(cfg, &budget),
        other => Err(format!("unknown workload {other:?} (one of {})", WORKLOADS.join(", "))),
    }?;
    if let Some(want) = &cfg.expect_digest {
        let got = out.report_field("digest").unwrap_or("").trim_matches('"').to_owned();
        out.checks.op(if &got == want {
            Ok(())
        } else {
            Err(format!("digest {got} differs from the expected {want}"))
        });
    }
    out.field("fail_rate", format!("{}", out.checks.fail_rate()));
    Ok(out)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// A run's time budget: the run, set-up and output checks included,
/// ends about `seconds` after it started.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    /// A budget of `seconds` starting now.
    pub fn new(seconds: f64) -> Self {
        Budget { start: Instant::now(), seconds }
    }

    /// Whether another round — an operation with its set-ups and
    /// checks, expected to take the median of the `rounds` so far —
    /// still ends within the budget. A run always completes `min`
    /// rounds (`done` so far).
    pub fn fits(&self, done: usize, min: usize, rounds: &[f64]) -> bool {
        done < min
            || rounds.is_empty()
            || self.start.elapsed().as_secs_f64() + crate::stats::median(rounds) <= self.seconds
    }
}

/// Set-up times, collected over a whole run, in wall and reference
/// seconds.
#[derive(Default)]
pub struct Setups {
    clock: HostClock,
    wall: Vec<f64>,
    refs: Vec<f64>,
}

impl Setups {
    /// Sets up `n` times (at least once), timing each beside the host
    /// clock, and returns the last product; earlier products are dropped
    /// untimed.
    ///
    /// # Errors
    ///
    /// The first failed set-up's error.
    pub fn repeat<T>(
        &mut self,
        n: usize,
        mut f: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut last = None;
        for _ in 0..n.max(1) {
            drop(last.take());
            let (r, dt, ref_s) = self.clock.time(&mut f);
            self.wall.push(dt);
            self.refs.push(ref_s);
            last = Some(r?);
        }
        Ok(last.expect("at least one set-up"))
    }

    /// Summary of every set-up so far, in reference seconds.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.refs)
    }

    /// Summary of every set-up so far, in wall seconds.
    pub fn wall_summary(&self) -> Summary {
        Summary::of(&self.wall)
    }
}

/// An operation's times: the wall and reference seconds of each one,
/// summed over its timed pieces.
#[derive(Default)]
pub struct Ops {
    /// Kernel runs framing the pieces.
    pub clock: HostClock,
    /// Wall seconds per operation.
    pub wall: Vec<f64>,
    /// Reference seconds per operation.
    pub refs: Vec<f64>,
}

impl Ops {
    /// Operations done.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Whether no operation is done yet.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Records one operation of `(wall, reference)` seconds.
    pub fn push(&mut self, (wall, ref_s): (f64, f64)) {
        self.wall.push(wall);
        self.refs.push(ref_s);
    }
}

/// Sums `(wall, reference)` times.
fn add(a: (f64, f64), dt: f64, ref_s: f64) -> (f64, f64) {
    (a.0 + dt, a.1 + ref_s)
}

/// Reports the end-to-end metrics common to every workload, when the
/// timed operations end. The peak memory covers the whole run up to
/// then, the output checks done between operations included.
fn e2e(out: &mut Outcome, setups: &Setups, ops: &Ops) {
    let s = Summary::of(&ops.refs);
    let setup = setups.summary();
    out.metric("setup_s", setup.median, "s");
    out.metric("op_p50_s", s.median, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.field("setup_s", setup.json());
    out.field("setup_wall_s", setups.wall_summary().json());
    out.field("op_s", s.json());
    out.field("op_wall_s", Summary::of(&ops.wall).json());
    out.field("host_tick_s", Summary::of(ops.clock.ticks()).json());
}

/// The suite point configuration: 8-wide Table 2.
pub fn suite_config() -> ProcessorConfig {
    ProcessorConfig::table2(8)
}

fn suite_detail(cfg: &RunConfig, budget: &Budget) -> Result<Outcome, String> {
    let sc = &cfg.scale;
    let mut setups = Setups::default();
    let build = || Ok(inputs::suite_workloads(cfg.seed));
    let mut suite = setups.repeat(sc.setups, build)?;
    let mut out = Outcome::default();
    if cfg.trace {
        crate::layers::trace_suite(cfg, budget, &suite, &setups.wall_summary(), &mut out);
        return Ok(out);
    }
    let names: Vec<String> = suite_points(&suite)
        .iter()
        .map(|(w, kind)| format!("{}/{}", w.name(), engine_key(*kind)))
        .collect();
    let mut ops = Ops::default();
    let mut rounds = Vec::new();
    let mut per_point: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut first_pass: Vec<String> = Vec::new();
    let mut checks = Checks::default();
    let mut committed = 0u64;
    // One operation is a whole pass over the 16 points: every pass is
    // the same mix, so its latency moves with every point.
    while budget.fits(ops.len(), 2, &rounds) {
        let t0 = Instant::now();
        let pass = ops.len();
        if pass > 0 {
            suite = setups.repeat(sc.setups, build)?;
        }
        let mut stats = Vec::new();
        let mut op = (0.0, 0.0);
        for (i, (w, kind)) in suite_points(&suite).into_iter().enumerate() {
            let (s, dt, ref_s) = ops.clock.time(|| suite_point(w, kind, sc));
            op = add(op, dt, ref_s);
            per_point[i].push(ref_s);
            stats.push(s);
        }
        ops.push(op);
        for (i, (s, what)) in stats.iter_mut().zip(&names).enumerate() {
            if pass == 0 && i == 0 && cfg.perturb == Some(Perturb::SuiteStats) {
                s.buckets.commit += 1;
            }
            committed += sc.suite_warmup + s.committed;
            let line = check::stats_line(s);
            let result = check::detailed_stats(what, s).and_then(|()| {
                if pass == 0 || first_pass.get(i) == Some(&line) {
                    Ok(())
                } else {
                    Err(format!("{what}: pass {pass} differs from pass 0"))
                }
            });
            if pass == 0 {
                first_pass.push(line);
            }
            checks.op(result);
        }
        rounds.push(t0.elapsed().as_secs_f64());
    }
    e2e(&mut out, &setups, &ops);
    let secs: f64 = ops.wall.iter().sum();
    let points: Vec<String> = names
        .iter()
        .zip(&per_point)
        .map(|(n, v)| format!("\"{n}\": {}", crate::stats::median(v)))
        .collect();
    out.field("passes", ops.len().to_string());
    out.field("point_p50_s", format!("{{{}}}", points.join(", ")));
    out.field("detail_mips", format!("{}", committed as f64 / secs / 1e6));
    out.field("digest", format!("\"{:016x}\"", check::digest(&first_pass)));
    out.checks = checks;
    Ok(out)
}

/// The 16 (bench, engine) points of one suite pass.
pub fn suite_points(suite: &[Workload]) -> Vec<(&Workload, EngineKind)> {
    suite.iter().flat_map(|w| grid_engines().into_iter().map(move |k| (w, k))).collect()
}

/// One suite point: `simulate` on the optimized layout.
pub fn suite_point(w: &Workload, kind: EngineKind, sc: &Scale) -> SimStats {
    simulate(
        w.cfg(),
        w.image(LayoutChoice::Optimized),
        kind,
        suite_config(),
        w.ref_seed(),
        sc.suite_warmup,
        sc.suite_insts,
    )
}

/// A leg of a phased-grid campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// Empty store: fast-forward, warming, checkpoint and bank writes.
    Cold,
    /// Checkpoints stored, bank empty: warming recomputed and banked.
    Warm,
    /// Resident store with every window banked: restore plus detail.
    Banked,
}

/// The legs of one campaign, in order.
pub const LEGS: [Leg; 3] = [Leg::Cold, Leg::Warm, Leg::Banked];

impl Leg {
    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Leg::Cold => "cold",
            Leg::Warm => "warm",
            Leg::Banked => "banked",
        }
    }
}

/// Harness options of the phased grid: batched over all 12 cells,
/// single-threaded, warm bank on, the calibration defaults otherwise
/// (per-engine fronts, natural prefetch).
pub fn grid_opts(sc: &Scale) -> HarnessOpts {
    HarnessOpts {
        jobs: 1,
        batch: 12,
        warm_bank: true,
        grid_total: sc.grid_total,
        grid_sample: sc.grid_sample,
        ..HarnessOpts::default()
    }
}

/// The Fig. 8 cells: 4 engines × widths {2, 4, 8}.
pub fn fig8_cells() -> Vec<GridCell> {
    cells(&grid_engines(), &FIG8_WIDTHS)
}

/// One grid leg through the entry point users run.
pub fn grid_op(w: &Workload, sc: &Scale, store: &CheckpointStore) -> Vec<CellRun> {
    let opts = grid_opts(sc);
    run_sampled_grid(w, &fig8_cells(), sc.grid_sample, sc.grid_total, &opts, store).0
}

/// Deletes the grid's warm-bank entries from `store` (checkpoints stay):
/// every window's entry for every cell's warm model.
///
/// # Errors
///
/// A bank entry that exists but cannot be removed.
pub fn drop_bank(w: &Workload, sc: &Scale, store: &CheckpointStore) -> Result<(), String> {
    let opts = grid_opts(sc);
    let scfg = sc.grid_sample;
    for window in 0..scfg.windows(sc.grid_total) {
        let key = StoreKey {
            fingerprint: w.fingerprint(LayoutChoice::Optimized),
            seed: w.ref_seed(),
            at_inst: window * scfg.interval + scfg.fast_forward(),
        };
        for cell in fig8_cells() {
            let model = warm_model_digest(cell.engine, &cell_config(cell, &opts), &scfg);
            match std::fs::remove_file(store.warm_entry_path(&key, model)) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(format!("drop bank entry: {e}"));
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// State shared by a phased-grid run's operations.
pub struct GridRun {
    /// The phased workload of the seed.
    pub w: Workload,
    /// Store directory of the current operation.
    pub dir: PathBuf,
    /// The resident store (warm and banked legs).
    pub store: CheckpointStore,
    /// Reference merged lines (the first cold leg's).
    pub reference: Option<Vec<String>>,
}

impl GridRun {
    /// Builds the workload and opens an empty store (the set-up).
    ///
    /// # Errors
    ///
    /// Store directory failures.
    pub fn setup(cfg: &RunConfig, n: &mut usize) -> Result<Self, String> {
        *n += 1;
        let dir = cfg.work_dir.join(format!("store-{n}"));
        let _ = std::fs::remove_dir_all(&dir);
        let w = inputs::phased_workload(cfg.seed);
        let store = CheckpointStore::open(&dir).map_err(|e| format!("open store: {e}"))?;
        Ok(GridRun { w, dir, store, reference: None })
    }

    /// Sets up the next campaign — a freshly built workload on an empty
    /// store — `cfg.scale.setups` times, each timed into `setups`. The
    /// reference lines carry over; the previous store is deleted,
    /// untimed.
    ///
    /// # Errors
    ///
    /// Store directory failures.
    pub fn renew(
        &mut self,
        cfg: &RunConfig,
        setups: &mut Setups,
        n: &mut usize,
    ) -> Result<(), String> {
        let mut fresh = setups.repeat(cfg.scale.setups, || GridRun::setup(cfg, n))?;
        fresh.reference = self.reference.take();
        let old = std::mem::replace(self, fresh);
        let dir = old.dir.clone();
        drop(old);
        let _ = std::fs::remove_dir_all(dir);
        Ok(())
    }

    /// Prepares the store for `leg` (untimed): nothing for the cold leg,
    /// which runs on the campaign's freshly set-up empty store; the bank
    /// dropped and the store reopened for the warm leg; nothing for the
    /// banked leg, which resubmits to the handle the warm leg just banked
    /// through.
    ///
    /// # Errors
    ///
    /// Store directory failures.
    pub fn prepare(&mut self, leg: Leg, sc: &Scale) -> Result<(), String> {
        match leg {
            Leg::Cold | Leg::Banked => {}
            Leg::Warm => {
                drop_bank(&self.w, sc, &self.store)?;
                self.store =
                    CheckpointStore::open(&self.dir).map_err(|e| format!("open store: {e}"))?;
            }
        }
        Ok(())
    }

    /// Checks one operation's merged output against the reference
    /// (adopting it as the reference when there is none yet).
    pub fn check(&mut self, runs: &[CellRun], perturb: bool) -> Result<(), String> {
        let mut lines = check::grid_lines(runs);
        if perturb {
            lines[0].push(' ');
        }
        match &self.reference {
            None => {
                self.reference = Some(lines);
                Ok(())
            }
            Some(want) => check::same_lines("grid leg", want, &lines),
        }
    }
}

fn phased_grid(cfg: &RunConfig, budget: &Budget) -> Result<Outcome, String> {
    let sc = &cfg.scale;
    let mut n = 0usize;
    let mut setups = Setups::default();
    let mut g = setups.repeat(sc.setups, || GridRun::setup(cfg, &mut n))?;
    let mut out = Outcome::default();
    let mut checks = Checks::default();
    let windows = sc.grid_sample.windows(sc.grid_total);
    out.field("windows", windows.to_string());
    out.field("cells", fig8_cells().len().to_string());
    if cfg.trace {
        crate::layers::trace_grid(cfg, budget, &mut g, &mut setups, &mut n, &mut checks, &mut out)?;
        out.checks = checks;
        return Ok(out);
    }
    // The untimed reference runs come first, so the run ends when its
    // budget does: the full-detail reference leg and, at the default
    // seed, the `figure8_sampled` table.
    let reference = reference_leg(cfg, &g.w, &mut checks);
    let fig8 = match &cfg.fig8_bin {
        Some(bin) if cfg.seed == DEFAULT_SEED => Some(figure8_table(cfg, bin)),
        _ => None,
    };
    let mut ops = Ops::default();
    let mut rounds = Vec::new();
    let mut legs: [Vec<f64>; 3] = Default::default();
    let mut last = Vec::new();
    while budget.fits(ops.len(), 2, &rounds) {
        let t0 = Instant::now();
        if !ops.is_empty() {
            g.renew(cfg, &mut setups, &mut n)?;
        }
        let mut campaign = (0.0, 0.0);
        for (k, leg) in LEGS.into_iter().enumerate() {
            g.prepare(leg, sc)?;
            let (runs, dt, ref_s) = ops.clock.time(|| grid_op(&g.w, sc, &g.store));
            campaign = add(campaign, dt, ref_s);
            legs[k].push(ref_s);
            let perturb =
                ops.is_empty() && leg == Leg::Warm && cfg.perturb == Some(Perturb::PointLine);
            checks.op(g.check(&runs, perturb));
            last = runs;
        }
        ops.push(campaign);
        rounds.push(t0.elapsed().as_secs_f64());
    }
    e2e(&mut out, &setups, &ops);
    for (leg, times) in LEGS.iter().zip(&legs) {
        out.field(&format!("{}_s", leg.name()), Summary::of(times).json());
    }
    out.field("store_bytes", g.store.total_bytes().to_string());
    out.field("store_entries", g.store.entries().to_string());
    out.field("bank_entries", g.store.warm_entries().to_string());
    out.field(
        "digest",
        format!("\"{:016x}\"", check::digest(g.reference.as_deref().unwrap_or(&[]))),
    );
    out.field("reference", reference.json(&last));
    if let Some(table) = fig8 {
        checks.op(table.and_then(|t| check::same_as_figure8(&last, &t)));
        out.field("figure8_checked", "true".into());
    }
    out.checks = checks;
    Ok(out)
}

/// The reference leg's full-detail run.
pub struct Reference {
    full: SimStats,
    secs: f64,
}

impl Reference {
    /// The report field: the full run, the grid's sampled estimate of
    /// the same cell and its error, and the detailed-simulation rate.
    pub fn json(&self, runs: &[CellRun]) -> String {
        let full = &self.full;
        let sampled =
            runs.iter().find(|r| r.cell == REFERENCE_CELL).map_or(f64::NAN, |r| r.estimate.ipc);
        let err = (sampled - full.ipc()).abs() / full.ipc();
        format!(
            "{{\"cell\": \"stream/8\", \"insts\": {}, \"cycles\": {}, \"full_ipc\": {}, \
             \"sampled_ipc\": {sampled}, \"sampled_ipc_err\": {err}, \"wall_s\": {}, \
             \"detail_mips\": {}, \"digest\": \"{:016x}\"}}",
            full.committed,
            full.cycles,
            full.ipc(),
            self.secs,
            full.committed as f64 / self.secs / 1e6,
            check::digest(&[check::stats_line(full)])
        )
    }
}

/// The grid cell the reference leg runs in full detail.
const REFERENCE_CELL: GridCell = GridCell { engine: EngineKind::Stream, width: 8 };

/// The reference leg: one full-detail run of the stream/8 cell under the
/// identical cell configuration, over the grid's horizon.
pub fn reference_leg(cfg: &RunConfig, w: &Workload, checks: &mut Checks) -> Reference {
    let sc = &cfg.scale;
    let cell = REFERENCE_CELL;
    let pcfg = cell_config(cell, &grid_opts(sc));
    let img = w.image(LayoutChoice::Optimized);
    let (full, secs) =
        timed(|| run_full_detailed(img, cell.engine, pcfg, w.ref_seed(), 0, sc.grid_total));
    checks.op(check::detailed_stats("reference stream/8", &full));
    Reference { full, secs }
}

/// Runs `figure8_sampled` on the same grid and returns the table it
/// prints.
fn figure8_table(cfg: &RunConfig, bin: &Path) -> Result<String, String> {
    let sc = &cfg.scale;
    let dir = cfg.work_dir.join("figure8");
    std::fs::create_dir_all(&dir).map_err(|e| format!("figure8 dir: {e}"))?;
    let out = std::process::Command::new(bin)
        .args(["--grid-total", &sc.grid_total.to_string()])
        .args(["--grid-sample", &sc.grid_sample.to_spec()])
        .args(["--batch", "12", "--jobs", "1", "--warm-bank"])
        .arg("--store")
        .arg(dir.join("store"))
        .env("TMPDIR", &dir)
        .stderr(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("run {}: {e}", bin.display()))?;
    let _ = std::fs::remove_dir_all(&dir);
    if !out.status.success() {
        return Err(format!("figure8_sampled exited with {}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// A resident daemon running on a thread of this process.
pub struct ServeHandle {
    /// Socket path.
    pub socket: PathBuf,
    /// Store directory.
    pub store_dir: PathBuf,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<Result<(), String>>>,
}

impl ServeHandle {
    /// Starts a daemon over a fresh store under `dir` and waits until it
    /// answers `ping`.
    ///
    /// # Errors
    ///
    /// A daemon that fails to start or stays silent for 30 s.
    pub fn start(dir: &Path, procs: usize) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("daemon dir: {e}"))?;
        let socket = dir.join("s.sock");
        let store_dir = dir.join("store");
        let stop = Arc::new(AtomicBool::new(false));
        let cfg = DaemonConfig {
            socket: socket.clone(),
            store_dir: store_dir.clone(),
            procs,
            max_retries: 2,
            store_cap_bytes: None,
        };
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || Daemon::new(cfg).run(&flag));
        let mut h = ServeHandle { socket, store_dir, stop, thread: Some(thread) };
        let t0 = Instant::now();
        while !h.ping() {
            if h.thread.as_ref().is_some_and(|t| t.is_finished()) || t0.elapsed().as_secs() > 30 {
                let err = h.shutdown().err().unwrap_or_else(|| "daemon did not answer ping".into());
                return Err(err);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(h)
    }

    fn ping(&self) -> bool {
        use std::io::{BufRead, BufReader, Write};
        let Ok(mut s) = std::os::unix::net::UnixStream::connect(&self.socket) else { return false };
        if s.write_all(b"{\"op\":\"ping\"}\n").is_err() {
            return false;
        }
        let mut line = String::new();
        BufReader::new(s).read_line(&mut line).is_ok()
            && matches!(ServeEvent::parse(&line), Ok(ServeEvent::Pong))
    }

    /// Stops the daemon and waits for it to drain.
    ///
    /// # Errors
    ///
    /// The daemon's own error, or a panicked daemon thread.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        match self.thread.take() {
            Some(t) => t.join().map_err(|_| "daemon thread panicked".to_owned())?,
            None => Ok(()),
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// The request line of a planned request.
pub fn serve_request(sc: &Scale, r: &PlannedRequest) -> GridRequest {
    let scfg = SampleConfig { interval: r.interval, ..sc.serve_sample };
    let mut engines: Vec<EngineKind> = Vec::new();
    let mut widths: Vec<usize> = Vec::new();
    for c in &r.cells {
        if !engines.contains(&c.engine) {
            engines.push(c.engine);
        }
        if !widths.contains(&c.width) {
            widths.push(c.width);
        }
    }
    let opts = HarnessOpts {
        jobs: 1,
        batch: 12,
        warm_bank: true,
        grid_total: r.total,
        grid_sample: scfg,
        ..HarnessOpts::default()
    };
    GridRequest { bench: "phased".into(), engines, widths, total: r.total, scfg, opts }
}

/// One served request's outcome.
#[derive(Debug, Clone)]
pub struct Served {
    /// The planned request.
    pub plan: PlannedRequest,
    /// Seconds from submit to the `accepted` event.
    pub accept_s: f64,
    /// Seconds from `accepted` to `final`.
    pub compute_s: f64,
    /// Seconds spent merging the streamed points.
    pub merge_s: f64,
    /// Seconds from submit to merged result.
    pub total_s: f64,
    /// `total_s` in reference seconds (see [`HostClock`]).
    pub ref_s: f64,
    /// Merged point lines of the requested cells (empty on error).
    pub lines: Vec<String>,
    /// Daemon counters: computed, resumed, shared cells.
    pub counts: (u64, u64, u64),
    /// Error text, if the request failed.
    pub error: Option<String>,
}

/// Submits one planned request and merges its stream; a `traced`
/// request also timestamps its `accepted` event to split the stages. A request grid only contains the cells it asked for, so the
/// merge runs over exactly those cells.
pub fn serve_one(
    h: &ServeHandle,
    sc: &Scale,
    id: &str,
    r: &PlannedRequest,
    traced: bool,
) -> Served {
    let req = serve_request(sc, r);
    let t0 = Instant::now();
    let mut accepted = None;
    let res = submit_and_collect(&h.socket, id, &req, |line| {
        if traced && accepted.is_none() && line.contains("\"accepted\"") {
            accepted = Some(t0.elapsed().as_secs_f64());
        }
    });
    let final_s = t0.elapsed().as_secs_f64();
    let mut s = Served {
        plan: r.clone(),
        accept_s: accepted.unwrap_or(final_s),
        compute_s: final_s - accepted.unwrap_or(final_s),
        merge_s: 0.0,
        total_s: final_s,
        ref_s: f64::NAN,
        lines: Vec::new(),
        counts: (0, 0, 0),
        error: None,
    };
    match res {
        Err(e) => s.error = Some(e),
        Ok(o) => {
            s.counts = (o.computed, o.resumed, o.shared);
            let t1 = Instant::now();
            let merged = merge_grid(&r.cells, req.windows(), &o.points, req.scfg.confidence);
            s.merge_s = t1.elapsed().as_secs_f64();
            s.total_s = t0.elapsed().as_secs_f64();
            match merged {
                Ok(runs) if o.status == "complete" => s.lines = check::grid_lines(&runs),
                Ok(_) => s.error = Some(format!("status {}", o.status)),
                Err(e) => s.error = Some(format!("merge: {e}")),
            }
        }
    }
    s
}

/// Local oracle: `run_sampled_grid` of one family's cells on a local
/// store, as merged lines. Banking is a host-time knob (output is
/// bit-identical either way), so the oracle skips the bank writes.
pub fn serve_oracle(
    w: &Workload,
    sc: &Scale,
    r: &PlannedRequest,
    store: &CheckpointStore,
) -> Vec<String> {
    let req = serve_request(sc, r);
    let opts = HarnessOpts { warm_bank: false, ..req.opts };
    let runs = run_sampled_grid(w, &r.cells, req.scfg, req.total, &opts, store).0;
    check::grid_lines(&runs)
}

/// The `serve_mix` set-up: the workload the output checks run locally,
/// and a daemon over a fresh store, answering `ping`.
fn serve_setup(cfg: &RunConfig, n: &mut usize) -> Result<(Workload, ServeHandle), String> {
    *n += 1;
    let w = inputs::phased_workload(DEFAULT_SEED);
    let h = ServeHandle::start(&cfg.work_dir.join(format!("daemon-{n}")), cfg.scale.serve_procs)?;
    Ok((w, h))
}

/// Stops a daemon and deletes its directory.
fn discard(h: ServeHandle) {
    let dir = h.socket.parent().map(Path::to_path_buf);
    drop(h);
    if let Some(d) = dir {
        let _ = std::fs::remove_dir_all(d);
    }
}

fn serve_mix(cfg: &RunConfig, budget: &Budget) -> Result<Outcome, String> {
    let sc = &cfg.scale;
    let mut n = 0usize;
    let mut setups = Setups::default();
    let (w, mut h) = setups.repeat(sc.setups, || serve_setup(cfg, &mut n))?;
    let mut out = Outcome::default();
    let mut checks = Checks::default();
    let layers = cfg.trace.then(|| crate::layers::probes(cfg, &[&w], &mut checks));
    let all = fig8_cells();
    // Every request is checked against a local run of the same cells,
    // between blocks (the client is idle then, and so is the daemon).
    let oracle_store = CheckpointStore::open(cfg.work_dir.join("oracle"))
        .map_err(|e| format!("open oracle store: {e}"))?
        .with_warm_cache_bytes(0);
    let mut oracle: std::collections::BTreeMap<(u64, u64), Vec<String>> = Default::default();
    let mut served: Vec<Served> = Vec::new();
    let mut traced_flags = Vec::new();
    let mut blocks = Ops::default();
    let mut rounds = Vec::new();
    let mut first_blocks = Vec::new();
    let min_blocks = sc.serve_min_blocks as usize;
    while budget.fits(blocks.len(), min_blocks, &rounds) {
        let t0 = Instant::now();
        let b = blocks.len() as u64;
        if b > 0 {
            // Set-up times only: the resident daemon keeps serving.
            discard(setups.repeat(sc.setups, || serve_setup(cfg, &mut n))?.1);
        }
        let first = served.len();
        let mut block = (0.0, 0.0);
        for r in sc.serve.block(cfg.seed, b, &all) {
            let id = format!("r{}", served.len());
            let traced = cfg.trace && b % 2 == 1;
            let (mut s, _, ref_s) = blocks.clock.time(|| serve_one(&h, sc, &id, &r, traced));
            s.ref_s = ref_s;
            block = add(block, s.total_s, ref_s);
            served.push(s);
            traced_flags.push(traced);
        }
        blocks.push(block);
        for (i, s) in served.iter().enumerate().skip(first) {
            let key = (s.plan.interval, s.plan.total / s.plan.interval);
            let want =
                oracle.entry(key).or_insert_with(|| serve_oracle(&w, sc, &s.plan, &oracle_store));
            let want: Vec<String> = want
                .iter()
                .filter(|l| s.plan.cells.iter().any(|c| l.contains(&cell_tag(*c))))
                .cloned()
                .collect();
            let mut got = s.lines.clone();
            if i == 0 && cfg.perturb == Some(Perturb::PointLine) && !got.is_empty() {
                got[0].push(' ');
            }
            checks.op(match &s.error {
                Some(e) => Err(format!("request r{i}: {e}")),
                None => check::same_lines(&format!("request r{i}"), &want, &got),
            });
            if i < min_blocks * sc.serve.block_len() {
                first_blocks.extend(got);
            }
        }
        rounds.push(t0.elapsed().as_secs_f64());
    }
    if !cfg.trace {
        e2e(&mut out, &setups, &blocks);
    }
    h.shutdown()?;

    let cells_of = |k: ReqKind| {
        served.iter().filter(|s| s.plan.kind == k).map(|s| s.plan.cells.len() as u64).sum::<u64>()
    };
    let requested: u64 = served.iter().map(|s| s.plan.cells.len() as u64).sum();
    let by_kind = |k: ReqKind| {
        let v: Vec<f64> = served.iter().filter(|s| s.plan.kind == k).map(|s| s.ref_s).collect();
        if v.is_empty() {
            "null".to_owned()
        } else {
            Summary::of(&v).json()
        }
    };
    // The daemon computes a banked request's cells whether or not their
    // warm state is found in the bank, so these counters cannot tell a
    // bank hit from a miss; only the latency by kind can.
    let kind_mismatch = served
        .iter()
        .filter(|s| {
            let k = s.plan.cells.len() as u64;
            match s.plan.kind {
                ReqKind::Computed | ReqKind::Banked => s.counts.0 != k,
                ReqKind::Resumed => s.counts.1 != k,
            }
        })
        .count();
    out.field("requests", served.len().to_string());
    let totals: Vec<f64> = served.iter().map(|s| s.ref_s).collect();
    out.field("request_s", Summary::of(&totals).json());
    out.field("blocks", blocks.len().to_string());
    out.field(
        "cell_shares",
        format!(
            "{{\"computed\": {}, \"banked\": {}, \"resumed\": {}}}",
            cells_of(ReqKind::Computed) as f64 / requested as f64,
            cells_of(ReqKind::Banked) as f64 / requested as f64,
            cells_of(ReqKind::Resumed) as f64 / requested as f64
        ),
    );
    out.field(
        "latency_by_kind_s",
        format!(
            "{{\"computed\": {}, \"banked\": {}, \"resumed\": {}}}",
            by_kind(ReqKind::Computed),
            by_kind(ReqKind::Banked),
            by_kind(ReqKind::Resumed)
        ),
    );
    out.field("kind_mismatch", kind_mismatch.to_string());
    out.field("digest", format!("\"{:016x}\"", check::digest(&first_blocks)));
    if let Some(l) = layers {
        let setup = setups.wall_summary();
        crate::layers::trace_serve(
            cfg,
            l,
            &setup,
            &served,
            &traced_flags,
            &h.store_dir,
            &mut checks,
            &mut out,
        );
    }
    out.checks = checks;
    Ok(out)
}

/// The `"engine": "…", "width": N` fragment of a cell's point lines.
pub fn cell_tag(c: GridCell) -> String {
    format!("\"engine\": \"{}\", \"width\": {},", engine_key(c.engine), c.width)
}
