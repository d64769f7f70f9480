//! Output checks: every operation a workload attempts is checked, and a
//! failed check counts toward the run's `failed` (its fail rate is
//! `failed / attempted`).

use sfetch_bench::grid::{point_line, CellRun};
use sfetch_core::SimStats;
use sfetch_fleet::fnv64;

/// Attempted and failed operations of one run, with the reasons.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub reasons: Vec<String>,
}

impl Checks {
    /// Records one operation: `Err(reason)` marks it failed.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.reasons.push(why);
        }
    }

    /// Share of attempted operations that failed.
    pub fn fail_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The checks every detailed simulation must pass: the cycle buckets
/// partition the cycles exactly and the forward-progress watchdog never
/// fired.
///
/// # Errors
///
/// The first violated property.
pub fn detailed_stats(what: &str, s: &SimStats) -> Result<(), String> {
    if s.buckets.sum() != s.cycles {
        return Err(format!("{what}: buckets sum {} != cycles {}", s.buckets.sum(), s.cycles));
    }
    if s.watchdog_resyncs > 0 {
        return Err(format!("{what}: {} watchdog resyncs", s.watchdog_resyncs));
    }
    if s.committed == 0 || s.cycles == 0 {
        return Err(format!("{what}: nothing simulated"));
    }
    Ok(())
}

/// Every simulated statistic of a run, as one canonical line.
pub fn stats_line(s: &SimStats) -> String {
    format!("{s:?}")
}

/// The merged point lines of a grid, in cell and window order — the
/// shard-file lines every grid path (local, fleet, daemon) merges.
pub fn grid_lines(runs: &[CellRun]) -> Vec<String> {
    runs.iter().flat_map(|r| r.points.iter().map(move |p| point_line(r.cell, p))).collect()
}

/// Compares a grid's merged lines with the reference lines.
///
/// # Errors
///
/// The first differing line (or a count mismatch).
pub fn same_lines(what: &str, want: &[String], got: &[String]) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!("{what}: {} lines, expected {}", got.len(), want.len()));
    }
    match want.iter().zip(got).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!("{what}: line {i} differs: {} vs {}", got[i], want[i])),
    }
}

/// Order-sensitive digest of output lines.
pub fn digest<S: AsRef<str>>(lines: &[S]) -> u64 {
    let mut text = String::new();
    for l in lines {
        text.push_str(l.as_ref());
        text.push('\n');
    }
    fnv64(text.as_bytes())
}

/// The grid-estimate table exactly as `sfetch_bench::grid::print_grid_table`
/// prints it (`figure8_sampled`'s stdout), one string per line.
pub fn grid_table(runs: &[CellRun]) -> Vec<String> {
    let mut out = vec![format!(
        "{:<18} {:>6} {:>8} {:>9} {:>9} {:>9} {:>8}",
        "engine", "width", "windows", "IPC", "ci lo", "ci hi", "±rel"
    )];
    for r in runs {
        out.push(format!(
            "{:<18} {:>6} {:>8} {:>9.4} {:>9.4} {:>9.4} {:>7.2}%",
            r.cell.engine.to_string(),
            r.cell.width,
            r.estimate.windows,
            r.estimate.ipc,
            r.estimate.ipc_lo,
            r.estimate.ipc_hi,
            100.0 * r.estimate.rel_half_width
        ));
    }
    out
}

/// Compares [`grid_table`] with the table block in a `figure8_sampled`
/// stdout.
///
/// # Errors
///
/// A missing table or the first differing line.
pub fn same_as_figure8(runs: &[CellRun], fig8_stdout: &str) -> Result<(), String> {
    let want = grid_table(runs);
    let lines: Vec<&str> = fig8_stdout.lines().collect();
    let Some(at) = lines.iter().position(|l| *l == want[0]) else {
        return Err("figure8_sampled printed no grid table".into());
    };
    let got: Vec<String> = lines[at..].iter().take(want.len()).map(|l| (*l).to_owned()).collect();
    same_lines("figure8_sampled table", &want, &got)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_differing_line_fails_the_op() {
        let mut c = Checks::default();
        let want = vec!["a".to_owned(), "b".to_owned()];
        c.op(same_lines("grid", &want, &want));
        c.op(same_lines("grid", &want, &["a".to_owned(), "c".to_owned()]));
        c.op(same_lines("grid", &want, &want[..1]));
        assert_eq!((c.attempted, c.failed), (3, 2));
        assert!((c.fail_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_ne!(digest(&want), digest(&["a", "c"]));
    }

    #[test]
    fn broken_bucket_accounting_fails() {
        let mut s = SimStats { committed: 10, cycles: 5, ..SimStats::default() };
        s.buckets.commit = 5;
        assert!(detailed_stats("p", &s).is_ok());
        s.buckets.backend = 1;
        assert!(detailed_stats("p", &s).is_err());
        s.buckets.backend = 0;
        s.watchdog_resyncs = 1;
        assert!(detailed_stats("p", &s).is_err());
    }
}
