//! # sfetch-perfbench
//!
//! The repository benchmark: three workloads that drive the simulator's
//! top-level entry points — `sfetch_core::simulate` /
//! `sfetch_sample::run_full_detailed`, `sfetch_bench::grid::run_sampled_grid`,
//! `sfetch_bench::driver::submit_and_collect` against a resident
//! `sfetch-serve` daemon — check every output, and report end-to-end
//! metrics from untraced runs and per-layer metrics from traced runs.
//! See `README.md` beside this crate for the workloads, the metric map
//! and the measured spread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod host;
pub mod inputs;
pub mod layers;
pub mod stats;
pub mod workloads;

use workloads::Outcome;

/// Escapes `s` for a JSON string.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a metric value: full precision, `null` for a value that was
/// not measured.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.failed == 0 && out.checks.attempted > 0,
        out.checks.attempted.max(1),
        out.checks.failed,
        metrics.join(", ")
    )
}

/// The report line printed before the result: every report field, the
/// fail rate and the first failure reasons.
pub fn report_line(workload: &str, seed: u64, trace: bool, out: &Outcome) -> String {
    let mut fields = vec![
        format!("\"workload\": \"{workload}\""),
        format!("\"seed\": {seed}"),
        format!("\"trace\": {trace}"),
    ];
    fields.extend(out.report.iter().map(|(k, v)| format!("\"{k}\": {v}")));
    let reasons: Vec<String> =
        out.checks.reasons.iter().take(5).map(|r| format!("\"{}\"", esc(r))).collect();
    fields.push(format!("\"failures\": [{}]", reasons.join(", ")));
    format!("{{\"report\": {{{}}}}}", fields.join(", "))
}
