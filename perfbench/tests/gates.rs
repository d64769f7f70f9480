//! The benchmark's own gates: a shrunken pass of every workload, proof
//! that corrupted output is counted as failed, and that the default-seed
//! grid is the one `figure8_sampled` prints. (That the run-to-run
//! stability check can fail is tested beside it, in `test_spread.py`.) (Every grid leg is checked against the
//! campaign's first cold leg, so a shrunken pass with no failures also
//! shows that the cold, warm and banked legs agree.)

use std::path::PathBuf;

use perfbench::check;
use perfbench::inputs::{DEFAULT_SEED, HELD_OUT_SEED};
use perfbench::layers::PER_LAYER;
use perfbench::workloads::{run, Outcome, Perturb, RunConfig, Scale, WORKLOADS};

const E2E: [&str; 3] = ["setup_s", "op_p50_s", "peak_rss_mb"];

fn cfg(workload: &str, tag: &str) -> RunConfig {
    RunConfig {
        workload: workload.to_owned(),
        seed: DEFAULT_SEED,
        seconds: 0.3,
        trace: false,
        scale: Scale::tiny(),
        work_dir: PathBuf::from(".bench_work").join(format!("test-{tag}-{workload}")),
        fig8_bin: None,
        perturb: None,
        expect_digest: None,
    }
}

fn digest(out: &Outcome) -> String {
    out.report_field("digest").expect("digest field").to_owned()
}

#[test]
fn shrunken_pass_of_every_workload() {
    for w in WORKLOADS {
        let out = run(&cfg(w, "pass")).expect("run");
        assert!(out.checks.attempted > 0, "{w}: nothing checked");
        assert_eq!(out.checks.failed, 0, "{w}: {:?}", out.checks.reasons);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, E2E, "{w}: every end-to-end metric, in order");
        for m in &out.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{w}: {} = {}", m.name, m.value);
        }
        let line = perfbench::result_line(&out);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
        assert!(line.contains(", \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": "));
    }
}

#[test]
fn traced_pass_reports_every_per_layer_metric() {
    for w in WORKLOADS {
        let mut c = cfg(w, "trace");
        c.trace = true;
        let out = run(&c).expect("traced run");
        assert_eq!(out.checks.failed, 0, "{w}: {:?}", out.checks.reasons);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{w}");
        for m in &out.metrics {
            assert!(m.value.is_finite(), "{w}: {} not measured", m.name);
        }
        let sources = out.report_field("layer_sources").expect("sources");
        assert!(!sources.contains("missing"), "{w}: {sources}");
        if w == "phased_grid" {
            // Cold and warm legs miss the bank, the banked leg hits it.
            let bank = out.metrics.iter().find(|m| m.name == "store.bank_hit_ratio").expect("bank");
            assert!((bank.value - 1.0 / 3.0).abs() < 1e-9, "bank hit ratio {}", bank.value);
        }
        if w == "serve_mix" {
            // Not visible to a client: the probe's resubmitted grid hits
            // every checkpoint and bank entry.
            assert!(sources.contains("\"store.bank_hit_ratio\": \"probe\""), "{sources}");
            for name in ["store.hit_ratio", "store.bank_hit_ratio"] {
                let m = out.metrics.iter().find(|m| m.name == name).expect(name);
                assert_eq!(m.value, 1.0, "{name}");
            }
        }
    }
}

#[test]
fn a_perturbed_point_line_is_a_failed_op() {
    for w in ["phased_grid", "serve_mix"] {
        let mut c = cfg(w, "perturb");
        c.perturb = Some(Perturb::PointLine);
        let out = run(&c).expect("run");
        assert!(out.checks.failed >= 1, "{w}: the altered line went unnoticed");
        assert!(perfbench::result_line(&out).contains("\"correct\": false"));
    }
    let mut c = cfg("suite_detail", "perturb");
    c.perturb = Some(Perturb::SuiteStats);
    let out = run(&c).expect("run");
    assert!(out.checks.failed >= 1, "the altered statistics went unnoticed");
}

#[test]
fn an_altered_digest_is_a_failed_op() {
    let base = run(&cfg("suite_detail", "digest-a")).expect("run");
    let d = digest(&base).trim_matches('"').to_owned();
    let mut same = cfg("suite_detail", "digest-b");
    same.expect_digest = Some(d.clone());
    assert_eq!(run(&same).expect("run").checks.failed, 0);
    let mut altered = cfg("suite_detail", "digest-c");
    let mut flipped = d.into_bytes();
    flipped[0] = if flipped[0] == b'0' { b'1' } else { b'0' };
    altered.expect_digest = Some(String::from_utf8(flipped).expect("hex"));
    assert_eq!(run(&altered).expect("run").checks.failed, 1);
}

#[test]
fn the_seed_changes_the_input() {
    let base = run(&cfg("phased_grid", "seed-a")).expect("run");
    let mut other = cfg("phased_grid", "seed-b");
    other.seed = HELD_OUT_SEED;
    let held_out = run(&other).expect("run");
    assert_eq!(held_out.checks.failed, 0, "{:?}", held_out.checks.reasons);
    assert_ne!(digest(&held_out), digest(&base));
}

#[test]
fn default_seed_grid_is_what_figure8_sampled_prints() {
    let mut c = cfg("phased_grid", "fig8");
    c.fig8_bin = Some(PathBuf::from(env!("CARGO_BIN_EXE_figure8_sampled")));
    let out = run(&c).expect("run");
    assert_eq!(out.report_field("figure8_checked"), Some("true"));
    assert_eq!(out.checks.failed, 0, "{:?}", out.checks.reasons);
    // And the comparison itself can fail.
    assert!(check::same_as_figure8(&[], "no table here").is_err());
}
