//! The benchmark's command-line entry point.
//!
//! ```text
//! perfbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--expect-digest HEX]
//! ```
//!
//! A run takes about `--seconds` (default 30, the `run_seconds` of
//! `BENCHMARK.json`) from start to result, set-up and output checks
//! included. It prints a `report` line, then as its last line the result
//! object (`correct`, `attempted`, `failed`, `metrics`). With
//! `--expect-digest` a run whose simulated-output digest differs counts
//! one failed operation. The run-to-run spread over many seeds is
//! `run.py spread`'s job.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::inputs::DEFAULT_SEED;
use perfbench::workloads::{run, RunConfig, Scale};

/// The registered run length (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 30.0;

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0.iter().position(|a| a == flag).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag} needs a number, got {v:?}")),
        }
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    match bench(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &Args) -> Result<ExitCode, String> {
    let workload = args.value("--workload").ok_or("--workload is required")?.to_owned();
    let seed = args.num("--seed", DEFAULT_SEED)?;
    let seconds: f64 = args.num("--seconds", DEFAULT_SECONDS)?;
    let trace = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let fig8_bin = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("figure8_sampled")))
        .filter(|p| p.exists());
    let cfg = RunConfig {
        work_dir: PathBuf::from(".bench_work").join(format!("{}-{}", workload, std::process::id())),
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::full(),
        fig8_bin,
        perturb: None,
        expect_digest: args.value("--expect-digest").map(str::to_owned),
    };
    let out = run(&cfg)?;
    for r in out.checks.reasons.iter().take(5) {
        eprintln!("perfbench: check failed: {r}");
    }
    println!("{}", perfbench::report_line(&cfg.workload, seed, trace, &out));
    println!("{}", perfbench::result_line(&out));
    Ok(ExitCode::SUCCESS)
}
