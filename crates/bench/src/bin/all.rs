//! Runs the paper's experiments in sequence (figures 8 and 9 with their
//! sampled twins, tables 1–3, the line-size/predictor/FTQ/STS
//! ablations) by re-invoking the sibling binaries, forwarding the
//! harness flags. Results go to stdout.
//!
//! ```text
//! cargo run --release -p sfetch-bench --bin all [-- --inst N --warmup N --jobs N]
//! ```

use std::process::Command;

fn main() {
    // Validate the flags before fanning out.
    let _ = sfetch_bench::HarnessOpts::from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let me = std::env::current_exe().expect("current exe path");
    let dir = me.parent().expect("target dir");
    for bin in [
        "table2",
        "figure8",
        "figure9",
        "figure8_sampled",
        "figure9_sampled",
        "table1",
        "table3",
        "ablation_linesize",
        "ablation_predictor",
        "ablation_ftq",
        "ablation_sts",
    ] {
        println!("\n===================== {bin} =====================");
        let status = Command::new(dir.join(bin))
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} failed");
    }
}
