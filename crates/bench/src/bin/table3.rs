//! Table 3 reproduction: branch misprediction rate and fetch IPC for the
//! 8-wide processor, base and optimized codes (suite means).
//!
//! ```text
//! cargo run --release -p sfetch-bench --bin table3 [-- --inst N --warmup N]
//! ```

use sfetch_bench::{hmean_ipc, mean_metric, run_grid, HarnessOpts};
use sfetch_fetch::EngineKind;
use sfetch_workloads::{LayoutChoice, Suite};

fn main() {
    let opts = HarnessOpts::from_args();
    eprintln!("generating suite…");
    let suite = Suite::build_all();
    let points = run_grid(
        &suite,
        &[8],
        &[LayoutChoice::Base, LayoutChoice::Optimized],
        &EngineKind::ALL,
        opts,
    );

    println!("\nTable 3: 8-wide processor (suite means)");
    println!(
        "{:<18} | {:>8} {:>7} {:>6} | {:>8} {:>7} {:>6}",
        "", "base", "", "", "optimized", "", ""
    );
    println!(
        "{:<18} | {:>8} {:>7} {:>6} | {:>8} {:>7} {:>6}",
        "engine", "Mispred.", "Fetch", "IPC", "Mispred.", "Fetch", "IPC"
    );
    for kind in EngineKind::ALL {
        let m = |l: LayoutChoice, f: &dyn Fn(&sfetch_core::SimStats) -> f64| {
            mean_metric(&points, kind, l, 8, f)
        };
        let mp = |s: &sfetch_core::SimStats| s.mispred_rate() * 100.0;
        let fw = |s: &sfetch_core::SimStats| s.fetch_ipc();
        println!(
            "{:<18} | {:>7.2}% {:>7.2} {:>6.2} | {:>7.2}% {:>7.2} {:>6.2}",
            kind.to_string(),
            m(LayoutChoice::Base, &mp),
            m(LayoutChoice::Base, &fw),
            hmean_ipc(&points, kind, LayoutChoice::Base, 8),
            m(LayoutChoice::Optimized, &mp),
            m(LayoutChoice::Optimized, &fw),
            hmean_ipc(&points, kind, LayoutChoice::Optimized, 8),
        );
    }

    println!("\nsupplementary (suite means, optimized):");
    println!(
        "{:<18} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "engine", "mp-cond", "mp-ret", "mp-ind", "misfetch", "unit", "L1I-mr"
    );
    for kind in EngineKind::ALL {
        let m = |f: &dyn Fn(&sfetch_core::SimStats) -> f64| {
            mean_metric(&points, kind, LayoutChoice::Optimized, 8, f)
        };
        println!(
            "{:<18} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>9.1} {:>7.2}%",
            kind.to_string(),
            m(&|s| s.mispred_cond as f64),
            m(&|s| s.mispred_return as f64),
            m(&|s| s.mispred_indirect as f64),
            m(&|s| s.misfetches as f64),
            m(&|s| s.engine.mean_unit_len()),
            m(&|s| s.l1i.miss_rate() * 100.0),
        );
    }
}
