//! # sfetch-core
//!
//! The cycle-level superscalar processor simulator of the `stream-fetch`
//! reproduction — the timing model that turns the paper's four front-ends
//! into the IPC numbers of Figures 8–9 and Table 3.
//!
//! The methodology follows §4.1 of the paper:
//!
//! * **trace-driven correct path** — an architectural
//!   [`sfetch_trace::Executor`] supplies the committed instruction stream;
//! * **speculative front-end** — the selected [`sfetch_fetch::FetchEngine`]
//!   fetches its *own* predicted path through the
//!   [`sfetch_cfg::CodeImage`] (the static basic block dictionary), so
//!   wrong-path fetch pollutes and prefetches the I-cache and perturbs
//!   speculative predictor histories, which are repaired from per-branch
//!   checkpoints at recovery;
//! * **out-of-order back-end** — a ROB with issue/commit width equal to the
//!   pipe width, distance-coded register dependencies, execution latencies
//!   and a full L1D/L2/memory hierarchy; branches resolve at execute and
//!   misfetches at decode, so the misprediction penalty emerges from the
//!   16-stage pipeline of Table 2. Issue is driven by the event-driven
//!   [`scheduler::EventScheduler`] (completion wheel + ready queue), which
//!   touches each ROB entry O(1) times between dispatch and retire; the
//!   original per-cycle ROB scan survives behind
//!   [`ProcessorConfig::legacy_scan`] as a differential-testing oracle.
//!
//! The one-call entry point is [`sim::simulate`]:
//!
//! ```
//! use sfetch_cfg::{gen::{GenParams, ProgramGenerator}, layout, CodeImage};
//! use sfetch_core::{sim::simulate, ProcessorConfig};
//! use sfetch_fetch::EngineKind;
//!
//! let cfg = ProgramGenerator::new(GenParams::small(), 3).generate();
//! let image = CodeImage::build(&cfg, &layout::natural(&cfg));
//! let stats = simulate(
//!     &cfg, &image, EngineKind::Stream, ProcessorConfig::table2(4),
//!     /*seed*/ 7, /*warmup*/ 5_000, /*insts*/ 20_000,
//! );
//! assert!(stats.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod metrics;
pub mod obs;
pub mod processor;
mod rob;
pub mod scheduler;
pub mod sim;

pub use config::ProcessorConfig;
pub use metrics::{CycleBuckets, SimStats};
pub use obs::{NullObserver, Observer};
pub use processor::Processor;
pub use scheduler::EventScheduler;
pub use sfetch_fetch::FrontPipeline;
pub use sfetch_prefetch::{PrefetchConfig, PrefetchKind};
pub use sim::simulate;
