//! Experiment harness for the INSANE reproduction.
//!
//! Every table and figure of the paper's evaluation (§6–7), and every
//! experiment that writes a `BENCH_*.json` record, is a suite of the one
//! `insane-bench <suite> [args]` binary (`main.rs`); each prints the
//! same rows or series the paper reports and writes a CSV or a
//! contract-checked BENCH document under `target/experiments/`.  The
//! experiments live in this library, one module each, next to the
//! function that builds their record.
//!
//! ## Measurement methodology (single-core host)
//!
//! This machine exposes **one CPU**, so nothing µs-scale can be measured
//! across busy-polling threads (the scheduler hands out ~ms quanta).  Two
//! techniques make the experiments exact anyway:
//!
//! * **Latency** — a ping-pong's critical path is serial by nature:
//!   client work → wire → server work → wire back.  The harness drives
//!   both endpoints (and their INSANE runtimes, in
//!   [`insane_core::ThreadingMode::Manual`]) inline on one thread, so the
//!   wall clock accumulates exactly the modeled device costs plus the
//!   *real* execution time of every middleware instruction.
//! * **Throughput** — the paper's sender/receiver run concurrently on
//!   different hosts, so goodput is the slowest pipeline stage.  The
//!   harness times the TX stage and the RX stage separately and reports
//!   `payload·n / max(T_tx, T_rx, T_wire)` ([`throughput`]); the wire
//!   stage is the link-serialization bound.
//!
//! Iteration counts default to a quick profile (hundreds of round trips,
//! tens of thousands of throughput messages — the paper uses 1 M);
//! set `INSANE_BENCH_FACTOR` (e.g. `10`) to scale them up.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod experiments;
pub mod export;
pub mod hotpath;
pub mod ipc_bench;
pub mod latency;
pub mod mixed_criticality;
pub mod mom_bench;
pub mod noisy_neighbor;
pub mod report;
pub mod setup;
pub mod shard_bench;
pub mod stats;
pub mod streaming_bench;
pub mod throughput;

/// Harness failure: any layer of the stack under measurement refused.
///
/// The harness functions return this instead of panicking (`insane-lint`
/// bans panic paths in the runtime crates, and the bench crate follows
/// the same discipline outside the Table 3 LoC-measured apps) so a
/// failed experiment reports *which* stage died instead of poisoning the
/// whole suite.
#[derive(Debug)]
pub enum BenchError {
    /// An INSANE middleware call failed.
    Insane(insane_core::InsaneError),
    /// A raw fabric/device call failed.
    Fabric(insane_fabric::FabricError),
    /// A Demikernel call failed.
    Demi(insane_demikernel::DemiError),
    /// A Lunar application-framework call failed.
    Lunar(lunar::LunarError),
    /// Report/export I/O failed.
    Io(std::io::Error),
    /// Anything else (setup invariants, unexpected event shapes).
    Other(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Insane(e) => write!(f, "insane: {e}"),
            BenchError::Fabric(e) => write!(f, "fabric: {e}"),
            BenchError::Demi(e) => write!(f, "demikernel: {e}"),
            BenchError::Lunar(e) => write!(f, "lunar: {e}"),
            BenchError::Io(e) => write!(f, "io: {e}"),
            BenchError::Other(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<insane_core::InsaneError> for BenchError {
    fn from(e: insane_core::InsaneError) -> Self {
        BenchError::Insane(e)
    }
}

impl From<insane_fabric::FabricError> for BenchError {
    fn from(e: insane_fabric::FabricError) -> Self {
        BenchError::Fabric(e)
    }
}

impl From<insane_demikernel::DemiError> for BenchError {
    fn from(e: insane_demikernel::DemiError) -> Self {
        BenchError::Demi(e)
    }
}

impl From<lunar::LunarError> for BenchError {
    fn from(e: lunar::LunarError) -> Self {
        BenchError::Lunar(e)
    }
}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError::Io(e)
    }
}

/// Scale factor for iteration counts (`INSANE_BENCH_FACTOR`, default 1).
pub fn bench_factor() -> f64 {
    std::env::var("INSANE_BENCH_FACTOR")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|f: &f64| *f > 0.0)
        .unwrap_or(1.0)
}

/// Scales a base iteration count by [`bench_factor`] (min 1).
pub fn iters(base: usize) -> usize {
    ((base as f64 * bench_factor()) as usize).max(1)
}
