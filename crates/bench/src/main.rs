//! `insane-bench <suite> [args]` — the one driver of the experiment
//! harness: every table and figure of the paper's evaluation, and every
//! suite that writes a `BENCH_*.json` record, behind one `main`, one
//! error exit and one testbed profile.  Iteration counts honor
//! `INSANE_BENCH_FACTOR` throughout (CI runs 0.3).

use insane_bench::{
    experiments as e, export, hotpath, ipc_bench, mixed_criticality, noisy_neighbor, shard_bench,
    throughput, BenchError,
};
use insane_fabric::TestbedProfile;

type Experiment = fn() -> Result<(), BenchError>;

/// The paper's experiments by suite name, in the order `all` runs them.
const PAPER: &[(&str, Experiment)] = &[
    ("table1", e::table1),
    ("table2", e::table2),
    ("table3", e::table3),
    ("fig5", e::fig5),
    ("fig6", e::fig6),
    ("fig7", e::fig7),
    ("fig8", || e::fig8a().and_then(|()| e::fig8b())),
    ("fig9", || e::fig9a().and_then(|()| e::fig9b())),
    ("table4", e::table4),
    ("fig11", e::fig11),
    ("extra", e::extra_xdp_rdma),
    ("ablations", e::ablations),
];

fn run(args: &[String]) -> Result<(), BenchError> {
    let usage = || {
        let paper: Vec<&str> = PAPER.iter().map(|(name, _)| *name).collect();
        BenchError::Other(format!(
            "usage: insane-bench <suite> [args], with <suite> one of: all {} export \
             shard [--per-shard-pool] [SHARDS...] noisy-neighbor hotpath ipc \
             isolation [BURSTS...] stages",
            paper.join(" ")
        ))
    };
    let (suite, rest) = args.split_first().ok_or_else(usage)?;
    let profile = TestbedProfile::local();
    match suite.as_str() {
        "all" => PAPER.iter().try_for_each(|(_, experiment)| experiment()),
        "export" => export::suite(&profile),
        "shard" => shard_bench::suite(&profile, rest),
        "noisy-neighbor" => noisy_neighbor::suite(&profile),
        "hotpath" => hotpath::suite(&profile),
        "ipc" => ipc_bench::suite(&profile, rest),
        "isolation" => mixed_criticality::suite(&profile, rest),
        "stages" => throughput::suite(&profile),
        name => match PAPER.iter().find(|(paper, _)| *paper == name) {
            Some((_, experiment)) => experiment(),
            None => Err(usage()),
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("insane-bench: {e}");
        std::process::exit(1);
    }
}
