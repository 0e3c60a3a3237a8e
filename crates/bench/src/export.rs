//! BENCH JSON export.
//!
//! The experiment tables print for humans; the BENCH files are the
//! machine-readable record: schema-tagged JSON documents written next
//! to the CSVs under `target/experiments/`.  What each file holds and
//! which gates it must pass is [`insane_telemetry::schema::BENCH_FILES`];
//! [`write`] holds a document to that contract before it reaches the
//! disk, `insanectl check-bench` and the CI bench-smoke job after.
//! Each record's rows are built by the module that measures them.

use std::fs;

use insane_fabric::TestbedProfile;
use insane_telemetry::schema::{self, BenchSpec};
use insane_telemetry::Value;

use crate::latency::{self, rtt_series, System};
use crate::report::experiments_dir;
use crate::throughput::{self, goodput_gbps, TputSystem};
use crate::{iters, BenchError};

fn document(spec: &BenchSpec, rows: Vec<Value>) -> Value {
    Value::object([
        ("schema", spec.schema.into()),
        ("factor", crate::bench_factor().into()),
        ("entries", Value::Array(rows)),
    ])
}

/// Writes `rows` as the BENCH document `file`.
///
/// The document is validated first, so a violated gate (an isolation
/// bound, a leaked slot, an empty series) fails the bench run itself
/// instead of producing a file CI would reject later.
///
/// # Errors
///
/// Fails if `file` is not in the contract table, on any schema or gate
/// violation, or on I/O errors.
pub fn write(file: &str, rows: Vec<Value>) -> Result<(), BenchError> {
    let spec = schema::spec(file)
        .ok_or_else(|| BenchError::Other(format!("{file}: no BENCH contract")))?;
    let doc = document(spec, rows);
    schema::validate(spec, &doc).map_err(|e| BenchError::Other(format!("{file}: {e}")))?;
    let dir = experiments_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(file);
    fs::write(&path, format!("{doc}\n"))?;
    println!("[bench] {}", path.display());
    Ok(())
}

/// The `export` suite: measures a representative latency/throughput
/// subset and writes `BENCH_latency.json` / `BENCH_throughput.json`.
///
/// # Errors
///
/// Propagates measurement and export failures.
pub fn suite(profile: &TestbedProfile) -> Result<(), BenchError> {
    let n = iters(300);
    let warmup = iters(30);
    let mut rows = Vec::new();
    for system in [
        System::UdpNonBlocking,
        System::InsaneSlow,
        System::InsaneFast,
        System::RawDpdk,
    ] {
        for payload in [64usize, 1024] {
            let series = rtt_series(system, profile, payload, n, warmup)?;
            rows.push(latency::row(system.label(), profile.name, payload, &series));
        }
    }
    write("BENCH_latency.json", rows)?;

    let msgs = iters(6_000);
    let mut rows = Vec::new();
    for system in [
        TputSystem::KernelUdp,
        TputSystem::InsaneSlow,
        TputSystem::InsaneFast,
        TputSystem::RawDpdk,
    ] {
        for payload in [1024usize, 8192] {
            let gbps = goodput_gbps(system, profile, payload, msgs)?;
            rows.push(throughput::row(
                system.label(),
                profile.name,
                payload,
                msgs,
                gbps,
            ));
        }
    }
    write("BENCH_throughput.json", rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Series;

    fn latency_doc(series: &Series) -> (&'static BenchSpec, Value) {
        let spec = schema::spec("BENCH_latency.json").unwrap();
        let row = latency::row("test", "Local", 64, series);
        (spec, document(spec, vec![row]))
    }

    #[test]
    fn latency_row_serializes_the_full_quantile_ladder() {
        let (spec, doc) = latency_doc(&Series::from_samples((1..=1000).collect()));
        schema::validate(spec, &doc).unwrap();
        let back = Value::parse(&doc.to_string()).unwrap();
        schema::validate(spec, &back).unwrap();
        let e = &back.get("entries").unwrap().as_array().unwrap()[0];
        assert_eq!(e.get("samples").unwrap().as_u64(), Some(1000));
        // Nearest-rank p99.9 over 1..=1000: rank 998 → sample 999.
        assert_eq!(e.get("p999_ns").unwrap().as_u64(), Some(999));
    }

    #[test]
    fn empty_series_fails_validation_instead_of_exporting() {
        let (spec, doc) = latency_doc(&Series::new());
        assert!(schema::validate(spec, &doc).is_err());
    }

    #[test]
    fn throughput_round_trips_through_the_parser() {
        let spec = schema::spec("BENCH_throughput.json").unwrap();
        let row = throughput::row("INSANE fast", "Local", 1024, 6000, 12.25);
        let doc = document(spec, vec![row]);
        schema::validate(spec, &doc).unwrap();
        let back = Value::parse(&doc.to_string()).unwrap();
        schema::validate(spec, &back).unwrap();
        let e = &back.get("entries").unwrap().as_array().unwrap()[0];
        assert_eq!(e.get("goodput_gbps").unwrap().as_f64(), Some(12.25));
    }

    #[test]
    fn a_file_outside_the_contract_is_refused() {
        assert!(write("BENCH_unheard_of.json", Vec::new()).is_err());
    }
}
