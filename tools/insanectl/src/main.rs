//! `insanectl` — live introspection client for the INSANE runtime.
//!
//! Talks the one-line protocol of [`Runtime::serve_introspection`]
//! (a Unix-domain socket; request `stats` or `ping`, one JSON line
//! back) and validates the BENCH export files the bench harness
//! writes.  Subcommands:
//!
//! * `stats <socket>` — pretty-print the live runtime snapshot:
//!   per-stream latency quantiles and QoS-budget violations,
//!   per-datapath-shard counters and scheduler occupancy, pool
//!   occupancy, per-tenant quota/admission rollups, runtime counters.
//! * `raw <socket>` — dump the snapshot JSON verbatim.
//! * `ping <socket>` — liveness probe.
//! * `reload <socket> key=value ...` — hot-reload runtime tunables
//!   (e.g. `burst_max=64 idle_sleep_us=50`) through the snapshot-cell
//!   publication path: validated atomically, applied without restarting
//!   or pausing the polling shards (DESIGN.md §12).  The time-aware
//!   scheduler's timing-isolation knobs ride the same path:
//!   `tas_guard_band_ns=<ns>` re-arms the guard band preceding every
//!   gate-window edge and `tas_frame_tx_ns=<ns>` the per-frame
//!   transmission time the gates meter releases against (DESIGN.md
//!   §14); both are validated against the live gate cycle, and a
//!   rejected value leaves the running configuration untouched.
//! * `attach-probe <socket>` — probe an `insaned` control socket: sends
//!   the session protocol's `probe` request and checks the daemon
//!   answers with a compatible protocol version, without creating a
//!   session or mapping a segment.
//! * `check-bench <dir>` — validate every `BENCH_*.json` document of
//!   the contract table (`insane_telemetry::schema::BENCH_FILES`) found
//!   in `dir`, gates included; a missing required one is an error.
//!
//! Every socket-taking subcommand also accepts the flag form
//! `insanectl --socket <path> <cmd>`, which reads better in scripts
//! that template the socket path.
//!
//! The crate is a panic-free zone under `insane-lint`: every failure
//! path reports through [`CtlError`] and a nonzero exit code.

use std::io::{BufRead as _, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::Path;

use insane_telemetry::schema::{validate, BENCH_FILES};
use insane_telemetry::Value;

/// Any failure: usage, I/O, JSON, schema, or endpoint-reported.
#[derive(Debug)]
struct CtlError(String);

impl std::fmt::Display for CtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<std::io::Error> for CtlError {
    fn from(e: std::io::Error) -> Self {
        CtlError(format!("io: {e}"))
    }
}

impl From<insane_telemetry::json::ParseError> for CtlError {
    fn from(e: insane_telemetry::json::ParseError) -> Self {
        CtlError(format!("malformed JSON: {e}"))
    }
}

const USAGE: &str = "usage: insanectl <stats|raw|ping|attach-probe> <socket-path>\n\
       insanectl --socket <socket-path> <stats|raw|ping|attach-probe>\n\
       insanectl reload <socket-path> <key=value>...\n\
       insanectl check-bench <dir>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = dispatch(&args) {
        eprintln!("insanectl: {e}");
        std::process::exit(1);
    }
}

/// Rewrites the `--socket <path> <cmd> ...` flag form into the
/// positional `<cmd> <path> ...` form the matcher understands.
fn normalize(args: &[String]) -> Vec<String> {
    match args {
        [flag, path, cmd, rest @ ..] if flag == "--socket" => {
            let mut out = vec![cmd.clone(), path.clone()];
            out.extend(rest.iter().cloned());
            out
        }
        _ => args.to_vec(),
    }
}

fn dispatch(args: &[String]) -> Result<(), CtlError> {
    match &normalize(args)[..] {
        [cmd, path] if cmd == "stats" => stats(Path::new(path)),
        [cmd, path] if cmd == "raw" => raw(Path::new(path)),
        [cmd, path] if cmd == "ping" => ping(Path::new(path)),
        [cmd, path] if cmd == "attach-probe" => attach_probe(Path::new(path)),
        [cmd, dir] if cmd == "check-bench" => check_bench(Path::new(dir)),
        [cmd, path, pairs @ ..] if cmd == "reload" && !pairs.is_empty() => {
            reload(Path::new(path), pairs)
        }
        _ => Err(CtlError(USAGE.to_string())),
    }
}

/// One request/response exchange with the introspection endpoint.
fn query(socket: &Path, request: &str) -> Result<Value, CtlError> {
    let stream = UnixStream::connect(socket)
        .map_err(|e| CtlError(format!("connect {}: {e}", socket.display())))?;
    let mut writer = stream.try_clone()?;
    writeln!(writer, "{request}")?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    let doc = Value::parse(line.trim())?;
    if let Some(err) = doc.get("error").and_then(Value::as_str) {
        return Err(CtlError(format!("endpoint: {err}")));
    }
    Ok(doc)
}

fn ping(socket: &Path) -> Result<(), CtlError> {
    let doc = query(socket, "ping")?;
    if doc.get("ok").and_then(Value::as_bool) == Some(true) {
        println!("ok");
        Ok(())
    } else {
        Err(CtlError(format!("unexpected ping response: {doc}")))
    }
}

fn raw(socket: &Path) -> Result<(), CtlError> {
    println!("{}", query(socket, "stats")?);
    Ok(())
}

/// Probes an `insaned` control socket: one `probe` request on the
/// session protocol, no session created, no segment mapped.  Succeeds
/// only if the daemon is alive *and* speaks our protocol version.
fn attach_probe(socket: &Path) -> Result<(), CtlError> {
    let stream = UnixStream::connect(socket)
        .map_err(|e| CtlError(format!("connect {}: {e}", socket.display())))?;
    let mut writer = stream.try_clone()?;
    writeln!(writer, "probe")?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    let line = line.trim();
    let expected = format!("ok probe {}", insane_ipc::proto::PROTO_VERSION);
    if line == expected {
        println!(
            "ok: {} speaks {}",
            socket.display(),
            insane_ipc::proto::PROTO_VERSION
        );
        Ok(())
    } else {
        Err(CtlError(format!(
            "daemon answered {line:?}, expected {expected:?}"
        )))
    }
}

/// Sends a `reload key=value ...` request; the endpoint validates the
/// resulting tunables as one snapshot and rejects the whole batch on
/// any bad key, value, or inconsistency.
fn reload(socket: &Path, pairs: &[String]) -> Result<(), CtlError> {
    for p in pairs {
        if !p.contains('=') {
            return Err(CtlError(format!(
                "reload arguments must be key=value, got {p:?}"
            )));
        }
    }
    let doc = query(socket, &format!("reload {}", pairs.join(" ")))?;
    match doc.get("reloaded").and_then(Value::as_str) {
        Some(summary) if doc.get("ok").and_then(Value::as_bool) == Some(true) => {
            println!("reloaded: {summary}");
            Ok(())
        }
        _ => Err(CtlError(format!("unexpected reload response: {doc}"))),
    }
}

fn u64_of(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("?")
}

fn us(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1_000.0)
}

/// Prints rows as fixed-width columns (headers first).
fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if let Some(w) = widths.get_mut(i) {
                *w = (*w).max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(&headers.iter().map(|h| (*h).to_string()).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

fn stats(socket: &Path) -> Result<(), CtlError> {
    let doc = query(socket, "stats")?;
    let schema = str_of(&doc, "schema");
    if schema != insane_telemetry::SNAPSHOT_SCHEMA {
        return Err(CtlError(format!(
            "unexpected snapshot schema {schema:?} (want {:?})",
            insane_telemetry::SNAPSHOT_SCHEMA
        )));
    }
    let enabled = doc.get("telemetry_enabled").and_then(Value::as_bool) == Some(true);
    println!(
        "runtime {} on host {} — telemetry {}",
        u64_of(&doc, "runtime_id"),
        u64_of(&doc, "host"),
        if enabled {
            format!("enabled (1-in-{} sampling)", u64_of(&doc, "sample_every"))
        } else {
            "disabled".to_string()
        }
    );

    let streams = doc.get("streams").and_then(Value::as_array).unwrap_or(&[]);
    println!("\nstreams ({}):", streams.len());
    let mut rows = Vec::new();
    let mut violations = 0u64;
    for s in streams {
        violations += u64_of(s, "budget_violations");
        let total = s.get("total");
        let q = |key: &str| total.map(|t| us(u64_of(t, key))).unwrap_or_default();
        rows.push(vec![
            u64_of(s, "channel").to_string(),
            str_of(s, "class").to_string(),
            u64_of(s, "consumed").to_string(),
            q("p50_ns"),
            q("p90_ns"),
            q("p99_ns"),
            q("p999_ns"),
            u64_of(s, "budget_violations").to_string(),
        ]);
    }
    print_table(
        &[
            "channel",
            "class",
            "consumed",
            "p50(us)",
            "p90(us)",
            "p99(us)",
            "p99.9(us)",
            "violations",
        ],
        &rows,
    );
    if violations > 0 {
        println!("  !! {violations} QoS-budget violations");
    }

    let datapaths = doc
        .get("datapaths")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    println!("\ndatapaths ({}):", datapaths.len());
    // Gate-deferral events of each row, per 802.1Q traffic class.
    let deferrals: Vec<Vec<u64>> = datapaths
        .iter()
        .map(|d| {
            let per_class = d.get("gate_deferrals").and_then(Value::as_array);
            let count = |n: &Value| n.as_u64().unwrap_or(0);
            per_class.unwrap_or(&[]).iter().map(count).collect()
        })
        .collect();
    let rows: Vec<Vec<String>> = datapaths
        .iter()
        .zip(&deferrals)
        .map(|(d, per_class)| {
            vec![
                str_of(d, "technology").to_string(),
                u64_of(d, "shard").to_string(),
                if d.get("down").and_then(Value::as_bool) == Some(true) {
                    "DOWN".to_string()
                } else {
                    "up".to_string()
                },
                u64_of(d, "tx_messages").to_string(),
                u64_of(d, "rx_messages").to_string(),
                u64_of(d, "scheduled").to_string(),
                u64_of(d, "queued").to_string(),
                per_class.iter().sum::<u64>().to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "technology",
            "shard",
            "state",
            "tx",
            "rx",
            "scheduled",
            "queued",
            "deferred",
        ],
        &rows,
    );
    for (d, per_class) in datapaths.iter().zip(&deferrals) {
        if per_class.iter().any(|&n| n > 0) {
            println!(
                "  {} shard {} deferred by class:",
                str_of(d, "technology"),
                u64_of(d, "shard")
            );
            for (class, n) in per_class.iter().enumerate() {
                println!("    tc{class}={n}");
            }
        }
    }

    let pools = doc.get("pools").and_then(Value::as_array).unwrap_or(&[]);
    println!("\npools ({}):", pools.len());
    let rows: Vec<Vec<String>> = pools
        .iter()
        .map(|p| {
            let slots = u64_of(p, "slot_count");
            let in_use = u64_of(p, "in_use");
            vec![
                u64_of(p, "slot_size").to_string(),
                format!("{in_use}/{slots}"),
                u64_of(p, "high_water").to_string(),
                u64_of(p, "exhaustions").to_string(),
                u64_of(p, "acquires").to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "slot_size",
            "in_use",
            "high_water",
            "exhaustions",
            "acquires",
        ],
        &rows,
    );

    // The tenants table only appears on runtimes that populate the
    // rollup (older snapshots omit the key entirely).
    let tenants = doc.get("tenants").and_then(Value::as_array).unwrap_or(&[]);
    if !tenants.is_empty() {
        println!("\ntenants ({}):", tenants.len());
        let rows: Vec<Vec<String>> = tenants
            .iter()
            .map(|t| {
                vec![
                    u64_of(t, "tenant").to_string(),
                    format!("{}/{}", u64_of(t, "held"), u64_of(t, "max")),
                    u64_of(t, "reserved").to_string(),
                    u64_of(t, "admitted").to_string(),
                    u64_of(t, "rejected").to_string(),
                    u64_of(t, "shed").to_string(),
                    u64_of(t, "throttled").to_string(),
                    u64_of(t, "quota_rejections").to_string(),
                    us(u64_of(t, "p99_ns")),
                ]
            })
            .collect();
        print_table(
            &[
                "tenant",
                "slots",
                "reserved",
                "admitted",
                "rejected",
                "shed",
                "throttled",
                "quota_rej",
                "p99(us)",
            ],
            &rows,
        );
    }

    if let Some(counters) = doc.get("counters") {
        println!(
            "\ncounters: tx {} rx {} local {} drops {} control {} failovers {}",
            u64_of(counters, "tx_messages"),
            u64_of(counters, "rx_messages"),
            u64_of(counters, "local_deliveries"),
            u64_of(counters, "sink_drops"),
            u64_of(counters, "control_messages"),
            u64_of(counters, "failover_events"),
        );
    }
    Ok(())
}

fn check_bench(dir: &Path) -> Result<(), CtlError> {
    for spec in BENCH_FILES {
        let path = dir.join(spec.file);
        // An optional document's suite may not have run; a present file
        // must pass its contract, gates included.
        if !spec.required && !path.exists() {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| CtlError(format!("{}: {e}", path.display())))?;
        let doc = Value::parse(&text)?;
        validate(spec, &doc).map_err(|e| CtlError(format!("{}: {e}", spec.file)))?;
        let entries = doc
            .get("entries")
            .and_then(Value::as_array)
            .map_or(0, <[Value]>::len);
        println!("{}: ok ({entries} entries)", spec.file);
    }
    Ok(())
}
