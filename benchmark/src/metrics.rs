//! The benchmark's metric names, units and directions — the one place
//! they are defined.  `BENCHMARK.json` at the repository root is
//! `--print-manifest`'s output, and a test keeps the two in step.

/// `(name, unit, better, bound)`: what a user of the middleware sees.
/// `bound` is the share of the parent's median a metric may worsen by.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("lat_p50_us", "us", "lower", 0.05),
    ("msgs_per_s", "1/s", "higher", 0.05),
    ("cpu_us_per_msg", "us", "lower", 0.10),
    ("peak_rss_mb", "MiB", "lower", 0.05),
];

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// `(name, unit, better)`: single layers, from spans, rungs and
/// counters.  A metric that does not apply to the workload run (an IPC
/// span on an in-process workload) reads 0.
pub const PER_LAYER: [(&str, &str, &str); 75] = [
    // insane-queues
    ("queues.spsc.push_pop_ns", "ns", LOWER),
    ("queues.spsc.pop_burst32_ns", "ns", LOWER),
    ("queues.mpmc.push_pop_ns", "ns", LOWER),
    ("queues.free_stack.pop_push_ns", "ns", LOWER),
    ("queues.snapshot.refresh_ns", "ns", LOWER),
    ("queues.shm_spsc.push_pop_ns", "ns", LOWER),
    // insane-memory
    ("memory.pool.acquire_release_ns", "ns", LOWER),
    ("memory.pool.token_redeem_ns", "ns", LOWER),
    ("memory.pool_set.lend_release_ns", "ns", LOWER),
    ("memory.segment_pool.acquire_release_ns", "ns", LOWER),
    ("memory.slots_in_use_peak", "count", LOWER),
    ("memory.acquire_failed", "count", LOWER),
    // insane-netstack
    ("netstack.seal_64b_ns", "ns", LOWER),
    ("netstack.checksum_ok_64b_ns", "ns", LOWER),
    ("netstack.seal_8k_ns", "ns", LOWER),
    ("netstack.checksum_ok_8k_ns", "ns", LOWER),
    ("netstack.hdr.write_parse_ns", "ns", LOWER),
    ("netstack.packet.build_64b_ns", "ns", LOWER),
    ("netstack.packet.parse_ns", "ns", LOWER),
    ("netstack.fragment.plan_offer_256k_ns", "ns", LOWER),
    // insane-tsn
    ("tsn.fifo.enq_deq_ns", "ns", LOWER),
    ("tsn.tas.enq_deq_open_ns", "ns", LOWER),
    ("tsn.tas.dequeue_closed_ns", "ns", LOWER),
    ("tsn.gate_deferrals", "count", LOWER),
    // insane-fabric (modelled time)
    ("fabric.raw_dpdk.rtt_p50_us", "us", LOWER),
    ("fabric.raw_dpdk.tx_burst32_ns", "ns", LOWER),
    ("fabric.raw_dpdk.rx_burst32_ns", "ns", LOWER),
    ("fabric.wire_8k_ns", "ns", LOWER),
    // insane-core: spans
    ("core.get_buffer_ns", "ns", LOWER),
    ("core.emit_ns", "ns", LOWER),
    ("core.poll_tx_ns", "ns", LOWER),
    ("core.poll_rx_hit_ns", "ns", LOWER),
    ("core.consume_ns", "ns", LOWER),
    ("core.release_ns", "ns", LOWER),
    ("core.poll_rx_empty_ns", "ns", LOWER),
    ("core.poll_rx_empty_count", "count", LOWER),
    // insane-core: counters
    ("core.emit_backpressure", "count", LOWER),
    ("core.sink_drops", "count", LOWER),
    ("core.rx_rejected", "count", LOWER),
    ("core.idle_polls", "count", LOWER),
    ("core.admission_rejected", "count", LOWER),
    // insane-core: the program's own latency split
    ("core.breakdown.send_ns", "ns", LOWER),
    ("core.breakdown.network_ns", "ns", LOWER),
    ("core.breakdown.receive_ns", "ns", LOWER),
    ("core.breakdown.processing_ns", "ns", LOWER),
    ("core.overhead_over_raw_us", "us", LOWER),
    // insane-core: set-up stages
    ("core.runtime_start_s", "s", LOWER),
    ("core.peer_converge_s", "s", LOWER),
    ("core.stream_open_s", "s", LOWER),
    // insane-ipc
    ("ipc.attach_us", "us", LOWER),
    ("ipc.lend_ns", "ns", LOWER),
    ("ipc.emit_ns", "ns", LOWER),
    ("ipc.recv_hit_ns", "ns", LOWER),
    ("ipc.recv_wait_us", "us", LOWER),
    ("ipc.recv_miss_count", "count", LOWER),
    ("ipc.inproc_loop.rtt_p50_us", "us", LOWER),
    ("ipc.daemon.cpu_us_per_msg", "us", LOWER),
    ("ipc.client.cpu_us_per_msg", "us", LOWER),
    ("ipc.daemon.forwarded", "count", HIGHER),
    // insane-telemetry
    ("telemetry.disabled_rtt_delta_pct", "%", LOWER),
    // harness
    ("bench.trace_overhead_pct", "%", LOWER),
    ("bench.span_coverage_pct", "%", HIGHER),
    ("bench.timer_ns", "ns", LOWER),
    ("bench.setup_cold_s", "s", LOWER),
    ("bench.lat_p99_us", "us", LOWER),
    ("bench.lat_p50_whole_us", "us", LOWER),
    ("bench.lat_p99_whole_us", "us", LOWER),
    ("bench.msgs_per_s_whole", "1/s", HIGHER),
    ("bench.cpu_us_per_msg_whole", "us", LOWER),
    ("bench.floor_pct", "%", HIGHER),
    ("bench.quiet_slices", "count", HIGHER),
    ("bench.slices", "count", HIGHER),
    ("bench.segments", "count", HIGHER),
    ("bench.samples", "count", HIGHER),
    ("bench.traced_ops", "count", HIGHER),
];

/// `(name, why)` of the four workloads.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "pingpong_64b",
        "64 B round trips, one in flight: the fixed per-message cost of every layer is the whole result (paper Fig. 5/7); batching, payload size, TAS, tenants and IPC do nothing here",
    ),
    (
        "stream_8k",
        "8 KiB one-way in windows of 32 (Fig. 8a): burst, doorbell, per-byte checksum and slot recycling dominate; per-poll fixed cost is amortised 32x, so a pingpong win should barely move it",
    ),
    (
        "mixed_qos",
        "time-sensitive ping-pong through a bulk tenant's backlog to 4 sinks: TAS gates, tenant DRR, quota ledger and admission are on the path, so a FIFO-path gain paid for there shows",
    ),
    (
        "ipc_pingpong_64b",
        "client here, daemon in a child process: shm rings, segment-backed pool and the daemon's idle pacing, which no other workload touches; cpu_us_per_msg prices busy-polling",
    ),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 26;

/// The `BENCHMARK.json` this package answers to.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}{comma}\n"
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}\n"
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and one entry of `metrics` per `(name, unit)` of `defs`, in
/// that order.  Every name must have a value.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[(&str, &str)],
    values: &[(&str, f64)],
) -> Result<String, String> {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in defs.iter().enumerate() {
        let value = values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a number ({value})"));
        }
        let comma = if i == 0 { "" } else { ", " };
        s.push_str(&format!(
            "{comma}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    s.push_str("}}");
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_manifest_is_this_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `insane-benchmark --print-manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        for n in &names {
            assert!(ok_name(n), "{n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        for (_, u, _, bound) in END_TO_END {
            assert!(ok_unit(u), "{u}");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        for (_, u, _) in PER_LAYER {
            assert!(ok_unit(u), "{u}");
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{}", why.len());
        }
        let setup_bound = END_TO_END[0].3;
        assert!(
            END_TO_END.iter().all(|m| m.3 <= setup_bound),
            "setup_s has the largest bound"
        );
        assert!(manifest().len() < 64 * 1024);
    }

    #[test]
    fn result_line_needs_every_metric() {
        let defs = [("a", "ns"), ("b", "s")];
        assert!(result_line(true, 1, 0, &defs, &[("a", 1.5)]).is_err());
        let line = result_line(true, 3, 0, &defs, &[("b", 2.0), ("a", 1.5)]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ns\"}, \"b\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
    }
}
