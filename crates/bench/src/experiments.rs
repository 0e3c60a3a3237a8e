//! One entry point per table/figure of the paper's evaluation.
//!
//! Each function prints the same rows/series the paper reports and
//! writes a CSV under `target/experiments/`; all share one signature,
//! the driver's suite table (`main.rs`) being a list of them.  DESIGN.md
//! carries the experiment ↔ module index; EXPERIMENTS.md records
//! paper-vs-measured.

use insane_fabric::{Technology, TestbedProfile};

use crate::latency::{insane_fast_breakdown, rtt_series, System};
use crate::mom_bench::{mom_goodput_gbps, mom_rtt_series, MomSystem};
use crate::report::{fmt_gbps, fmt_us, Table};
use crate::stats::us;
use crate::streaming_bench::{run_streaming, StreamVariant, RESOLUTIONS};
use crate::throughput::{goodput_gbps, insane_multi_sink_gbps, TputSystem};
use crate::{apps, iters, BenchError};

const PAYLOADS_SMALL: [usize; 3] = [64, 256, 1024];

fn profiles() -> [TestbedProfile; 2] {
    [TestbedProfile::local(), TestbedProfile::cloudlab()]
}

/// Table 1: the end-host networking technology comparison.
pub fn table1() -> Result<(), BenchError> {
    let mut table = Table::new(
        "Table 1 — end-host networking options",
        &[
            "Technology",
            "Kernel integration",
            "API",
            "Zero-copy",
            "CPU consumption",
            "Dedicated HW",
        ],
    );
    for tech in Technology::ALL {
        table.row(vec![
            tech.name().to_owned(),
            tech.kernel_integration().to_owned(),
            tech.api_name().to_owned(),
            if tech.zero_copy() { "Yes" } else { "No" }.to_owned(),
            tech.cpu_consumption().to_owned(),
            if tech.requires_dedicated_hardware() {
                "Yes"
            } else {
                "No"
            }
            .to_owned(),
        ]);
    }
    table.print();
    table.write_csv("table1_technologies");
    Ok(())
}

/// Table 2: the two testbeds.
pub fn table2() -> Result<(), BenchError> {
    let mut table = Table::new(
        "Table 2 — testbeds",
        &["Testbed", "OS", "CPU", "RAM", "NIC", "Switch"],
    );
    for profile in profiles() {
        table.row(vec![
            profile.name.to_owned(),
            profile.os.to_owned(),
            profile.cpu.to_owned(),
            format!("{}GB", profile.ram_gb),
            profile.nic.to_owned(),
            profile
                .switch
                .map(|s| s.name.to_owned())
                .unwrap_or_else(|| "—".to_owned()),
        ]);
    }
    table.print();
    table.write_csv("table2_testbeds");
    Ok(())
}

/// Table 3: LoC of the benchmarking application per interface.
///
/// # Errors
///
/// Fails if any of the three counted applications does not round-trip.
pub fn table3() -> Result<(), BenchError> {
    // Prove all three applications actually work before counting them.
    let profile = TestbedProfile::local();
    let runs = iters(3);
    let check = |name: &str, rtt_ns: &[u64]| {
        if rtt_ns.is_empty() {
            Err(BenchError::Other(format!("{name} app measured no RTTs")))
        } else {
            Ok(())
        }
    };
    check(
        "insane",
        &apps::insane_app::run(profile.clone(), insane_core::QosPolicy::fast(), 64, runs).rtt_ns,
    )?;
    check("udp", &apps::udp_app::run(profile.clone(), 64, runs).rtt_ns)?;
    check("dpdk", &apps::dpdk_app::run(profile, 64, runs).rtt_ns)?;

    let insane = apps::loc(apps::INSANE_APP_SRC);
    let udp = apps::loc(apps::UDP_APP_SRC);
    let dpdk = apps::loc(apps::DPDK_APP_SRC);
    let mut table = Table::new(
        "Table 3 — LoC of the benchmarking application",
        &["Interface", "Lines of Code (LoC)", "Increase"],
    );
    table.row(vec!["INSANE".into(), insane.to_string(), "—".into()]);
    table.row(vec![
        "UDP socket".into(),
        udp.to_string(),
        format!("+{}%", (udp * 100 / insane).saturating_sub(100)),
    ]);
    table.row(vec![
        "DPDK".into(),
        dpdk.to_string(),
        format!("+{}%", (dpdk * 100 / insane).saturating_sub(100)),
    ]);
    table.print();
    table.write_csv("table3_loc");
    Ok(())
}

/// Fig. 5: RTT for increasing payload sizes, both testbeds.
///
/// # Errors
///
/// Propagates failures from the systems under measurement.
pub fn fig5() -> Result<(), BenchError> {
    let systems = [
        System::RawDpdk,
        System::InsaneFast,
        System::InsaneSlow,
        System::UdpNonBlocking,
    ];
    let n = iters(300);
    let warmup = iters(30);
    for profile in profiles() {
        let mut table = Table::new(
            &format!("Fig. 5 — RTT vs payload ({})", profile.name),
            &[
                "System",
                "Payload (B)",
                "median (us)",
                "p25 (us)",
                "p75 (us)",
            ],
        );
        for system in systems {
            for payload in PAYLOADS_SMALL {
                let series = rtt_series(system, &profile, payload, n, warmup)?;
                table.row(vec![
                    system.label().to_owned(),
                    payload.to_string(),
                    fmt_us(series.median()),
                    fmt_us(series.p25()),
                    fmt_us(series.p75()),
                ]);
            }
        }
        table.print();
        table.write_csv(&format!(
            "fig5_rtt_{}",
            profile.name.to_lowercase().replace(' ', "_")
        ));
    }
    Ok(())
}

/// Fig. 6: INSANE fast latency breakdown at 64 B, both testbeds.
///
/// # Errors
///
/// Propagates failures from the fast-path round trips.
pub fn fig6() -> Result<(), BenchError> {
    let n = iters(300);
    let warmup = iters(30);
    let mut table = Table::new(
        "Fig. 6 — INSANE fast latency breakdown (64B, per round trip)",
        &[
            "Testbed",
            "Send (us)",
            "Receive (us)",
            "Data processing (us)",
            "Network (us)",
            "Total (us)",
        ],
    );
    for profile in profiles() {
        let acc = insane_fast_breakdown(&profile, 64, n, warmup)?;
        let (send, receive, processing, network) = acc.averages();
        table.row(vec![
            profile.name.to_owned(),
            fmt_us(send),
            fmt_us(receive),
            fmt_us(processing),
            fmt_us(network),
            fmt_us(send + receive + processing + network),
        ]);
    }
    table.print();
    table.write_csv("fig6_breakdown");
    Ok(())
}

/// Fig. 7: average RTT at 64 B across seven systems, both testbeds.
///
/// # Errors
///
/// Propagates failures from the systems under measurement.
pub fn fig7() -> Result<(), BenchError> {
    let systems = [
        System::UdpBlocking,
        System::UdpNonBlocking,
        System::Catnap,
        System::InsaneSlow,
        System::Catnip,
        System::InsaneFast,
        System::RawDpdk,
    ];
    let n = iters(300);
    let warmup = iters(30);
    for profile in profiles() {
        let mut table = Table::new(
            &format!("Fig. 7 — average RTT, 64B ({})", profile.name),
            &["System", "mean (us)", "median (us)", "p99 (us)"],
        );
        for system in systems {
            let series = rtt_series(system, &profile, 64, n, warmup)?;
            table.row(vec![
                system.label().to_owned(),
                format!("{:.2}", series.mean() / 1_000.0),
                fmt_us(series.median()),
                fmt_us(series.p99()),
            ]);
        }
        table.print();
        table.write_csv(&format!(
            "fig7_systems_{}",
            profile.name.to_lowercase().replace(' ', "_")
        ));
    }
    Ok(())
}

/// Fig. 8a: goodput vs payload size (local testbed, as in the paper).
///
/// # Errors
///
/// Propagates failures from the systems under measurement.
pub fn fig8a() -> Result<(), BenchError> {
    let profile = TestbedProfile::local();
    let systems = [
        TputSystem::Catnap,
        TputSystem::Catnip,
        TputSystem::KernelUdp,
        TputSystem::RawDpdk,
        TputSystem::InsaneSlow,
        TputSystem::InsaneFast,
    ];
    let payloads = [64usize, 256, 1024, 4096, 8192];
    let n = iters(6_000);
    let mut table = Table::new(
        "Fig. 8a — goodput vs payload (Local)",
        &["System", "Payload (B)", "Goodput (Gbps)"],
    );
    for system in systems {
        for payload in payloads {
            let gbps = goodput_gbps(system, &profile, payload, n)?;
            table.row(vec![
                system.label().to_owned(),
                payload.to_string(),
                fmt_gbps(gbps),
            ]);
        }
    }
    table.print();
    table.write_csv("fig8a_throughput");
    Ok(())
}

/// Fig. 8b: goodput vs number of co-located sinks (1 KB payloads).
///
/// # Errors
///
/// Propagates failures from the multi-sink pipeline.
pub fn fig8b() -> Result<(), BenchError> {
    let profile = TestbedProfile::local();
    let n = iters(6_000);
    let mut table = Table::new(
        "Fig. 8b — per-sink goodput vs number of sinks (1KB)",
        &["Sinks", "Goodput (Gbps)"],
    );
    for sinks in [1usize, 2, 4, 6, 8] {
        let gbps = insane_multi_sink_gbps(&profile, 1024, sinks, n)?;
        table.row(vec![sinks.to_string(), fmt_gbps(gbps)]);
    }
    table.print();
    table.write_csv("fig8b_sinks");
    Ok(())
}

/// Fig. 9a: MoM round-trip latency vs payload.
///
/// # Errors
///
/// Propagates failures from the MoM systems under measurement.
pub fn fig9a() -> Result<(), BenchError> {
    let profile = TestbedProfile::local();
    let systems = [
        MomSystem::LunarFast,
        MomSystem::LunarSlow,
        MomSystem::CycloneDds,
        MomSystem::ZeroMq,
    ];
    let n = iters(200);
    let warmup = iters(20);
    let mut table = Table::new(
        "Fig. 9a — MoM RTT vs payload (Local)",
        &[
            "System",
            "Payload (B)",
            "median (us)",
            "p25 (us)",
            "p75 (us)",
        ],
    );
    for system in systems {
        for payload in PAYLOADS_SMALL {
            let series = mom_rtt_series(system, &profile, payload, n, warmup)?;
            table.row(vec![
                system.label().to_owned(),
                payload.to_string(),
                fmt_us(series.median()),
                fmt_us(series.p25()),
                fmt_us(series.p75()),
            ]);
        }
    }
    table.print();
    table.write_csv("fig9a_mom_rtt");
    Ok(())
}

/// Fig. 9b: MoM goodput vs payload (ZeroMQ measured but flagged, as the
/// paper excluded it for instability).
///
/// # Errors
///
/// Propagates failures from the MoM systems under measurement.
pub fn fig9b() -> Result<(), BenchError> {
    let profile = TestbedProfile::local();
    let systems = [
        MomSystem::LunarFast,
        MomSystem::LunarSlow,
        MomSystem::CycloneDds,
    ];
    let n = iters(4_000);
    let mut table = Table::new(
        "Fig. 9b — MoM goodput vs payload (Local)",
        &["System", "Payload (B)", "Goodput (Gbps)"],
    );
    for system in systems {
        for payload in PAYLOADS_SMALL {
            let gbps = mom_goodput_gbps(system, &profile, payload, n)?;
            table.row(vec![
                system.label().to_owned(),
                payload.to_string(),
                fmt_gbps(gbps),
            ]);
        }
    }
    table.print();
    table.write_csv("fig9b_mom_tput");
    Ok(())
}

/// Table 4: sizes of the streamed images.
pub fn table4() -> Result<(), BenchError> {
    let mut table = Table::new(
        "Table 4 — streamed image sizes",
        &["Resolution", "Size (MB)"],
    );
    for (name, bytes) in RESOLUTIONS {
        table.row(vec![name.to_owned(), format!("{:.2}", bytes as f64 / 1e6)]);
    }
    table.print();
    table.write_csv("table4_images");
    Ok(())
}

/// Fig. 11: streaming FPS and per-frame latency vs resolution.
///
/// # Errors
///
/// Propagates failures from the streaming variants.
pub fn fig11() -> Result<(), BenchError> {
    let profile = TestbedProfile::local();
    let variants = [
        StreamVariant::LunarFast,
        StreamVariant::LunarSlow,
        StreamVariant::Sendfile,
    ];
    let mut table = Table::new(
        "Fig. 11 — streaming FPS and per-frame latency (Local)",
        &["Variant", "Resolution", "FPS", "Latency (ms)"],
    );
    for variant in variants {
        for (name, bytes) in RESOLUTIONS {
            // Frame counts scale down with size to keep wall time sane.
            let frames = match bytes {
                b if b > 50_000_000 => iters(2),
                b if b > 10_000_000 => iters(3),
                _ => iters(5),
            };
            let result = run_streaming(variant, &profile, bytes, frames)?;
            table.row(vec![
                variant.label().to_owned(),
                name.to_owned(),
                format!("{:.1}", result.fps),
                format!("{:.2}", result.latency_ns as f64 / 1e6),
            ]);
        }
    }
    table.print();
    table.write_csv("fig11_streaming");
    Ok(())
}

/// Extra (non-paper): RTT of the XDP and RDMA datapaths, which the C
/// prototype had not integrated yet (§6).
///
/// # Errors
///
/// Propagates failures from the datapaths under measurement.
pub fn extra_xdp_rdma() -> Result<(), BenchError> {
    let profile = TestbedProfile::local();
    let n = iters(300);
    let warmup = iters(30);
    let mut table = Table::new(
        "Extra — INSANE over XDP and RDMA (Local, 64B)",
        &["System", "median (us)", "p99 (us)"],
    );
    for system in [
        System::InsaneSlow,
        System::InsaneXdp,
        System::InsaneFast,
        System::InsaneRdma,
    ] {
        let series = rtt_series(system, &profile, 64, n, warmup)?;
        table.row(vec![
            system.label().to_owned(),
            fmt_us(series.median()),
            fmt_us(series.p99()),
        ]);
    }
    table.print();
    table.write_csv("extra_xdp_rdma");

    // Sanity ordering: the QoS ladder must hold.
    let median = |s: System| -> Result<u64, BenchError> {
        Ok(rtt_series(s, &profile, 64, n / 2, warmup)?.median())
    };
    let udp = median(System::InsaneSlow)?;
    let xdp = median(System::InsaneXdp)?;
    let dpdk = median(System::InsaneFast)?;
    let rdma = median(System::InsaneRdma)?;
    println!(
        "ordering: rdma {:.2}us < dpdk {:.2}us < xdp {:.2}us < udp {:.2}us : {}",
        us(rdma),
        us(dpdk),
        us(xdp),
        us(udp),
        rdma < dpdk && dpdk < xdp && xdp < udp
    );
    Ok(())
}

/// Ablations called out in DESIGN.md §5.
///
/// # Errors
///
/// Propagates failures from the ablated pipelines.
pub fn ablations() -> Result<(), BenchError> {
    ablation_batching()?;
    ablation_mapping();
    ablation_tsn()
}

/// Opportunistic batching (burst 32) vs per-packet submission (burst 1).
fn ablation_batching() -> Result<(), BenchError> {
    use crate::setup::{throughput_config, throughput_profile, InsanePair};
    use insane_core::QosPolicy;
    let profile = throughput_profile(TestbedProfile::local());
    let n = iters(4_000);
    let mut table = Table::new(
        "Ablation — opportunistic batching (INSANE fast TX, 8KB)",
        &["Burst", "TX stage (us/msg)"],
    );
    for burst in [1usize, 4, 32] {
        let pair = InsanePair::with_config(
            profile.clone(),
            &[Technology::KernelUdp, Technology::Dpdk],
            |c| {
                let mut c = throughput_config(c);
                c.burst = burst;
                c
            },
        )?;
        let (source, _sinks) = pair.one_way(QosPolicy::fast(), 1)?;
        let msg = vec![0u8; 8192];
        let t0 = std::time::Instant::now();
        let mut sent = 0usize;
        while sent < n {
            match source.get_buffer(8192) {
                Ok(mut buf) => {
                    buf.copy_from_slice(&msg);
                    match source.emit(buf) {
                        Ok(_) => {
                            sent += 1;
                            if sent.is_multiple_of(burst.max(1)) {
                                pair.rt_a.poll_technology(Technology::Dpdk);
                            }
                        }
                        Err(_) => {
                            pair.rt_a.poll_technology(Technology::Dpdk);
                        }
                    }
                }
                Err(_) => {
                    pair.rt_a.poll_technology(Technology::Dpdk);
                }
            }
        }
        while pair.rt_a.poll_technology(Technology::Dpdk) {}
        let per_msg = t0.elapsed().as_nanos() as u64 / n as u64;
        table.row(vec![burst.to_string(), fmt_us(per_msg)]);
    }
    table.print();
    table.write_csv("ablation_batching");
    Ok(())
}

/// The QoS→technology mapping matrix (default strategy).
fn ablation_mapping() {
    use insane_core::qos::{DefaultMapping, MappingStrategy};
    use insane_core::QosPolicy;
    let mut table = Table::new(
        "Ablation — default QoS mapping matrix",
        &["Policy", "Available", "Mapped", "Fallback"],
    );
    let policies = [
        ("slow", QosPolicy::slow()),
        ("fast", QosPolicy::fast()),
        ("frugal", QosPolicy::frugal()),
    ];
    let availabilities: [(&str, Vec<Technology>); 4] = [
        ("udp only", vec![Technology::KernelUdp]),
        ("udp+xdp", vec![Technology::KernelUdp, Technology::Xdp]),
        (
            "udp+xdp+dpdk",
            vec![Technology::KernelUdp, Technology::Xdp, Technology::Dpdk],
        ),
        (
            "all (rdma)",
            vec![
                Technology::KernelUdp,
                Technology::Xdp,
                Technology::Dpdk,
                Technology::Rdma,
            ],
        ),
    ];
    for (pname, policy) in policies {
        for (aname, avail) in &availabilities {
            let mapped = DefaultMapping.map(&policy, avail);
            table.row(vec![
                pname.to_owned(),
                (*aname).to_owned(),
                mapped.technology.name().to_owned(),
                mapped.fallback.to_string(),
            ]);
        }
    }
    table.print();
    table.write_csv("ablation_mapping");
}

/// TSN gate behavior: a time-critical message always leaves inside its
/// window, bulk traffic waits.
fn ablation_tsn() -> Result<(), BenchError> {
    use insane_tsn::{GateControlList, Scheduler, TasScheduler, TrafficClass};
    use std::time::{Duration, Instant};
    let epoch = Instant::now();
    let gcl = GateControlList::exclusive_window(
        TrafficClass::TIME_CRITICAL,
        Duration::from_micros(200),
        Duration::from_millis(1),
        epoch,
    )
    .map_err(|e| BenchError::Other(format!("gate control list: {e}")))?;
    let mut scheduler = TasScheduler::new(gcl);
    for i in 0..64 {
        scheduler.enqueue(("bulk", i), TrafficClass::BEST_EFFORT, epoch);
    }
    scheduler.enqueue(("critical", 999), TrafficClass::TIME_CRITICAL, epoch);
    let mut out = Vec::new();
    // Probe inside the critical window: only the critical message leaves.
    scheduler.dequeue_ready(&mut out, 128, epoch + Duration::from_micros(50));
    let critical_only = out.len() == 1 && out[0].0 == "critical";
    let in_window = out.len();
    scheduler.dequeue_ready(&mut out, 128, epoch + Duration::from_micros(500));
    let mut table = Table::new(
        "Ablation — 802.1Qbv gating (64 bulk + 1 critical queued)",
        &["Probe", "Released", "Note"],
    );
    table.row(vec![
        "inside critical window".into(),
        in_window.to_string(),
        format!("critical-only: {critical_only}"),
    ]);
    table.row(vec![
        "after window".into(),
        (out.len() - in_window).to_string(),
        "bulk drains".into(),
    ]);
    table.print();
    table.write_csv("ablation_tsn");
    Ok(())
}
