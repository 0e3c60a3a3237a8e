//! Two manually driven runtimes on one simulated fabric, and the helpers
//! the in-process workloads share.  Everything here goes through the
//! public API of `insane-core`; set-up is timed stage by stage because
//! `setup_s` is an end-to-end metric and its stages are layer metrics.

use std::time::Instant;

use insane_core::runtime::poll_until_quiescent;
use insane_core::{
    ConsumeMode, IncomingMessage, InsaneError, MessageBuffer, Runtime, RuntimeConfig, Sink, Source,
    Technology, ThreadingMode,
};
use insane_fabric::{Fabric, TestbedProfile};

use crate::run::Fatal;
use crate::trace::{Span, Tracer};
use crate::verify::Tally;

/// The datapath every in-process workload's streams map to
/// (`QosPolicy::fast()` without RDMA on the host).
pub const TECH: Technology = Technology::Dpdk;

/// Fruitless polls after which a message counts as lost (several
/// seconds of polling; the longest legitimate wait is one 1 ms gate
/// cycle).
const MAX_MISSES: u64 = 1 << 27;

/// How long one set-up cycle and its stages took, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Build → first verified message → teardown, the whole cycle
    /// (filled in by whoever times the cycle).
    pub total_s: f64,
    /// Fabric plus both `Runtime::start` calls.
    pub runtime_start_s: f64,
    /// `add_peer` until the control plane is quiet.
    pub peer_converge_s: f64,
    /// Sessions, streams, sinks and sources opened and announced.
    pub stream_open_s: f64,
    /// `IpcClient::attach` (connect, handshake, fd transfer, mmap), µs;
    /// the IPC workload's only stage.
    pub attach_us: f64,
}

/// Two peered runtimes, host A and host B.
#[derive(Debug)]
pub struct Pair {
    pub rt_a: Runtime,
    pub rt_b: Runtime,
}

impl Pair {
    /// Starts both runtimes inline-driven (`ThreadingMode::Manual`) on a
    /// fresh local-testbed fabric and peers them.  `tweak` receives the
    /// otherwise default configuration of each runtime (`true` for
    /// host A).
    pub fn start(
        tweak: impl Fn(RuntimeConfig, bool) -> RuntimeConfig,
        times: &mut SetupTimes,
    ) -> Result<Pair, Fatal> {
        let t0 = Instant::now();
        let fabric = Fabric::new(TestbedProfile::local());
        let host_a = fabric.add_host("node-a");
        let host_b = fabric.add_host("node-b");
        let config = |id: u32| {
            RuntimeConfig::new(id)
                .with_technologies(&[Technology::KernelUdp, TECH])
                .with_threading(ThreadingMode::Manual)
        };
        let rt_a = Runtime::start(tweak(config(1), true), &fabric, host_a)
            .map_err(|e| format!("runtime A: {e}"))?;
        let rt_b = Runtime::start(tweak(config(2), false), &fabric, host_b)
            .map_err(|e| format!("runtime B: {e}"))?;
        times.runtime_start_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        rt_a.add_peer(host_b)
            .map_err(|e| format!("add_peer: {e}"))?;
        let pair = Pair { rt_a, rt_b };
        pair.settle();
        times.peer_converge_s = t1.elapsed().as_secs_f64();
        Ok(pair)
    }

    /// Lets control-plane traffic (subscriptions) converge.
    pub fn settle(&self) {
        poll_until_quiescent(&[&self.rt_a, &self.rt_b], 100_000);
    }

    /// Slots checked out of both runtimes' pools.
    pub fn slots_in_use(&self) -> usize {
        self.rt_a.slots_in_use() + self.rt_b.slots_in_use()
    }
}

/// `get_buffer`, with a refusal counted by kind and turned into a failed
/// operation that ends the run: the workloads are sized so that the
/// program never has to refuse.
#[inline]
pub fn lend(source: &Source, len: usize, tally: &mut Tally) -> Result<MessageBuffer, Fatal> {
    source
        .get_buffer(len)
        .map_err(|e| refused("get_buffer", e, tally))
}

/// `emit`, refusals handled as in [`lend`].
#[inline]
pub fn emit(source: &Source, buffer: MessageBuffer, tally: &mut Tally) -> Result<(), Fatal> {
    source
        .emit(buffer)
        .map(|_| ())
        .map_err(|e| refused("emit", e, tally))
}

#[cold]
fn refused(call: &str, e: InsaneError, tally: &mut Tally) -> Fatal {
    match e {
        InsaneError::AdmissionRejected { .. } | InsaneError::Shed { .. } => {
            tally.admission_rejected += 1
        }
        InsaneError::Backpressure => tally.emit_backpressure += 1,
        InsaneError::Memory(_) => tally.acquire_failed += 1,
        _ => {}
    }
    let what = format!("{call} refused: {e}");
    tally.fail(|| what.clone());
    what
}

/// Polls `rt` until `sink` yields a message, recording the fruitless
/// polls as one wait span, the delivering poll and the consume as their
/// own.
#[inline]
pub fn wait_consume<T: Tracer>(
    t: &mut T,
    rt: &Runtime,
    sink: &Sink,
) -> Result<IncomingMessage, Fatal> {
    let mut misses = 0u64;
    loop {
        t.pre_poll();
        if !rt.poll_technology(TECH) {
            misses += 1;
            if misses > MAX_MISSES {
                return Err(lost(sink));
            }
            continue;
        }
        t.poll_hit(Span::PollRxEmpty, Span::PollRxHit, misses);
        misses = 0;
        match sink.consume(ConsumeMode::NonBlocking) {
            Ok(msg) => {
                t.lap(Span::Consume);
                return Ok(msg);
            }
            Err(InsaneError::WouldBlock) => {}
            Err(e) => return Err(format!("consume: {e}")),
        }
    }
}

/// One more fruitless poll while waiting on several things at once;
/// errors once the wait has lasted implausibly long.
#[inline]
pub fn missed(misses: &mut u64, sink: &Sink) -> Result<(), Fatal> {
    *misses += 1;
    if *misses > MAX_MISSES {
        return Err(lost(sink));
    }
    Ok(())
}

#[cold]
fn lost(sink: &Sink) -> Fatal {
    format!(
        "a message on {} never arrived ({MAX_MISSES} fruitless polls)",
        sink.channel()
    )
}
