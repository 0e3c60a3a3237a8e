//! Span tracing from outside the program: the workloads wrap every call
//! they make into the middleware in a span, generically over [`Tracer`]
//! so the timed phase compiles to the bare calls ([`NoTrace`]) and the
//! separate traced pass to the same calls plus clock reads
//! ([`SpanTrace`]).
//!
//! Spans of one operation are contiguous: each child starts where the
//! previous one ended (one clock read per boundary), so the children of
//! a root add up to the root and nothing between two calls goes
//! unnamed — harness work (filling, verifying) is a `bench.*` span.

use std::io::Write;
use std::time::Instant;

use crate::stats::LogHist;

/// Every span the workloads record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Span {
    /// Root: one whole operation.
    Op,
    GetBuffer,
    Emit,
    PollTx,
    /// Polls that found nothing: the message is on the (modelled) wire
    /// or held by a gate.
    PollRxEmpty,
    /// The poll that delivered.
    PollRxHit,
    Consume,
    Release,
    IpcLend,
    IpcEmit,
    /// `try_recv` misses and the yields between them: waiting on the
    /// daemon.
    IpcRecvWait,
    IpcRecvHit,
    /// Harness: writing the payload (the application's own work).
    AppFill,
    /// Harness: checking order and content.
    AppVerify,
}

pub const SPAN_COUNT: usize = Span::AppVerify as usize + 1;

impl Span {
    pub const ALL: [Span; SPAN_COUNT] = [
        Span::Op,
        Span::GetBuffer,
        Span::Emit,
        Span::PollTx,
        Span::PollRxEmpty,
        Span::PollRxHit,
        Span::Consume,
        Span::Release,
        Span::IpcLend,
        Span::IpcEmit,
        Span::IpcRecvWait,
        Span::IpcRecvHit,
        Span::AppFill,
        Span::AppVerify,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Span::Op => "op",
            Span::GetBuffer => "core.get_buffer",
            Span::Emit => "core.emit",
            Span::PollTx => "core.poll_tx",
            Span::PollRxEmpty => "core.poll_rx_empty",
            Span::PollRxHit => "core.poll_rx_hit",
            Span::Consume => "core.consume",
            Span::Release => "core.release",
            Span::IpcLend => "ipc.lend",
            Span::IpcEmit => "ipc.emit",
            Span::IpcRecvWait => "ipc.recv_wait",
            Span::IpcRecvHit => "ipc.recv_hit",
            Span::AppFill => "bench.app_fill",
            Span::AppVerify => "bench.app_verify",
        }
    }

    /// Whether the span times harness code, not a call into the program.
    pub fn is_harness(self) -> bool {
        matches!(self, Span::AppFill | Span::AppVerify)
    }
}

/// What the workloads call around every step of an operation.
pub trait Tracer {
    /// Whether spans are recorded; lets a workload skip trace-only
    /// bookkeeping in the timed phase at compile time.
    const ON: bool;
    /// Starts an operation's root span.
    fn begin(&mut self);
    /// Closes a child span that started where the previous one ended.
    fn lap(&mut self, span: Span);
    /// Notes the instant before a poll that may or may not deliver.
    fn pre_poll(&mut self);
    /// The poll noted by the last [`Tracer::pre_poll`] delivered after
    /// `misses` fruitless ones: closes the wait span up to that instant
    /// and the hit span from it.
    fn poll_hit(&mut self, wait: Span, hit: Span, misses: u64);
    /// Ends the root span where the last child ended.
    fn end(&mut self);
}

/// The timed phase's tracer: every call is a no-op the compiler drops.
#[derive(Debug, Default)]
pub struct NoTrace;

impl Tracer for NoTrace {
    const ON: bool = false;
    #[inline(always)]
    fn begin(&mut self) {}
    #[inline(always)]
    fn lap(&mut self, _span: Span) {}
    #[inline(always)]
    fn pre_poll(&mut self) {}
    #[inline(always)]
    fn poll_hit(&mut self, _wait: Span, _hit: Span, _misses: u64) {}
    #[inline(always)]
    fn end(&mut self) {}
}

/// One recorded span, as written to `out/<workload>.trace.json`.
#[derive(Debug, Clone, Copy)]
struct Record {
    span: Span,
    /// Operation the span belongs to (shared by a root and its
    /// children).
    op: u32,
    /// Index of the root record, `u32::MAX` for a root.
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// The traced pass's tracer: per-span histograms over the whole pass
/// plus the first `recorded_ops` operations span by span (the trace
/// file), all in memory allocated up front.
#[derive(Debug)]
pub struct SpanTrace {
    epoch: Instant,
    mark: u64,
    pending: u64,
    root_start: u64,
    op: u32,
    /// Per-call durations of each span.
    calls: Vec<LogHist>,
    /// Per-operation wait time and miss count (an operation can wait
    /// more than once, e.g. for the ping and for the pong).
    op_wait_ns: u64,
    op_misses: u64,
    wait_per_op: LogHist,
    misses_per_op: LogHist,
    records: Vec<Record>,
    record_cap: usize,
    recorded_ops: u32,
    root_index: u32,
}

impl SpanTrace {
    /// Keeps the spans of the first `recorded_ops` operations, each of
    /// at most `spans_per_op` child spans.
    pub fn new(recorded_ops: u32, spans_per_op: usize) -> Self {
        let record_cap = recorded_ops as usize * (spans_per_op + 1);
        Self {
            epoch: Instant::now(),
            mark: 0,
            pending: 0,
            root_start: 0,
            op: 0,
            calls: (0..SPAN_COUNT).map(|_| LogHist::new()).collect(),
            op_wait_ns: 0,
            op_misses: 0,
            wait_per_op: LogHist::new(),
            misses_per_op: LogHist::new(),
            records: Vec::with_capacity(record_cap),
            record_cap,
            recorded_ops,
            root_index: 0,
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    fn close(&mut self, span: Span, start: u64, end: u64) {
        self.calls[span as usize].record(end - start);
        if self.op <= self.recorded_ops && self.records.len() < self.record_cap {
            self.records.push(Record {
                span,
                op: self.op,
                parent: self.root_index,
                start_ns: start,
                end_ns: end,
            });
        }
    }

    /// Median duration of one call of `span`, ns.
    pub fn median_ns(&self, span: Span) -> u64 {
        self.calls[span as usize].median()
    }

    /// Calls of `span` recorded.
    pub fn calls(&self, span: Span) -> u64 {
        self.calls[span as usize].count()
    }

    /// Median per-operation wait (all wait spans of one op summed), ns.
    pub fn wait_per_op_ns(&self) -> u64 {
        self.wait_per_op.median()
    }

    /// Median per-operation count of polls/receives that found nothing.
    pub fn misses_per_op(&self) -> u64 {
        self.misses_per_op.median()
    }

    /// Share of the root spans' total time that child spans around
    /// calls into the program cover, percent.  The rest is the
    /// `bench.*` harness spans.
    pub fn coverage_pct(&self) -> f64 {
        let root = self.calls[Span::Op as usize].sum();
        if root == 0 {
            return 0.0;
        }
        let program: u64 = Span::ALL
            .iter()
            .filter(|s| **s != Span::Op && !s.is_harness())
            .map(|s| self.calls[*s as usize].sum())
            .sum();
        100.0 * program as f64 / root as f64
    }

    /// Writes the recorded spans as a JSON array, one object per span:
    /// `id`, `name`, `start_ns`, `end_ns`, `parent` (the root's `id`,
    /// `null` for a root) and `op`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[\n")?;
        for (id, r) in self.records.iter().enumerate() {
            let parent = if r.parent == u32::MAX {
                "null".to_string()
            } else {
                r.parent.to_string()
            };
            let comma = if id + 1 == self.records.len() {
                ""
            } else {
                ","
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{comma}",
                r.span.name(),
                r.start_ns,
                r.end_ns,
                r.op
            )?;
        }
        out.write_all(b"]\n")?;
        out.flush()
    }
}

impl Tracer for SpanTrace {
    const ON: bool = true;
    #[inline]
    fn begin(&mut self) {
        self.op += 1;
        self.mark = self.now();
        self.root_start = self.mark;
        self.op_wait_ns = 0;
        self.op_misses = 0;
        // The root is written first so children can point at it; its
        // end is patched in `end`.
        self.root_index = u32::MAX;
        if self.op <= self.recorded_ops && self.records.len() < self.record_cap {
            let index = self.records.len() as u32;
            self.records.push(Record {
                span: Span::Op,
                op: self.op,
                parent: u32::MAX,
                start_ns: self.mark,
                end_ns: self.mark,
            });
            self.root_index = index;
        }
    }

    #[inline]
    fn lap(&mut self, span: Span) {
        let now = self.now();
        self.close(span, self.mark, now);
        self.mark = now;
    }

    #[inline]
    fn pre_poll(&mut self) {
        self.pending = self.now();
    }

    #[inline]
    fn poll_hit(&mut self, wait: Span, hit: Span, misses: u64) {
        let now = self.now();
        self.close(wait, self.mark, self.pending);
        self.close(hit, self.pending, now);
        self.op_wait_ns += self.pending - self.mark;
        self.op_misses += misses;
        self.mark = now;
    }

    #[inline]
    fn end(&mut self) {
        self.calls[Span::Op as usize].record(self.mark - self.root_start);
        self.wait_per_op.record(self.op_wait_ns);
        self.misses_per_op.record(self.op_misses);
        if self.root_index != u32::MAX {
            self.records[self.root_index as usize].end_ns = self.mark;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_tile_the_root() {
        let mut t = SpanTrace::new(8, 4);
        for _ in 0..3 {
            t.begin();
            t.lap(Span::GetBuffer);
            t.lap(Span::AppFill);
            t.pre_poll();
            t.pre_poll();
            t.poll_hit(Span::PollRxEmpty, Span::PollRxHit, 1);
            t.end();
        }
        assert_eq!(t.calls(Span::Op), 3);
        assert_eq!(t.records.len(), 3 * 5);
        for root in t.records.iter().filter(|r| r.span == Span::Op) {
            let kids: Vec<_> = t
                .records
                .iter()
                .filter(|r| r.op == root.op && r.span != Span::Op)
                .collect();
            assert_eq!(kids.first().map(|k| k.start_ns), Some(root.start_ns));
            assert_eq!(kids.last().map(|k| k.end_ns), Some(root.end_ns));
            for pair in kids.windows(2) {
                assert_eq!(pair[0].end_ns, pair[1].start_ns, "contiguous");
            }
        }
        let covered = t.coverage_pct();
        assert!(covered > 0.0 && covered <= 100.0, "{covered}");
        assert_eq!(t.misses_per_op(), 1);
    }
}
