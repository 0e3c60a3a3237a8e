//! The INSANE client library: the technology-agnostic API of Fig. 2.
//!
//! | paper primitive        | here |
//! |---|---|
//! | `init_session`         | [`Session::connect`] |
//! | `close_session`        | [`Session::close`] (or drop) |
//! | `create_stream`        | [`Session::create_stream`] |
//! | `close_stream`         | [`Stream::close`] (or drop) |
//! | `create_source`        | [`Stream::create_source`] |
//! | `get_buffer`           | [`Source::get_buffer`] |
//! | `emit_data`            | [`Source::emit`] |
//! | `check_emit_outcome`   | [`Source::emit_outcome`] |
//! | `create_sink` (+cb)    | [`Stream::create_sink`] / [`Stream::create_sink_with_callback`] |
//! | `data_available`       | [`Sink::data_available`] |
//! | `consume_data`         | [`Sink::consume`] |
//! | `release_buffer`       | dropping the [`IncomingMessage`] |

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use insane_fabric::Technology;
use insane_memory::SlotGuard;
use parking_lot::Mutex;

use crate::qos::QosPolicy;
use crate::runtime::internals::{Delivery, OutcomeBoard, SinkShared, StreamShared, TxRequest};
use crate::runtime::Runtime;
use crate::stats::{LatencyBreakdown, MessageMeta};
use crate::{epoch_ns, ChannelId, InsaneError, PAYLOAD_OFFSET};

/// How [`Sink::consume`] waits for data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsumeMode {
    /// Block until a message arrives.
    Blocking,
    /// Return [`InsaneError::WouldBlock`] immediately when none is ready.
    NonBlocking,
}

/// Handle returned by [`Source::emit`] for later outcome retrieval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmitToken {
    seq: u64,
}

impl EmitToken {
    /// The per-stream sequence number this emit was assigned.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// Outcome of an emit operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmitOutcome {
    /// Still queued in the middleware.
    Pending,
    /// Handed to a datapath (or delivered locally).
    Completed,
    /// Could not be sent (framing failure, device error, stream closed
    /// with the message still queued).
    Failed,
}

/// Session construction parameters (multi-tenant deployments).
///
/// The default configuration attaches as the anonymous tenant
/// ([`crate::DEFAULT_TENANT`]): no quota, no rate limit, the shared
/// fair-share lane — exactly the single-tenant behavior of
/// [`Session::connect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionConfig {
    /// The tenant every stream of this session emits as.  Register the
    /// tenant on the runtime ([`crate::TenantSpec`]) to give it slot
    /// quotas, admission rates, and a scheduler weight; unregistered
    /// ids pool with the anonymous tenant.
    pub tenant: crate::TenantId,
}

impl SessionConfig {
    /// A configuration attaching as `tenant`.
    pub fn for_tenant(tenant: crate::TenantId) -> Self {
        Self { tenant }
    }
}

/// An application session with the local runtime (`init_session`).
#[derive(Debug)]
pub struct Session {
    runtime: Runtime,
    id: u64,
    tenant: crate::TenantId,
    streams: Mutex<Vec<Arc<StreamShared>>>,
    closed: AtomicBool,
}

impl Session {
    /// Connects to a runtime — the in-process analogue of mapping the
    /// runtime's shared memory and queues into the application.
    ///
    /// # Errors
    ///
    /// [`InsaneError::Closed`] when the runtime has shut down.
    pub fn connect(runtime: &Runtime) -> Result<Session, InsaneError> {
        Self::connect_with(runtime, SessionConfig::default())
    }

    /// As [`Session::connect`], attaching under an explicit
    /// [`SessionConfig`] — notably the tenant whose quotas, admission
    /// budget, and fair-share lane every stream of this session uses.
    ///
    /// # Errors
    ///
    /// [`InsaneError::Closed`] when the runtime has shut down.
    pub fn connect_with(runtime: &Runtime, config: SessionConfig) -> Result<Session, InsaneError> {
        if runtime.inner().is_stopped() {
            return Err(InsaneError::Closed);
        }
        Ok(Session {
            runtime: runtime.clone(),
            id: runtime.inner().next_id(),
            tenant: config.tenant,
            streams: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
        })
    }

    /// Session identifier (diagnostics).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The tenant this session attached as.
    pub fn tenant(&self) -> crate::TenantId {
        self.tenant
    }

    /// Opens a stream with the given QoS policy; the runtime maps it to a
    /// technology *now*, against what this host offers (§5.2).
    ///
    /// # Errors
    ///
    /// [`InsaneError::Closed`] when the session or runtime is closed.
    pub fn create_stream(&self, qos: QosPolicy) -> Result<Stream, InsaneError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(InsaneError::Closed);
        }
        let shared = self.runtime.inner().create_stream(qos, self.tenant)?;
        self.streams.lock().push(Arc::clone(&shared));
        Ok(Stream {
            runtime: self.runtime.clone(),
            shared,
        })
    }

    /// Closes the session and every stream it opened (`close_session`),
    /// as [`Stream::close`] does each.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        let streams = std::mem::take(&mut *self.streams.lock());
        close_streams(&self.runtime, &streams);
    }
}

/// Closes `streams`: no new emit is accepted, the polling threads forget
/// them, and whatever they still had queued is failed — dropping a
/// request returns its slot and its tenant's quota charge here, at close.
/// An emit racing past its `closed` check may still slip one request in
/// behind the drain; that one is released when the last handle on the
/// stream drops (the queue drops what it holds).
fn close_streams(runtime: &Runtime, streams: &[Arc<StreamShared>]) {
    for stream in streams {
        stream.closed.store(true, Ordering::Release);
    }
    runtime.inner().streams.prune_closed();
    for stream in streams {
        while let Some(request) = stream.tx.pop() {
            request.outcome.fail(request.seq, "stream closed");
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.close();
    }
}

/// A stream: the carrier of QoS for its channels (§5.1).
#[derive(Debug)]
pub struct Stream {
    runtime: Runtime,
    shared: Arc<StreamShared>,
}

impl Stream {
    /// The QoS policy the stream was created with.
    pub fn qos(&self) -> QosPolicy {
        self.shared.qos
    }

    /// The technology this stream was mapped to.
    pub fn technology(&self) -> Technology {
        self.shared.mapped.technology
    }

    /// Whether the mapping fell back to kernel networking because the
    /// requested acceleration was unavailable (§5.2's warning).
    pub fn is_fallback(&self) -> bool {
        self.shared.mapped.fallback
    }

    /// Creates a producer endpoint on `channel`.
    ///
    /// # Errors
    ///
    /// [`InsaneError::Closed`] on a closed stream.
    pub fn create_source(&self, channel: ChannelId) -> Result<Source, InsaneError> {
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(InsaneError::Closed);
        }
        let max_payload = self
            .runtime
            .inner()
            .plugin_for(self.shared.mapped.technology)?
            .max_payload()
            .min(self.runtime.inner().pools().max_slot_size() - PAYLOAD_OFFSET);
        Ok(Source {
            runtime: self.runtime.clone(),
            stream: Arc::clone(&self.shared),
            channel: channel.0,
            outcome: Arc::new(OutcomeBoard::default()),
            max_payload,
        })
    }

    /// Creates a consumer endpoint on `channel` for explicit
    /// [`Sink::consume`] calls.
    ///
    /// # Errors
    ///
    /// [`InsaneError::Closed`] on a closed stream.
    pub fn create_sink(&self, channel: ChannelId) -> Result<Sink, InsaneError> {
        self.build_sink(channel, None)
    }

    /// Creates a consumer endpoint whose `callback` runs on the runtime's
    /// polling thread for every message (the registered-callback receive
    /// mode of §5.1).
    ///
    /// # Errors
    ///
    /// [`InsaneError::Closed`] on a closed stream.
    pub fn create_sink_with_callback<F>(
        &self,
        channel: ChannelId,
        callback: F,
    ) -> Result<Sink, InsaneError>
    where
        F: Fn(IncomingMessage) + Send + Sync + 'static,
    {
        self.build_sink(channel, Some(Box::new(callback)))
    }

    fn build_sink(
        &self,
        channel: ChannelId,
        callback: Option<crate::runtime::internals::SinkCallback>,
    ) -> Result<Sink, InsaneError> {
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(InsaneError::Closed);
        }
        let inner = self.runtime.inner();
        let has_callback = callback.is_some();
        let shared = Arc::new(SinkShared::new(
            inner.next_id(),
            channel.0,
            inner.config().sink_queue_depth,
            callback,
            inner.telemetry_stream(
                channel.0,
                self.shared.qos.time_sensitivity.traffic_class(),
                self.shared.tenant,
            ),
        ));
        inner.register_sink(Arc::clone(&shared));
        Ok(Sink {
            runtime: self.runtime.clone(),
            shared,
            has_callback,
        })
    }

    /// Closes the stream (`close_stream`); sources and sinks created from
    /// it keep working on already-delivered data but no new emits flow,
    /// and emits still queued fail ([`EmitOutcome::Failed`]) and give
    /// their buffers back now.
    pub fn close(&self) {
        close_streams(&self.runtime, std::slice::from_ref(&self.shared));
    }
}

/// A zero-copy outgoing message buffer lent by the runtime
/// (`get_buffer`).  Deref targets the payload region; the headroom for
/// protocol headers is reserved and invisible.
#[derive(Debug)]
pub struct MessageBuffer {
    guard: SlotGuard,
    payload_len: usize,
}

impl MessageBuffer {
    /// Usable payload length.
    pub fn len(&self) -> usize {
        self.payload_len
    }

    /// Whether the payload region is empty.
    pub fn is_empty(&self) -> bool {
        self.payload_len == 0
    }
}

impl core::ops::Deref for MessageBuffer {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.guard[PAYLOAD_OFFSET..PAYLOAD_OFFSET + self.payload_len]
    }
}

impl core::ops::DerefMut for MessageBuffer {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.guard[PAYLOAD_OFFSET..PAYLOAD_OFFSET + self.payload_len]
    }
}

/// A producer endpoint (`create_source`).
#[derive(Debug)]
pub struct Source {
    runtime: Runtime,
    stream: Arc<StreamShared>,
    channel: u32,
    outcome: Arc<OutcomeBoard>,
    max_payload: usize,
}

impl Source {
    /// The channel this source produces on.
    pub fn channel(&self) -> ChannelId {
        ChannelId(self.channel)
    }

    /// Largest payload one emit may carry on this stream's datapath.
    pub fn max_payload(&self) -> usize {
        self.max_payload
    }

    /// Borrows a zero-copy buffer for a message of `len` bytes
    /// (`get_buffer`).
    ///
    /// In a multi-tenant runtime this is where isolation is enforced,
    /// before the application writes a single payload byte: the
    /// session's tenant is charged one admission token and the slot is
    /// lent against its quota.
    ///
    /// # Errors
    ///
    /// * [`InsaneError::PayloadTooLarge`] beyond the datapath's MTU.
    /// * [`InsaneError::AdmissionRejected`] / [`InsaneError::Shed`] /
    ///   [`InsaneError::Backpressure`] when the tenant outran its
    ///   admission rate (policy-dependent; see
    ///   [`crate::OverloadPolicy`]).
    /// * [`InsaneError::Memory`]\([`MemoryError::QuotaExceeded`]\) when
    ///   the tenant holds its full slot quota.
    /// * [`InsaneError::Memory`]\([`MemoryError::PoolExhausted`]\) when
    ///   the pools are exhausted (back-pressure: release consumed
    ///   buffers or retry).
    ///
    /// [`MemoryError::QuotaExceeded`]: crate::MemoryError::QuotaExceeded
    /// [`MemoryError::PoolExhausted`]: crate::MemoryError::PoolExhausted
    // insane-lint: hot-path-root
    pub fn get_buffer(&self, len: usize) -> Result<MessageBuffer, InsaneError> {
        if len > self.max_payload {
            return Err(InsaneError::PayloadTooLarge {
                len,
                max: self.max_payload,
            });
        }
        let inner = self.runtime.inner();
        let tenant = self.stream.tenant;
        inner.admission().admit(
            tenant,
            self.stream.qos.time_sensitivity.traffic_class(),
            epoch_ns,
        )?;
        let guard = inner.pools().lend(tenant, PAYLOAD_OFFSET + len)?;
        Ok(MessageBuffer {
            guard,
            payload_len: len,
        })
    }

    /// Emits a written buffer (`emit_data`).  The buffer must not be
    /// touched afterwards — there is no after-write protection, exactly
    /// as the paper specifies (§5.1); the type system enforces it here by
    /// consuming the buffer.
    ///
    /// # Errors
    ///
    /// * [`InsaneError::Closed`] on a closed stream.
    /// * [`InsaneError::Backpressure`] when the TX queue is full (the
    ///   buffer is released; re-acquire and retry).
    pub fn emit(&self, buffer: MessageBuffer) -> Result<EmitToken, InsaneError> {
        self.emit_internal(buffer, None)
    }

    /// Emits one fragment of a larger application-level message:
    /// `index`/`count` position it, `total_len` is the whole message's
    /// size, and `message_id` identifies the message — it becomes the
    /// wire sequence of every fragment, which is the consumer's
    /// reassembly key.  The Lunar streaming framework builds on this
    /// (§7.2).
    ///
    /// # Errors
    ///
    /// As [`Source::emit`].
    pub fn emit_fragment(
        &self,
        buffer: MessageBuffer,
        index: u16,
        count: u16,
        total_len: u32,
        message_id: u64,
    ) -> Result<EmitToken, InsaneError> {
        self.emit_internal(buffer, Some((index, count, total_len, message_id)))
    }

    // insane-lint: hot-path-root
    fn emit_internal(
        &self,
        buffer: MessageBuffer,
        frag: Option<(u16, u16, u32, u64)>,
    ) -> Result<EmitToken, InsaneError> {
        if self.stream.closed.load(Ordering::Acquire) || self.runtime.inner().is_stopped() {
            return Err(InsaneError::Closed);
        }
        let seq = self.stream.next_seq();
        self.outcome.emitted.fetch_add(1, Ordering::Relaxed);
        let class = self.stream.qos.time_sensitivity.traffic_class();
        let request = TxRequest {
            guard: buffer.guard,
            payload_len: buffer.payload_len,
            channel: self.channel,
            tenant: self.stream.tenant,
            class,
            seq,
            emit_ns: epoch_ns(),
            frag,
            outcome: Arc::clone(&self.outcome),
        };
        // insane-lint: allow(hot-path-alloc) -- MPMC ring push is fixed-capacity and never allocates
        match self.stream.tx.push(request) {
            Ok(()) => Ok(EmitToken { seq }),
            // Back-pressure: the refused request drops here, handing its
            // slot back, and the overload policy decides what the caller
            // hears — a retryable Backpressure, or a terminal Shed for
            // best-effort traffic under ShedLowest.
            Err(_refused) => {
                let admission = self.runtime.inner().admission();
                Err(admission.on_tx_full(self.stream.tenant, class))
            }
        }
    }

    /// Retrieves the outcome of a previous emit (`check_emit_outcome`).
    pub fn emit_outcome(&self, token: EmitToken) -> EmitOutcome {
        self.outcome.outcome_of(token.seq)
    }

    /// Total messages emitted through this source.
    pub fn emitted(&self) -> u64 {
        self.outcome.emitted.load(Ordering::Relaxed)
    }
}

/// Per-sink delivery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Messages delivered to this sink.
    pub received: u64,
    /// Messages dropped because the sink queue was full.
    pub dropped: u64,
    /// Deliveries that found a consumer parked in a blocking
    /// [`Sink::consume`] and paid to wake it; every other delivery makes
    /// no syscall.
    pub wakes: u64,
}

/// A consumer endpoint (`create_sink`).
#[derive(Debug)]
pub struct Sink {
    runtime: Runtime,
    shared: Arc<SinkShared>,
    has_callback: bool,
}

impl Sink {
    /// The channel this sink consumes.
    pub fn channel(&self) -> ChannelId {
        ChannelId(self.shared.channel)
    }

    /// Whether a message is ready (`data_available`).
    pub fn data_available(&self) -> bool {
        !self.shared.queue.is_empty()
    }

    /// Delivery statistics.
    pub fn stats(&self) -> SinkStats {
        SinkStats {
            received: self.shared.received.load(Ordering::Relaxed),
            dropped: self.shared.dropped.load(Ordering::Relaxed),
            wakes: self.shared.wakes.load(Ordering::Relaxed),
        }
    }

    /// Consumes the next message (`consume_data`).  The returned
    /// [`IncomingMessage`] borrows runtime memory; dropping it releases
    /// the buffer (`release_buffer`).
    ///
    /// # Errors
    ///
    /// * [`InsaneError::CallbackSink`] on a callback sink.
    /// * [`InsaneError::WouldBlock`] in non-blocking mode with no data.
    /// * [`InsaneError::RuntimeNotStarted`] for a blocking consume on a
    ///   manually-driven runtime (it would deadlock).
    /// * [`InsaneError::Closed`] when the sink closes mid-wait.
    // insane-lint: hot-path-root
    pub fn consume(&self, mode: ConsumeMode) -> Result<IncomingMessage, InsaneError> {
        if self.has_callback {
            return Err(InsaneError::CallbackSink);
        }
        if let Some(delivery) = self.shared.queue.pop() {
            return Ok(IncomingMessage::new(delivery, &self.shared.telemetry));
        }
        match mode {
            ConsumeMode::NonBlocking => Err(InsaneError::WouldBlock),
            ConsumeMode::Blocking => {
                if !self.runtime.inner().is_started() {
                    return Err(InsaneError::RuntimeNotStarted);
                }
                loop {
                    if let Some(delivery) = self.shared.queue.pop() {
                        return Ok(IncomingMessage::new(delivery, &self.shared.telemetry));
                    }
                    if self.shared.closed.load(Ordering::Acquire)
                        || self.runtime.inner().is_stopped()
                    {
                        return Err(InsaneError::Closed);
                    }
                    // insane-lint: allow(hot-path-block) -- waiting is the caller's opt-in (ConsumeMode::Blocking); the non-blocking path returned above
                    self.shared.park();
                }
            }
        }
    }

    /// Closes the sink and withdraws its subscription.
    pub fn close(&self) {
        self.shared.close();
        self.runtime
            .inner()
            .unregister_sink(self.shared.id, self.shared.channel);
    }
}

impl Drop for Sink {
    fn drop(&mut self) {
        self.close();
    }
}

/// A received message borrowing runtime memory (zero-copy receive).
///
/// Deref yields the payload bytes; [`IncomingMessage::meta`] exposes the
/// channel/sequence/fragment metadata; [`IncomingMessage::breakdown`]
/// reports the Fig. 6 latency components.  Dropping the message releases
/// the borrowed buffer (`release_buffer`).
#[derive(Debug)]
pub struct IncomingMessage {
    /// The delivery as the sink was handed it, shared with every other
    /// sink of the fan-out; the slot goes back with the last holder.
    delivery: Arc<Delivery>,
    consumed_ns: u64,
}

impl IncomingMessage {
    pub(crate) fn new(delivery: Arc<Delivery>, telemetry: &crate::telemetry::SinkTel) -> Self {
        let consumed_ns = epoch_ns();
        telemetry.observe(&delivery.meta, consumed_ns);
        IncomingMessage {
            delivery,
            consumed_ns,
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.delivery.len
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.delivery.len == 0
    }

    /// Message metadata (channel, seq, fragmentation, timestamps).
    pub fn meta(&self) -> &MessageMeta {
        &self.delivery.meta
    }

    /// One-way latency breakdown for this message (Fig. 6 components).
    pub fn breakdown(&self) -> LatencyBreakdown {
        LatencyBreakdown::from_meta(&self.delivery.meta, self.consumed_ns)
    }

    /// Explicit release (equivalent to drop; mirrors `release_buffer`).
    pub fn release(self) {}
}

impl core::ops::Deref for IncomingMessage {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        let delivery = &*self.delivery;
        &delivery.store.as_slice()[delivery.offset..delivery.offset + delivery.len]
    }
}
