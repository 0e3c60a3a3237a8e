//! Criterion micro-benchmarks of the middleware's ns-scale primitives.
//!
//! These support the paper's headline claim that INSANE's abstraction
//! layer adds only nanosecond-scale work per operation (§6.2): the slot
//! pool, the token queues, the scheduler, and the full emit→dispatch
//! local path are measured in isolation, with no modeled device costs
//! involved (the local path never touches a datapath).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::time::Instant;

use insane_core::{
    ChannelId, ConsumeMode, InsaneError, QosPolicy, Runtime, RuntimeConfig, Session, ThreadingMode,
};
use insane_fabric::{Fabric, Technology, TestbedProfile};
use insane_memory::{PoolConfig, SlotPool};
use insane_queues::channel;
use insane_tsn::{FifoScheduler, Scheduler, TrafficClass};

fn bench_queues(c: &mut Criterion) {
    let mut group = c.benchmark_group("queues");
    group.throughput(Throughput::Elements(1));
    group.bench_function("spsc_push_pop", |b| {
        let (tx, rx) = channel::<u64>(1024);
        b.iter(|| {
            tx.push(7).expect("push");
            std::hint::black_box(rx.pop()).expect("pop")
        });
    });
    group.bench_function("mpmc_push_pop", |b| {
        let q = insane_queues::MpmcQueue::<u64>::new(1024);
        b.iter(|| {
            q.push(7).expect("push");
            std::hint::black_box(q.pop()).expect("pop")
        });
    });
    group.finish();
}

fn bench_memory(c: &mut Criterion) {
    let mut group = c.benchmark_group("memory_manager");
    group.throughput(Throughput::Elements(1));
    group.bench_function("slot_acquire_release", |b| {
        let pool = SlotPool::new(PoolConfig::new(0, 2048, 64)).expect("pool");
        b.iter(|| {
            let guard = pool.acquire(64).expect("acquire");
            let token = guard.into_token();
            pool.release(token).expect("release");
        });
    });
    group.bench_function("slot_write_view_roundtrip", |b| {
        let pool = SlotPool::new(PoolConfig::new(0, 2048, 64)).expect("pool");
        let payload = [7u8; 64];
        b.iter(|| {
            let mut guard = pool.acquire(64).expect("acquire");
            guard.copy_from_slice(&payload);
            let view = pool.view(guard.into_token()).expect("view");
            std::hint::black_box(&*view);
        });
    });
    group.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler");
    group.throughput(Throughput::Elements(1));
    group.bench_function("fifo_enqueue_dequeue", |b| {
        let mut scheduler = FifoScheduler::new();
        let now = Instant::now();
        let mut out = Vec::with_capacity(1);
        b.iter(|| {
            scheduler.enqueue(7u64, TrafficClass::BEST_EFFORT, now);
            scheduler.dequeue_ready(&mut out, 1, now);
            out.clear();
        });
    });
    group.finish();
}

fn bench_local_path(c: &mut Criterion) {
    // The complete middleware path with zero modeled costs: emit → TX
    // queue → runtime poll → local shared-memory dispatch → consume.
    let fabric = Fabric::new(TestbedProfile::local());
    let host = fabric.add_host("solo");
    let rt = Runtime::start(
        RuntimeConfig::new(1)
            .with_technologies(&[Technology::KernelUdp])
            .with_threading(ThreadingMode::Manual),
        &fabric,
        host,
    )
    .expect("runtime");
    let session = Session::connect(&rt).expect("session");
    let stream = session.create_stream(QosPolicy::slow()).expect("stream");
    let source = stream.create_source(ChannelId(1)).expect("source");
    let sink = stream.create_sink(ChannelId(1)).expect("sink");

    let mut group = c.benchmark_group("insane_local_path");
    group.throughput(Throughput::Elements(1));
    group.bench_function("emit_poll_consume_64b", |b| {
        let payload = [7u8; 64];
        b.iter(|| {
            let mut buf = source.get_buffer(64).expect("buffer");
            buf.copy_from_slice(&payload);
            source.emit(buf).expect("emit");
            rt.poll_once();
            loop {
                match sink.consume(ConsumeMode::NonBlocking) {
                    Ok(msg) => {
                        std::hint::black_box(&*msg);
                        break;
                    }
                    Err(InsaneError::WouldBlock) => {
                        rt.poll_once();
                    }
                    Err(e) => panic!("{e}"),
                }
            }
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_queues,
    bench_memory,
    bench_scheduler,
    bench_local_path
);
criterion_main!(benches);
