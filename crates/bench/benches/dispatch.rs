//! **E13 — dispatch decomposition: move-free shared-batch publish**
//! (the PR's acceptance experiment; see `crates/bench/NOTES.md`).
//!
//! Decomposes the software-dispatch producer path into its stages,
//! workers ∈ {1, 2, 4, 8}:
//!
//! * `split_only` — the counting-sort index split plus the shared-parent
//!   wrap (`shard_split` → `into_shared`), no ring traffic: what the
//!   dispatch thread pays *before* any publish.
//! * `publish_shared` — the move-free protocol
//!   ([`ShardedPipeline::dispatch`]): split, wrap the parent once, then
//!   a single gate transaction covering the whole fan-out and one
//!   refcount-bump descriptor write per target ring. The packet moves
//!   happen later, on the workers (`SharedShardRange::take_into`).
//! * `full_shared` — the same protocol plus a `flush` barrier per
//!   iteration: end-to-end cost including worker service time, the
//!   number the e6 scaling series reports.
//!
//! The publish-only series deliberately do **not** flush inside the
//! measured routine — the rings are sized deep (`RING`) so the producer
//! never blocks, and the workers drain concurrently in the background;
//! the measured window is the producer side alone, which is the cost
//! this PR moves. On a 1-CPU host the full-* series serialise producer
//! and worker time, so only the publish-* deltas are meaningful there
//! (the JSON report's `meta/cpus` key records which case a run was).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};

use netkit_bench::{netkit_sharded_chain, test_packet};
use netkit_kernel::shard::ShardSpec;
use netkit_packet::batch::PacketBatch;
use netkit_packet::packet::Packet;

const BATCH: usize = 32;
const BATCHES_PER_ITER: usize = 64;
const CHAIN: usize = 6;
/// Deep rings: the publish-only series must never backpressure, so the
/// measured window stays pure producer cost.
const RING: usize = 1 << 15;

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_dispatch");
    group.throughput(Throughput::Elements((BATCH * BATCHES_PER_ITER) as u64));

    // Same spreading scheme as e6_forwarding_shards: one distinct RSS
    // stamp per batch column, so every worker count divides the load
    // evenly and the split's counting sort sees realistic fan-out.
    let make_burst = |stamp: u64| -> Vec<Packet> {
        (0..BATCH)
            .map(|i| {
                let mut p = test_packet();
                p.meta.rss_hash = Some(stamp * BATCH as u64 + i as u64);
                p
            })
            .collect()
    };
    let bursts: Vec<Vec<Packet>> = (0..BATCHES_PER_ITER as u64).map(make_burst).collect();
    let clone_bursts = || -> Vec<PacketBatch> {
        bursts
            .iter()
            .map(|pkts| PacketBatch::from_packets(pkts.clone()))
            .collect()
    };

    for workers in [1usize, 2, 4, 8] {
        // Stage floor: split + shared wrap, no publish at all.
        group.bench_with_input(BenchmarkId::new("split_only", workers), &workers, |b, _| {
            b.iter_batched(
                clone_bursts,
                |batches| {
                    for batch in batches {
                        let shared = batch.shard_split(workers).into_shared();
                        // Consume the steering result as a
                        // dispatcher would.
                        criterion::black_box(
                            (0..workers).map(|s| shared.shard_len(s)).sum::<usize>(),
                        );
                    }
                },
                BatchSize::SmallInput,
            )
        });

        let spec = ShardSpec::new(workers).with_ring_capacity(RING);
        let (pipe, _sinks) = netkit_sharded_chain(CHAIN, spec).expect("rig");

        // Producer-side cost of the shared fan-out protocol.
        group.bench_with_input(
            BenchmarkId::new("publish_shared", workers),
            &workers,
            |b, _| {
                b.iter_batched(
                    clone_bursts,
                    |batches| {
                        for batch in batches {
                            pipe.dispatch(batch);
                        }
                    },
                    BatchSize::SmallInput,
                )
            },
        );
        pipe.flush();

        // End-to-end: publish plus the flush barrier (worker service
        // time included — producer/worker overlap needs real cores).
        group.bench_with_input(
            BenchmarkId::new("full_shared", workers),
            &workers,
            |b, _| {
                b.iter_batched(
                    clone_bursts,
                    |batches| {
                        for batch in batches {
                            pipe.dispatch(batch);
                        }
                        pipe.flush();
                    },
                    BatchSize::SmallInput,
                )
            },
        );

        let stats = pipe.shutdown();
        // Deep rings and live workers: nothing may have been dropped,
        // or the publish-only numbers measured tail drops, not cost.
        assert_eq!(stats.dropped, 0, "E13 must not shed load");
        assert!(stats.packets > 0, "the rigs really forwarded traffic");
    }

    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
