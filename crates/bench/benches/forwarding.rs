//! **E6 — forwarding throughput vs architecture** (paper §6's
//! positioning against Click and §5's "validate its performance and
//! flexibility").
//!
//! Series: packets/second through an N-element pipeline, N ∈ {3, 6, 12},
//! for three architectures over identical element semantics:
//!
//! * `monolithic` — one hand-coded function (lower bound, N-independent);
//! * `click` — statically compiled element graph, index dispatch,
//!   configuration but no reconfiguration;
//! * `netkit` — Router-CF components, receptacle dispatch, full
//!   run-time reconfigurability;
//! * `netkit_fused` — NETKIT with the head binding snapshot taken once
//!   (the vtable-bypass optimisation).
//!
//! Expected shape: monolithic ≤ click ≤ netkit per-packet cost, with the
//! netkit / click gap bounded (the price of reconfigurability) and
//! `netkit_fused` recovering most of it.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};

use netkit_baselines::click::ClickRouter;
use netkit_baselines::monolithic::MonolithicForwarder;
use netkit_baselines::sharded::{ShardedClick, ShardedMonolithic};
use netkit_bench::{
    click_chain_config, netkit_chain, netkit_sharded_chain, routing_table, test_packet,
};
use netkit_kernel::nic::{Nic, PortId};
use netkit_kernel::shard::ShardSpec;
use netkit_packet::batch::{BatchPool, PacketBatch};
use netkit_packet::packet::{Packet, PacketBuilder};
use netkit_packet::pool::BufferPool;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_forwarding");
    group.throughput(Throughput::Elements(1));
    let pkt = test_packet();

    // Monolithic: N-independent floor.
    let mono = MonolithicForwarder::new(routing_table(256, 4), 4, 1024);
    group.bench_function("monolithic", |b| {
        b.iter_batched(
            || pkt.clone(),
            |p| {
                let port = mono.forward(p).unwrap();
                mono.drain(port);
            },
            BatchSize::SmallInput,
        )
    });

    for n in [3usize, 6, 12] {
        // Click chain.
        let click = ClickRouter::compile(&click_chain_config(n)).expect("compiles");
        group.bench_with_input(BenchmarkId::new("click", n), &n, |b, _| {
            b.iter_batched(
                || pkt.clone(),
                |p| click.push("c0", p),
                BatchSize::SmallInput,
            )
        });

        // NETKIT chain (reconfigurable path).
        let rig = netkit_chain(n).expect("rig");
        group.bench_with_input(BenchmarkId::new("netkit", n), &n, |b, _| {
            b.iter_batched(
                || pkt.clone(),
                |p| rig.entry.push(p).unwrap(),
                BatchSize::SmallInput,
            )
        });

        // NETKIT with the entry resolved once (fused head).
        let rig = netkit_chain(n).expect("rig");
        let fused = rig.entry.clone();
        group.bench_with_input(BenchmarkId::new("netkit_fused", n), &n, |b, _| {
            b.iter_batched(
                || pkt.clone(),
                |p| fused.push(p).unwrap(),
                BatchSize::SmallInput,
            )
        });
    }

    group.finish();
}

/// The batch-size series: per-packet cost of moving bursts of B packets
/// through a fixed 6-element pipeline for every architecture, B ∈
/// {1, 8, 32, 256}. Tracks the scalar-vs-batch gap the batch-first API
/// redesign exists to close — netkit pays one interceptor-chain
/// traversal and one receptacle lock per *batch*, so its per-packet cost
/// should fall towards the click/monolithic floor as B grows.
fn bench_batch(c: &mut Criterion) {
    const CHAIN: usize = 6;
    let mut group = c.benchmark_group("e6_forwarding_batch");
    let pkt = test_packet();

    for batch_size in [1usize, 8, 32, 256] {
        group.throughput(Throughput::Elements(batch_size as u64));
        let burst = || -> Vec<_> { vec![pkt.clone(); batch_size] };

        // Monolithic floor: forward_batch amortizes its stats lock.
        let mono = MonolithicForwarder::new(routing_table(256, 4), 4, usize::MAX >> 1);
        group.bench_with_input(
            BenchmarkId::new("monolithic", batch_size),
            &batch_size,
            |b, _| {
                b.iter_batched(
                    burst,
                    |pkts| {
                        for r in mono.forward_batch(pkts) {
                            mono.drain(r.unwrap());
                        }
                    },
                    BatchSize::SmallInput,
                )
            },
        );

        // Click: entry resolved once per burst, index dispatch inside.
        let click = ClickRouter::compile(&click_chain_config(CHAIN)).expect("compiles");
        group.bench_with_input(
            BenchmarkId::new("click", batch_size),
            &batch_size,
            |b, _| {
                b.iter_batched(
                    burst,
                    |pkts| click.push_batch("c0", pkts),
                    BatchSize::SmallInput,
                )
            },
        );

        // NETKIT scalar: one receptacle traversal per packet (the cost
        // the batch path amortizes; B repeated scalar pushes).
        let rig = netkit_chain(CHAIN).expect("rig");
        group.bench_with_input(
            BenchmarkId::new("netkit_scalar", batch_size),
            &batch_size,
            |b, _| {
                b.iter_batched(
                    burst,
                    |pkts| {
                        for p in pkts {
                            rig.entry.push(p).unwrap();
                        }
                    },
                    BatchSize::SmallInput,
                )
            },
        );

        // NETKIT batch: one traversal per burst.
        let rig = netkit_chain(CHAIN).expect("rig");
        group.bench_with_input(
            BenchmarkId::new("netkit", batch_size),
            &batch_size,
            |b, _| {
                b.iter_batched(
                    || PacketBatch::from_packets(burst()),
                    |batch| {
                        assert!(rig.entry.push_batch(batch).all_ok());
                    },
                    BatchSize::SmallInput,
                )
            },
        );

        // NETKIT batch through a fused (snapshot) head binding.
        let rig = netkit_chain(CHAIN).expect("rig");
        let fused = rig.entry.clone();
        group.bench_with_input(
            BenchmarkId::new("netkit_fused", batch_size),
            &batch_size,
            |b, _| {
                b.iter_batched(
                    || PacketBatch::from_packets(burst()),
                    |batch| {
                        assert!(fused.push_batch(batch).all_ok());
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }

    group.finish();
}

/// The worker-count scaling series: a fixed offered load of
/// `BATCHES_PER_ITER` batches of `BATCH` packets (each batch RSS-stamped
/// so steering costs what hardware steering costs: a modulo) pushed
/// through a 12-stage pipeline replicated over 1/2/4/8 run-to-completion
/// shards, for all three architectures. Per-iteration cost includes the
/// dispatch fan-out and a full flush barrier, so the reported
/// packets/second is end-to-end, not per-worker. Expected shape: ~linear
/// until the dispatcher or the memory system saturates; the acceptance
/// bar is ≥2x at 4 shards vs 1 (see crates/bench/NOTES.md for the
/// recorded curve).
fn bench_shards(c: &mut Criterion) {
    const BATCH: usize = 32;
    const CHAIN: usize = 12;
    const BATCHES_PER_ITER: usize = 64;

    let mut group = c.benchmark_group("e6_forwarding_shards");
    group.throughput(Throughput::Elements((BATCH * BATCHES_PER_ITER) as u64));

    // One canned burst: distinct RSS stamps spread round-robin so every
    // shard count divides the load evenly (flows, not packets, are the
    // spreading unit — one stamp per batch-column models one flow).
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

    for workers in [1usize, 2, 4, 8] {
        let spec = ShardSpec::new(workers);

        // NETKIT sharded pipeline (full reconfigurable element graphs).
        let (pipe, _sinks) = netkit_sharded_chain(CHAIN, spec).expect("rig");
        group.bench_with_input(
            BenchmarkId::new("netkit_sharded", workers),
            &workers,
            |b, _| {
                b.iter_batched(
                    || {
                        bursts
                            .iter()
                            .map(|pkts| PacketBatch::from_packets(pkts.clone()))
                            .collect::<Vec<_>>()
                    },
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
        pipe.shutdown();

        // NETKIT through the multi-queue NIC path: hardware RSS has
        // already steered every burst onto its worker's ring
        // (`Nic::inject_rx_frame` → `rx_burst_batch`), so the submitting
        // thread pays one ring enqueue per batch and no partition at
        // all. This is the architecture's real fast path; the
        // `netkit_sharded` entry above additionally pays the software
        // partition for un-steered ingress.
        let (pipe, _sinks) = netkit_sharded_chain(CHAIN, spec).expect("rig");
        let steered: Vec<(usize, Vec<Packet>)> = (0..BATCHES_PER_ITER)
            .map(|b| {
                let shard = b % workers;
                let pkts = (0..BATCH)
                    .map(|_| {
                        let mut p = test_packet();
                        p.meta.rss_hash = Some(shard as u64);
                        p
                    })
                    .collect();
                (shard, pkts)
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("netkit_sharded_mq", workers),
            &workers,
            |b, _| {
                b.iter_batched(
                    || {
                        steered
                            .iter()
                            .map(|(s, pkts)| (*s, PacketBatch::from_packets(pkts.clone())))
                            .collect::<Vec<_>>()
                    },
                    |batches| {
                        for (shard, batch) in batches {
                            let _ = pipe.submit(shard, batch);
                        }
                        pipe.flush();
                    },
                    BatchSize::SmallInput,
                )
            },
        );
        pipe.shutdown();

        // Zero-copy steering floor: the index-based split
        // (`shard_split` — counting sort over stamped hashes, borrowing
        // views, no sub-batch re-materialisation).
        group.bench_with_input(
            BenchmarkId::new("partition_only_zero_copy", workers),
            &workers,
            |b, _| {
                b.iter_batched(
                    || {
                        bursts
                            .iter()
                            .map(|pkts| PacketBatch::from_packets(pkts.clone()))
                            .collect::<Vec<_>>()
                    },
                    |batches| {
                        for batch in batches {
                            let split = batch.shard_split(workers);
                            // Touch every view so the steering result is
                            // actually consumed, as a dispatcher would.
                            criterion::black_box(split.views().map(|v| v.len()).sum::<usize>());
                        }
                    },
                    BatchSize::SmallInput,
                )
            },
        );

        // NIC rx materialisation, pool-on vs pool-off: the per-frame
        // cost of inject (RSS parse + steer + buffer write) plus
        // per-queue burst materialisation into rss-stamped packets.
        // `pooled` leases frame slabs from a BufferPool and batch
        // containers from a BatchPool (steady state allocates nothing);
        // `unpooled` allocates both per frame/batch — the delta is what
        // the buffer-management CF buys on the rx path.
        let frames: Vec<Vec<u8>> = (0..(BATCHES_PER_ITER * BATCH) as u16)
            .map(|i| {
                PacketBuilder::udp_v4("192.0.2.1", "10.0.7.9", 5000 + (i % 512), 5001)
                    .payload_len(64)
                    .build()
                    .data()
                    .to_vec()
            })
            .collect();
        let rx_cycle = |nic: &Nic, take_batch: &mut dyn FnMut() -> PacketBatch| {
            for f in &frames {
                nic.inject_rx_frame(f);
            }
            for queue in 0..workers {
                loop {
                    let mut batch = take_batch();
                    if nic.rx_burst_batch(queue, BATCH, &mut batch) == 0 {
                        break;
                    }
                    criterion::black_box(&batch);
                }
            }
        };

        let buffers = BufferPool::new(2048, 0, 1 << 14);
        let pooled_nic = Nic::with_queues(PortId(0), workers, 1 << 12, 16, 1_000_000_000)
            .with_buffer_pool(buffers);
        let batch_pool = BatchPool::new(BATCH, 8, 64);
        group.bench_with_input(
            BenchmarkId::new("nic_rx_pooled", workers),
            &workers,
            |b, _| {
                b.iter(|| rx_cycle(&pooled_nic, &mut || batch_pool.take()));
            },
        );

        let plain_nic = Nic::with_queues(PortId(1), workers, 1 << 12, 16, 1_000_000_000);
        group.bench_with_input(
            BenchmarkId::new("nic_rx_unpooled", workers),
            &workers,
            |b, _| {
                b.iter(|| rx_cycle(&plain_nic, &mut || PacketBatch::with_capacity(BATCH)));
            },
        );

        // Click replicas behind the same spec and steering.
        let click =
            ShardedClick::compile(&click_chain_config(CHAIN), "c0", spec).expect("compiles");
        group.bench_with_input(
            BenchmarkId::new("click_sharded", workers),
            &workers,
            |b, _| {
                b.iter_batched(
                    || bursts.clone(),
                    |batches| {
                        for pkts in batches {
                            click.push_batch(pkts);
                        }
                        click.flush();
                    },
                    BatchSize::SmallInput,
                )
            },
        );
        click.shutdown();

        // Monolithic replicas behind the same spec and steering.
        let mono = ShardedMonolithic::new(|| routing_table(256, 4), 4, usize::MAX >> 1, spec);
        group.bench_with_input(
            BenchmarkId::new("monolithic_sharded", workers),
            &workers,
            |b, _| {
                b.iter_batched(
                    || bursts.clone(),
                    |batches| {
                        for pkts in batches {
                            mono.forward_batch(pkts);
                        }
                        mono.flush();
                    },
                    BatchSize::SmallInput,
                )
            },
        );
        mono.shutdown();
    }

    group.finish();
}

criterion_group!(benches, bench, bench_batch, bench_shards);
criterion_main!(benches);
