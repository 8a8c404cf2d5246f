//! **E10 — elephant-flow skew and reflective rebalancing** (ROADMAP
//! "work stealing / rebalancing for skewed flow distributions").
//!
//! Workload per iteration: 64 batches × 32 packets (2048 packets),
//! RSS-stamped so that **one elephant flow carries 50% of the
//! packets** and the remaining 50% (six mouse flows) hash to buckets
//! congruent to the elephant's shard — under the static identity
//! table, every packet lands on shard 0 while its siblings idle, the
//! exact pathology the `rebalance` subsystem exists to correct.
//!
//! Series (each at 2/4/8 workers):
//!
//! * `elephant_static` — the skewed load through the identity table;
//! * `elephant_rebalanced` — the same load after one profiling window
//!   and a `RebalancePolicy` migration (mice spread, elephant pinned);
//! * `elephant_uniform` — the same offered load with uniform stamps:
//!   the no-skew floor rebalancing aims back towards;
//! * `rebalance_install` — the control-plane cost of one
//!   `install_bucket_map` epoch (quiesce + table swap), i.e. what a
//!   migration pauses the pipeline for.
//!
//! **Host caveat (single-CPU container): the static/rebalanced gap in
//! wall-clock only appears on a multi-core host**, where throughput is
//! bottleneck-shard service time. On one CPU the worker threads
//! serialise and every placement costs the same total work; see
//! `crates/bench/NOTES.md` for the measured decomposition and the
//! makespan model (also asserted structurally by
//! `tests/rebalance_elephant.rs`: rebalancing drops the
//! most-loaded-shard share from 100% to ≤ 62.5% of packets).
//!
//! **E11 — autonomous control-loop turns** (`e11_autonomous_rebalance`)
//! prices what the reflective loop costs *per tick* when it runs with
//! no external caller, one series per decision outcome:
//!
//! * `control_turn_gathering` — idle dataplane, sub-min window: the
//!   floor every backed-off tick pays (snapshot + gate);
//! * `control_turn_hold` — judged-but-declined balanced window,
//!   including the weighted plan and the decay step (the steady-state
//!   no-op tick on a busy, balanced dataplane);
//! * `control_cycle_migrate` — the full detect+adapt cycle: re-seed a
//!   colocated 256-packet window, weighted decide, epoch-quiesced
//!   install, window retire (the bare install epoch is the E10
//!   `rebalance_install` row; subtract it and the dispatch floor for
//!   the decide-only share);
//! * `window_decay` — one exponential decay pass over all 256 bucket
//!   meters, the per-held-tick aging cost in isolation.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};

use netkit_bench::{netkit_sharded_chain, test_packet};
use netkit_kernel::shard::ShardSpec;
use netkit_packet::batch::PacketBatch;
use netkit_packet::packet::Packet;
use netkit_router::shard::{RebalanceController, RebalancePolicy, ShardedPipeline};

const BATCH: usize = 32;
const CHAIN: usize = 12;
const BATCHES_PER_ITER: usize = 64;

/// The skewed offered load: per 32-packet batch, 16 packets of the
/// elephant (bucket 0) and 16 spread over six mouse buckets, all
/// congruent to shard 0 under the identity table at `workers` shards.
fn skewed_bursts(workers: usize) -> Vec<Vec<Packet>> {
    let mice: Vec<u64> = (1..=6).map(|k| (k * workers) as u64).collect();
    (0..BATCHES_PER_ITER)
        .map(|_| {
            (0..BATCH)
                .map(|i| {
                    let mut p = test_packet();
                    p.meta.rss_hash = Some(if i % 2 == 0 {
                        0 // the elephant's bucket: 50% of all packets
                    } else {
                        mice[(i / 2) % mice.len()]
                    });
                    p
                })
                .collect()
        })
        .collect()
}

/// The same offered load with uniform stamps — the no-skew floor.
fn uniform_bursts() -> Vec<Vec<Packet>> {
    (0..BATCHES_PER_ITER as u64)
        .map(|b| {
            (0..BATCH)
                .map(|i| {
                    let mut p = test_packet();
                    p.meta.rss_hash = Some(b * BATCH as u64 + i as u64);
                    p
                })
                .collect()
        })
        .collect()
}

fn drive(pipe: &ShardedPipeline, bursts: &[Vec<Packet>]) {
    for pkts in bursts {
        pipe.dispatch(PacketBatch::from_packets(pkts.clone()));
    }
    pipe.flush();
}

fn bench_elephant(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_elephant_rebalance");
    group.throughput(Throughput::Elements((BATCH * BATCHES_PER_ITER) as u64));

    for workers in [2usize, 4, 8] {
        let spec = ShardSpec::new(workers);
        let skewed = skewed_bursts(workers);
        let uniform = uniform_bursts();
        let clone_bursts = |bursts: &[Vec<Packet>]| -> Vec<PacketBatch> {
            bursts
                .iter()
                .map(|pkts| PacketBatch::from_packets(pkts.clone()))
                .collect()
        };

        // Static identity steering: everything funnels to shard 0.
        let (pipe, _sinks) = netkit_sharded_chain(CHAIN, spec).expect("rig");
        group.bench_with_input(
            BenchmarkId::new("elephant_static", workers),
            &workers,
            |b, _| {
                b.iter_batched(
                    || clone_bursts(&skewed),
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
        assert_eq!(
            pipe.shard_loads().iter().filter(|l| l.packets > 0).count(),
            1,
            "static skew must pin one shard"
        );
        pipe.shutdown();

        // Rebalanced: one profiling window, one migration, then the
        // measured steady state runs the planned table.
        let (pipe, _sinks) = netkit_sharded_chain(CHAIN, spec).expect("rig");
        drive(&pipe, &skewed); // profiling window
        let mut ctl = RebalanceController::new(
            RebalancePolicy {
                pressure_weight: 0.0,
                decay: 1.0,
                ..RebalancePolicy::default()
            },
            0,
        );
        let outcome = pipe.control_turn(&mut ctl, &[]);
        if workers > 1 {
            let (plan, _) = outcome.expect("full colocation must trigger");
            assert!(plan.imbalance_after < plan.imbalance_before);
        }
        group.bench_with_input(
            BenchmarkId::new("elephant_rebalanced", workers),
            &workers,
            |b, _| {
                b.iter_batched(
                    || clone_bursts(&skewed),
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
        assert!(
            pipe.shard_loads().iter().filter(|l| l.packets > 0).count() > 1,
            "rebalanced load must spread"
        );
        pipe.shutdown();

        // Uniform floor: what no-skew costs on this host.
        let (pipe, _sinks) = netkit_sharded_chain(CHAIN, spec).expect("rig");
        group.bench_with_input(
            BenchmarkId::new("elephant_uniform", workers),
            &workers,
            |b, _| {
                b.iter_batched(
                    || clone_bursts(&uniform),
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

        // Control-plane cost of one migration epoch: quiesce all
        // workers, swap the table, release. Alternates between two
        // tables so every install really moves buckets.
        let (pipe, _sinks) = netkit_sharded_chain(CHAIN, spec).expect("rig");
        let identity = pipe.bucket_map();
        let mut shifted = identity.clone();
        if workers > 1 {
            for bucket in 0..netkit_packet::steer::RSS_BUCKETS {
                shifted.set(bucket, (identity.shard_of_bucket(bucket) + 1) % workers);
            }
        }
        let mut flip = false;
        group.bench_with_input(
            BenchmarkId::new("rebalance_install", workers),
            &workers,
            |b, _| {
                b.iter(|| {
                    flip = !flip;
                    let map = if flip {
                        shifted.clone()
                    } else {
                        identity.clone()
                    };
                    criterion::black_box(pipe.install_bucket_map(map, &[]));
                })
            },
        );
        pipe.shutdown();
    }

    group.finish();
}

fn controller(min_samples: u64, decay: f64) -> RebalanceController {
    RebalanceController::new(
        RebalancePolicy {
            min_samples,
            decay,
            ..RebalancePolicy::default() // max_imbalance 1.25, pressure_weight 1.0
        },
        0,
    )
}

/// A burst fully colocated on shard 0 under the identity table at
/// `workers` shards: elephant bucket 0 (50%) plus six congruent mice.
fn colocated_burst(workers: usize, n: usize) -> PacketBatch {
    (0..n as u64)
        .map(|i| {
            let mut p = test_packet();
            p.meta.rss_hash = Some(if i % 2 == 0 {
                0
            } else {
                (workers as u64) * (1 + i % 6)
            });
            p
        })
        .collect()
}

/// A burst spread evenly: one bucket per shard, equal counts.
fn balanced_burst(workers: usize, n: usize) -> PacketBatch {
    (0..n as u64)
        .map(|i| {
            let mut p = test_packet();
            p.meta.rss_hash = Some(i % workers as u64);
            p
        })
        .collect()
}

fn bench_autonomous(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_autonomous_rebalance");

    for workers in [2usize, 4, 8] {
        let spec = ShardSpec::new(workers);

        // Gathering: the idle-dataplane tick floor (empty window).
        let (pipe, _sinks) = netkit_sharded_chain(CHAIN, spec).expect("rig");
        let mut ctl = controller(64, 0.75);
        group.bench_with_input(
            BenchmarkId::new("control_turn_gathering", workers),
            &workers,
            |b, _| {
                b.iter(|| criterion::black_box(pipe.control_turn(&mut ctl, &[])));
            },
        );
        assert_eq!(ctl.migrations(), 0, "an empty window must never act");
        pipe.shutdown();

        // Hold: judged balanced window, weighted plan + decay pass per
        // tick. decay = 1.0 keeps the window judged across however
        // many calibration turns the harness batches (the decay pass
        // itself is still executed; `window_decay` prices a shedding
        // pass separately).
        let (pipe, _sinks) = netkit_sharded_chain(CHAIN, spec).expect("rig");
        let mut ctl = controller(64, 1.0);
        group.bench_with_input(
            BenchmarkId::new("control_turn_hold", workers),
            &workers,
            |b, _| {
                b.iter_batched(
                    || {
                        pipe.dispatch(balanced_burst(workers, 256));
                        pipe.flush();
                    },
                    |()| criterion::black_box(pipe.control_turn(&mut ctl, &[])),
                    BatchSize::SmallInput,
                )
            },
        );
        assert_eq!(ctl.migrations(), 0, "balance must hold, not migrate");
        assert!(ctl.holds() > 0);
        pipe.shutdown();

        // Migrate: the full adaptation cycle — re-skew the evidence
        // (identity install + one colocated 256-packet window) and
        // take the migrating turn. The row prices detect+adapt
        // end-to-end; subtract E10's `rebalance_install` (the bare
        // epoch) and the dispatch floor for the decide-only share.
        let (pipe, _sinks) = netkit_sharded_chain(CHAIN, spec).expect("rig");
        let identity = pipe.bucket_map();
        let mut ctl = controller(64, 0.75);
        group.bench_with_input(
            BenchmarkId::new("control_cycle_migrate", workers),
            &workers,
            |b, _| {
                b.iter(|| {
                    pipe.install_bucket_map(identity.clone(), &[]);
                    pipe.dispatch(colocated_burst(workers, 256));
                    pipe.flush();
                    let out = pipe.control_turn(&mut ctl, &[]);
                    assert!(out.is_some(), "colocation must migrate every cycle");
                    criterion::black_box(out)
                })
            },
        );
        assert!(ctl.migrations() > 0);
        pipe.shutdown();
    }

    // Window decay in isolation: one pass over all 256 bucket meters.
    let (pipe, _sinks) = netkit_sharded_chain(CHAIN, ShardSpec::new(4)).expect("rig");
    pipe.dispatch(balanced_burst(4, 256));
    pipe.flush();
    group.bench_function("window_decay", |b| {
        b.iter(|| pipe.decay_bucket_loads(criterion::black_box(0.999)));
    });
    pipe.shutdown();

    group.finish();
}

criterion_group!(benches, bench_elephant, bench_autonomous);
criterion_main!(benches);
