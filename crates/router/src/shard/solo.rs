//! Deterministic single-threaded driver for sharded element graphs —
//! the simulation entry into the real dataplane.
//!
//! [`SoloPipeline`] runs the *same* shard core as
//! [`ShardedPipeline`](super::ShardedPipeline) — same factory-built
//! replicas, same steering table, same per-batch program, same control
//! turn — but executes shards **in index order on the calling
//! thread**. No worker pool, no rings, no quiesce: the caller is always
//! at a batch boundary, so a steering-table swap is a plain assignment
//! and a run is bit-for-bit reproducible. What this driver does not
//! model is listed once, in the [`shard`](super) module docs.
//!
//! That determinism is the whole point: a discrete-event simulator can
//! host one `SoloPipeline` per node and drive thousands of *real*
//! stateful dataplanes (conntrack/NAT/load-balancer/guard chains,
//! stratum-3 media filters) from simulated time, with the autonomous
//! [`RebalanceController`] deciding per node — and replay the entire
//! city identically from a seed. The differential tests in
//! `tests/sim_pipeline_differential.rs` pin the equivalence with the
//! threaded driver: identical verdict counts, per-shard multisets,
//! per-flow order, and control-turn decisions.

use std::fmt;
use std::sync::Arc;

use netkit_kernel::shard::ShardSpec;
use netkit_packet::batch::PacketBatch;
use netkit_packet::sketch::FlowSketch;
use netkit_packet::steer::BucketMap;
use opencom::error::Result;
use opencom::meta::resources::ResourceManager;

use super::control::RebalanceController;
use super::core::{Drain, ShardCore};
use super::rebalance::{MigrationReport, RebalancePlan};
use super::{PipelineStats, ShardGraph, ShardLoad};

/// `spec.workers` replicas of an element graph driven deterministically
/// on the calling thread. See the module docs for the contract with
/// [`ShardedPipeline`](super::ShardedPipeline).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use netkit_kernel::shard::ShardSpec;
/// use netkit_packet::batch::PacketBatch;
/// use netkit_packet::packet::PacketBuilder;
/// use netkit_router::api::register_packet_interfaces;
/// use netkit_router::elements::{Counter, Discard};
/// use netkit_router::shard::{ShardGraph, SoloPipeline};
/// use opencom::capsule::Capsule;
/// use opencom::meta::resources::ResourceManager;
/// use opencom::runtime::Runtime;
///
/// let rm = Arc::new(ResourceManager::new());
/// let mut pipe = SoloPipeline::build("doc-solo", ShardSpec::new(2), Arc::clone(&rm), |_shard| {
///     let rt = Runtime::new();
///     register_packet_interfaces(&rt);
///     let capsule = Capsule::new("shard", &rt);
///     let counter = Counter::new();
///     let sink = Discard::new();
///     let cid = capsule.adopt(counter.clone())?;
///     let sid = capsule.adopt(sink)?;
///     capsule.bind_simple(cid, "out", sid, netkit_router::api::IPACKET_PUSH)?;
///     Ok(ShardGraph::new(Arc::clone(&capsule), counter).with_components(vec![cid]))
/// })?;
///
/// let batch: PacketBatch = (0..64u16)
///     .map(|i| PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1000 + i, 80).build())
///     .collect();
/// pipe.dispatch(batch);
/// assert_eq!(pipe.stats().packets, 64);
/// assert_eq!(rm.task_info(pipe.task())?.usage["packets"], 64);
/// # Ok::<(), opencom::error::Error>(())
/// ```
pub struct SoloPipeline {
    core: ShardCore,
    /// Each shard's drain hook, run after the shard's batch.
    drains: Vec<Option<Drain>>,
}

impl SoloPipeline {
    core_surface!();

    /// Builds `spec.workers` replicas via `factory(shard)` (called in
    /// shard order) and registers the pipeline as one task named
    /// `name` in `rm` — the same single-logical-component resource
    /// rollup as the threaded pipeline.
    ///
    /// # Errors
    ///
    /// Propagates factory failures and a duplicate task `name`.
    pub fn build<F>(
        name: &str,
        spec: ShardSpec,
        rm: Arc<ResourceManager>,
        factory: F,
    ) -> Result<Self>
    where
        F: FnMut(usize) -> Result<ShardGraph>,
    {
        Self::build_with_sketches(name, spec, rm, ShardCore::fresh_sketches(spec), factory)
    }

    /// [`build`](Self::build) with caller-supplied per-shard flow
    /// sketches. The threaded pipeline creates its sketches itself, so
    /// a factory can never hand its shard's sketch to a
    /// [`Guard`](crate::flow::Guard); here the caller creates the
    /// sketches first, clones each shard's `Arc` into the factory's
    /// guard, and passes the originals in — the guard then reads
    /// exactly the sketch the drive meters into, satisfying the
    /// guard's "estimates already include the current batch" contract
    /// (the core records before the graph runs).
    ///
    /// # Errors
    ///
    /// Propagates factory failures and a duplicate task `name`.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one sketch per shard is supplied.
    pub fn build_with_sketches<F>(
        name: &str,
        spec: ShardSpec,
        rm: Arc<ResourceManager>,
        sketches: Vec<Arc<FlowSketch>>,
        mut factory: F,
    ) -> Result<Self>
    where
        F: FnMut(usize) -> Result<ShardGraph>,
    {
        let (core, drains) = ShardCore::build(name, spec, rm, sketches, &mut factory)?;
        Ok(Self { core, drains })
    }

    /// RSS-dispatches a batch through the installed steering table and
    /// runs every non-empty shard **in index order** on this thread —
    /// the deterministic serialisation of the threaded dispatch (same
    /// split, same shared-range gather). Returns the number of shards
    /// that received packets.
    pub fn dispatch(&mut self, batch: PacketBatch) -> usize {
        if batch.is_empty() {
            return 0;
        }
        if self.workers() <= 1 {
            self.run_steered(0, batch);
            return 1;
        }
        let shared = {
            let map = self.core.steering().read();
            batch.shard_split_with(&map).into_shared()
        };
        let mut ran = 0;
        for shard in 0..self.workers() {
            if shared.shard_len(shard) == 0 {
                continue;
            }
            let mut part = PacketBatch::new();
            shared.range(shard).take_into(&mut part);
            self.run_steered(shard, part);
            ran += 1;
        }
        ran
    }

    /// Runs a pre-steered batch on `shard` as-is — the analogue of the
    /// threaded [`submit`](super::ShardedPipeline::submit) path, where
    /// steering already happened (multi-queue NIC model). The caller's
    /// steering decision must come from [`Self::bucket_map`].
    pub fn run_steered(&mut self, shard: usize, batch: PacketBatch) {
        if !batch.is_empty() {
            self.core
                .run_batch(shard, batch, self.drains[shard].as_mut());
        }
    }

    /// Installs a new bucket → shard table. No quiesce is needed — the
    /// single-threaded caller is by definition between batches, which
    /// is exactly the boundary the threaded migration manufactures.
    /// Counts a migration and bills `REBALANCES`, like the threaded
    /// install; the report's `epoch` is the migration count.
    ///
    /// # Panics
    ///
    /// Panics if `map` targets a different shard count.
    pub fn install_bucket_map(&mut self, map: BucketMap) -> MigrationReport {
        self.install(map)
    }

    fn install(&self, map: BucketMap) -> MigrationReport {
        self.core.check_map(&map);
        let moved_buckets = {
            let mut steering = self.core.steering().write();
            let moved = map.moved_buckets(&steering).len();
            *steering = Arc::new(map);
            moved
        };
        MigrationReport {
            moved_buckets,
            resubmitted: 0,
            dropped: 0,
            epoch: self.core.count_migration(),
        }
    }

    /// One turn of the autonomous control loop — the same core turn
    /// as the threaded
    /// [`control_turn`](super::ShardedPipeline::control_turn), with
    /// [`Self::install_bucket_map`] as the install step and no ring
    /// pressure.
    pub fn control_turn(
        &mut self,
        ctl: &mut RebalanceController,
    ) -> Option<(RebalancePlan, MigrationReport)> {
        self.core
            .control_turn(ctl, &self.shard_loads(), |map| self.install(map))
    }

    /// Per-shard load meters. Ring pressure reads 0 (no rings); the
    /// packet/batch meters carry the rebalance evidence.
    pub fn shard_loads(&self) -> Vec<ShardLoad> {
        self.core.shard_loads(|_| (0, 0))
    }

    /// Rolls counters up, releases the resources task, and returns the
    /// final aggregate stats.
    pub fn shutdown(self) -> PipelineStats {
        self.core.release()
    }
}

impl fmt::Debug for SoloPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SoloPipeline({} shards, {} migrations)",
            self.workers(),
            self.migrations()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::IPacketPush;
    use crate::api::{register_packet_interfaces, BatchResult, PushError, PushResult};
    use crate::shard::RebalancePolicy;
    use netkit_packet::flow::FlowKey;
    use netkit_packet::packet::{Packet, PacketBuilder};
    use opencom::capsule::Capsule;
    use opencom::runtime::Runtime;
    use parking_lot::Mutex;

    /// Terminal element logging `(shard, src_port)` arrivals.
    struct Recorder {
        shard: usize,
        log: Arc<Mutex<Vec<(usize, u16)>>>,
    }

    impl IPacketPush for Recorder {
        fn push(&self, pkt: Packet) -> PushResult {
            self.log
                .lock()
                .push((self.shard, pkt.udp_v4().expect("udp").src_port));
            Ok(())
        }

        fn push_batch(&self, mut batch: PacketBatch) -> BatchResult {
            let mut result = BatchResult::with_capacity(batch.len());
            for pkt in batch.drain_all() {
                result.record(self.push(pkt));
            }
            result
        }
    }

    #[allow(clippy::type_complexity)]
    fn recorder_pipe(workers: usize) -> (SoloPipeline, Arc<Mutex<Vec<(usize, u16)>>>) {
        let log: Arc<Mutex<Vec<(usize, u16)>>> = Arc::new(Mutex::new(Vec::new()));
        let rm = Arc::new(ResourceManager::new());
        let log2 = Arc::clone(&log);
        let pipe = SoloPipeline::build(
            &format!("solo-test-{workers}"),
            ShardSpec::new(workers),
            rm,
            move |shard| {
                let rt = Runtime::new();
                register_packet_interfaces(&rt);
                let capsule = Capsule::new("shard", &rt);
                let entry: Arc<dyn IPacketPush> = Arc::new(Recorder {
                    shard,
                    log: Arc::clone(&log2),
                });
                Ok(ShardGraph::new(capsule, entry))
            },
        )
        .expect("pipeline builds");
        (pipe, log)
    }

    fn flow(port: u16) -> Packet {
        PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", port, 80).build()
    }

    #[test]
    fn dispatch_steers_by_flow_in_shard_order() {
        let (mut pipe, log) = recorder_pipe(4);
        let pkts: Vec<Packet> = (0..32u16).map(|i| flow(7000 + i)).collect();
        let expect_shard: Vec<usize> = pkts
            .iter()
            .map(|p| FlowKey::from_packet(p).unwrap().shard_for(4))
            .collect();
        pipe.dispatch(PacketBatch::from_packets(pkts));
        let log = log.lock();
        assert_eq!(log.len(), 32);
        // Shard visit order is index order, and each packet landed on
        // its RSS shard.
        let mut last_shard = 0;
        for &(shard, port) in log.iter() {
            assert!(shard >= last_shard, "shards visited in index order");
            last_shard = shard;
            assert_eq!(shard, expect_shard[(port - 7000) as usize]);
        }
        assert_eq!(pipe.stats().packets, 32);
        assert_eq!(pipe.stats().accepted, 32);
        assert_eq!(pipe.stats().dropped, 0);
    }

    #[test]
    fn single_shard_skips_metering() {
        let (mut pipe, _log) = recorder_pipe(1);
        pipe.dispatch((0..8u16).map(|i| flow(9000 + i)).collect());
        assert_eq!(pipe.bucket_loads().iter().sum::<u64>(), 0);
        assert_eq!(pipe.stats().packets, 8);
    }

    #[test]
    fn installed_map_redirects_and_counts_migration() {
        let (mut pipe, log) = recorder_pipe(2);
        let pkts: Vec<Packet> = (0..8u16).map(|i| flow(7000 + i)).collect();
        let mut map = pipe.bucket_map();
        for p in &pkts {
            map.set(FlowKey::from_packet(p).unwrap().bucket(), 1);
        }
        let report = pipe.install_bucket_map(map);
        assert!(report.moved_buckets > 0);
        assert_eq!(pipe.migrations(), 1);
        pipe.dispatch(PacketBatch::from_packets(pkts));
        assert!(log.lock().iter().all(|&(shard, _)| shard == 1));
    }

    #[test]
    fn control_turn_migrates_a_colocated_window() {
        let (mut pipe, _log) = recorder_pipe(2);
        let mut ctl = RebalanceController::new(
            RebalancePolicy {
                min_samples: 8,
                pressure_weight: 0.0,
                ..RebalancePolicy::default() // max_imbalance 1.25, decay 0.5
            },
            0,
        );
        // Flows all colocated on shard 0 under the identity table.
        let mut colocated = Vec::new();
        let mut port = 7000u16;
        while colocated.len() < 32 {
            let p = flow(port);
            if FlowKey::from_packet(&p).unwrap().shard_for(2) == 0 {
                colocated.push(p);
            }
            port += 1;
        }
        pipe.dispatch(PacketBatch::from_packets(colocated));
        let migrated = pipe.control_turn(&mut ctl);
        assert!(migrated.is_some(), "colocation must migrate");
        assert_eq!(pipe.migrations(), 1);
        // The judged window was retired.
        assert_eq!(pipe.bucket_loads().iter().sum::<u64>(), 0);
    }

    #[test]
    fn drop_causes_sum_to_aggregate() {
        // A graph that rejects every packet as rate-limited on shard 0
        // and as vetoed elsewhere.
        let rm = Arc::new(ResourceManager::new());
        struct Reject(bool);
        impl IPacketPush for Reject {
            fn push(&self, _pkt: Packet) -> PushResult {
                if self.0 {
                    Err(PushError::RateLimited)
                } else {
                    Err(PushError::Veto("rejected".into()))
                }
            }
        }
        let mut pipe = SoloPipeline::build("solo-reject", ShardSpec::new(2), rm, |shard| {
            let rt = Runtime::new();
            register_packet_interfaces(&rt);
            let capsule = Capsule::new("shard", &rt);
            let entry: Arc<dyn IPacketPush> = Arc::new(Reject(shard == 0));
            Ok(ShardGraph::new(capsule, entry))
        })
        .expect("builds");
        pipe.dispatch((0..32u16).map(|i| flow(7000 + i)).collect());
        let stats = pipe.stats();
        let drops = pipe.drop_stats();
        assert_eq!(stats.dropped, 32);
        assert_eq!(drops.total(), 32);
        assert!(drops.guard > 0, "shard 0 verdicts file under guard");
        assert!(drops.graph > 0, "shard 1 verdicts file under graph");
        assert_eq!(drops.ring_full + drops.dead_worker + drops.resteer_shed, 0);
    }
}
