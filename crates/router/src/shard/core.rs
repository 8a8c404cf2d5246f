//! The one execution core behind both pipeline drivers.
//!
//! [`ShardCore`] is everything a shard *does*, apart from how its
//! batches reach it: the replica table (entries, capsules, attached
//! components), the authoritative steering table, the bucket meter and
//! per-shard flow sketches, the per-shard counters with their
//! cause-tagged drop split, migration bookkeeping, and the resources
//! task every shard bills. It runs two code paths:
//!
//! * [`ShardCore::run_batch`] — one shard's run-to-completion pass:
//!   meter gate → entry snapshot → `push_batch` → guard/graph verdict
//!   split → drain hook;
//! * [`ShardCore::control_turn`] — the reflective loop's peek → decide
//!   → commit, with the driver's install step passed in as a closure.
//!
//! The drivers only decide *where* that program runs:
//! [`ShardedPipeline`](super::ShardedPipeline) hands batches to worker
//! threads over rings (and adds quiesce, NIC re-steer and crash
//! recovery), [`SoloPipeline`](super::SoloPipeline) runs shards in
//! index order on the caller's thread.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use netkit_kernel::shard::ShardSpec;
use netkit_packet::batch::PacketBatch;
use netkit_packet::sketch::{FlowSketch, HeavyHitter, SketchConfig, SpaceSaving};
use netkit_packet::steer::{BucketLoad, BucketMap};
use opencom::capsule::Capsule;
use opencom::error::Result;
use opencom::ident::{ComponentId, TaskId};
use opencom::meta::resources::{classes, ResourceManager};
use parking_lot::{Mutex, RwLock};

use crate::api::PushError;

use super::control::{ControlDecision, RebalanceController};
use super::rebalance::{MigrationReport, RebalancePlan};
use super::{DropStats, PipelineStats, ShardGraph, ShardLoad, SharedEntry};

/// The surface both drivers expose unchanged, written once: every
/// method reads or retargets the driver's `core` field.
macro_rules! core_surface {
    () => {
        /// Number of shards (replicas).
        pub fn workers(&self) -> usize {
            self.core.spec.workers
        }

        /// The configuring spec (`workers` normalised to at least 1).
        pub fn spec(&self) -> ::netkit_kernel::shard::ShardSpec {
            self.core.spec
        }

        /// The pipeline's task in the resources meta-model — the single
        /// logical handle reflection sees for all replicas.
        pub fn task(&self) -> ::opencom::ident::TaskId {
            self.core.task
        }

        /// The resource manager the pipeline bills.
        pub fn resources(&self) -> &::std::sync::Arc<::opencom::meta::resources::ResourceManager> {
            &self.core.rm
        }

        /// The capsule hosting `shard`'s current replica — the
        /// reflective mutation surface reconfiguration goes through.
        pub fn capsule(&self, shard: usize) -> ::std::sync::Arc<::opencom::capsule::Capsule> {
            ::std::sync::Arc::clone(&self.core.capsules[shard].read())
        }

        /// `shard`'s current ingress interface.
        pub fn entry(&self, shard: usize) -> ::std::sync::Arc<dyn $crate::api::IPacketPush> {
            ::std::sync::Arc::clone(&self.core.entries[shard].read())
        }

        /// Retargets `shard`'s ingress; its next batch runs through
        /// `entry`. On the threaded driver, call inside `quiesce` so the
        /// change is atomic across shards.
        pub fn set_entry(
            &self,
            shard: usize,
            entry: ::std::sync::Arc<dyn $crate::api::IPacketPush>,
        ) {
            *self.core.entries[shard].write() = entry;
        }

        /// Snapshot of the authoritative bucket → shard steering table.
        pub fn bucket_map(&self) -> ::netkit_packet::steer::BucketMap {
            self.core.bucket_map()
        }

        /// Migrations applied via `install_bucket_map`.
        pub fn migrations(&self) -> u64 {
            self.core
                .migrations
                .load(::std::sync::atomic::Ordering::Relaxed)
        }

        /// Snapshot (peek, non-destructive) of the per-bucket packet
        /// window — what has accumulated since the evidence was last
        /// retired by a migration or decayed by a held control turn.
        pub fn bucket_loads(&self) -> Vec<u64> {
            self.core.bucket_load.snapshot()
        }

        /// Applies one exponential decay step to the packet window:
        /// every bucket keeps an `alpha` fraction of its count.
        pub fn decay_bucket_loads(&self, alpha: f64) {
            self.core.bucket_load.decay(alpha);
        }

        /// `shard`'s flow sketch: per-flow **byte** meters (count-min +
        /// Space-Saving top-k), fed alongside the packet window while
        /// more than one shard runs.
        pub fn flow_sketch(
            &self,
            shard: usize,
        ) -> &::std::sync::Arc<::netkit_packet::sketch::FlowSketch> {
            &self.core.sketches[shard]
        }

        /// The merged heavy-hitter byte evidence across all shards: each
        /// shard's Space-Saving top-k, summed per flow hash and
        /// re-ranked — what a controller with a non-zero heavy-hitter
        /// blend weighs.
        pub fn heavy_hitters(&self) -> Vec<::netkit_packet::sketch::HeavyHitter> {
            self.core.heavy_hitters()
        }

        /// Aggregate counters over all shards — the one-logical-component
        /// view. Also rolls usage up into the resources task.
        pub fn stats(&self) -> $crate::shard::PipelineStats {
            self.core.stats()
        }

        /// One shard's counters.
        pub fn shard_stats(&self, shard: usize) -> $crate::shard::PipelineStats {
            self.core.shard_stats(shard)
        }

        /// Per-cause drop accounting over all shards. The sum
        /// (`DropStats::total`) always equals `stats().dropped` — every
        /// lost packet is filed under exactly one cause.
        pub fn drop_stats(&self) -> $crate::shard::DropStats {
            self.core.drop_stats()
        }

        /// One shard's per-cause drop accounting.
        pub fn shard_drop_stats(&self, shard: usize) -> $crate::shard::DropStats {
            self.core.shard_drop_stats(shard)
        }
    };
}

/// A shard's per-batch drain hook (see [`ShardGraph::drain`]).
pub(crate) type Drain = Box<dyn FnMut() + Send>;

/// Why a dropped packet was dropped — the cause tag every loss
/// accounting site in the pipeline files its drops under. See
/// [`DropStats`] for the public roll-up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DropCause {
    /// Bounced off a full ring on a non-blocking publish.
    RingFull,
    /// Publish refused (or work stranded) because the target shard's
    /// worker died.
    DeadWorker,
    /// Shed while a fault-recovery steering patch (quarantine or
    /// restore — see [`ShardedPipeline::health_turn`]) re-steered
    /// queued frames.
    ///
    /// [`ShardedPipeline::health_turn`]: super::ShardedPipeline::health_turn
    ResteerShed,
    /// Rate-limited by the inline heavy-hitter guard
    /// ([`crate::flow::Guard`] — verdict [`PushError::RateLimited`]).
    Guard,
    /// Dropped by graph policy (queue tail drop, TTL, no route, …) —
    /// any element verdict that is not the guard's.
    Graph,
}

#[derive(Debug, Default)]
struct ShardCounters {
    batches: AtomicU64,
    packets: AtomicU64,
    accepted: AtomicU64,
    dropped: AtomicU64,
    /// Packets already rolled up into the resources task.
    reported: AtomicU64,
    drop_ring_full: AtomicU64,
    drop_dead_worker: AtomicU64,
    drop_resteer_shed: AtomicU64,
    drop_guard: AtomicU64,
    drop_graph: AtomicU64,
}

impl ShardCounters {
    /// Files `n` drops under `cause`, keeping the aggregate `dropped`
    /// meter the exact sum of the cause meters.
    fn drop_cause(&self, cause: DropCause, n: u64) {
        if n == 0 {
            return;
        }
        self.dropped.fetch_add(n, Ordering::Relaxed);
        let cell = match cause {
            DropCause::RingFull => &self.drop_ring_full,
            DropCause::DeadWorker => &self.drop_dead_worker,
            DropCause::ResteerShed => &self.drop_resteer_shed,
            DropCause::Guard => &self.drop_guard,
            DropCause::Graph => &self.drop_graph,
        };
        cell.fetch_add(n, Ordering::Relaxed);
    }

    fn stats(&self) -> PipelineStats {
        PipelineStats {
            batches: self.batches.load(Ordering::Relaxed),
            packets: self.packets.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    fn drop_stats(&self) -> DropStats {
        DropStats {
            ring_full: self.drop_ring_full.load(Ordering::Relaxed),
            dead_worker: self.drop_dead_worker.load(Ordering::Relaxed),
            resteer_shed: self.drop_resteer_shed.load(Ordering::Relaxed),
            guard: self.drop_guard.load(Ordering::Relaxed),
            graph: self.drop_graph.load(Ordering::Relaxed),
        }
    }
}

/// Keeps the steering lock, which the dispatch thread read-locks per
/// batch, off the cache lines the workers read per batch.
#[repr(align(128))]
struct Padded<T>(T);

/// The shard program both drivers run. See the module docs.
pub(crate) struct ShardCore {
    /// The configuring spec, with `workers` normalised to at least 1.
    pub(super) spec: ShardSpec,
    /// The authoritative bucket → shard table. Threaded readers hold
    /// the read lock across their ring hand-off; a threaded migration
    /// holds the write lock across its whole quiesce.
    steering: Padded<RwLock<Arc<BucketMap>>>,
    /// Per-bucket packet meters, fed per batch (one relaxed increment
    /// per packet) while more than one shard runs.
    pub(super) bucket_load: BucketLoad,
    /// Per-shard flow sketches (count-min + Space-Saving top-k) in
    /// **bytes** per flow hash, under the same gate as `bucket_load`.
    pub(super) sketches: Vec<Arc<FlowSketch>>,
    /// Per-shard ingress, re-read once per batch so a reconfiguration
    /// can retarget it between batches.
    pub(super) entries: Vec<SharedEntry>,
    /// Per-shard capsules (a threaded respawn swaps in a fresh one).
    pub(super) capsules: Vec<RwLock<Arc<Capsule>>>,
    /// Per-shard components attached to the resources task.
    components: Vec<Mutex<Vec<ComponentId>>>,
    counters: Vec<ShardCounters>,
    /// Migrations applied (each billed one `REBALANCES` unit).
    pub(super) migrations: AtomicU64,
    pub(super) rm: Arc<ResourceManager>,
    pub(super) task: TaskId,
}

impl ShardCore {
    /// Registers task `name` in `rm` and builds one replica per shard
    /// via `factory(shard)`, in shard order, attaching each replica's
    /// components to the task. Returns the core and the replicas'
    /// drain hooks, which stay with whoever runs each shard.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one sketch per shard is supplied.
    pub(crate) fn build(
        name: &str,
        mut spec: ShardSpec,
        rm: Arc<ResourceManager>,
        sketches: Vec<Arc<FlowSketch>>,
        factory: &mut dyn FnMut(usize) -> Result<ShardGraph>,
    ) -> Result<(Self, Vec<Option<Drain>>)> {
        spec.workers = spec.workers.max(1);
        let workers = spec.workers;
        assert_eq!(
            sketches.len(),
            workers,
            "{} sketches supplied for {} shards",
            sketches.len(),
            workers
        );
        let task = rm.create_task(name)?;
        let mut entries = Vec::with_capacity(workers);
        let mut capsules = Vec::with_capacity(workers);
        let mut components = Vec::with_capacity(workers);
        let mut drains = Vec::with_capacity(workers);
        for shard in 0..workers {
            let graph = factory(shard)?;
            for component in &graph.components {
                rm.attach(task, *component)?;
            }
            entries.push(Arc::new(RwLock::new(graph.entry)));
            capsules.push(RwLock::new(graph.capsule));
            components.push(Mutex::new(graph.components));
            drains.push(graph.drain);
        }
        let core = Self {
            spec,
            steering: Padded(RwLock::new(Arc::new(BucketMap::identity(workers)))),
            bucket_load: BucketLoad::new(),
            sketches,
            entries,
            capsules,
            components,
            counters: (0..workers).map(|_| ShardCounters::default()).collect(),
            migrations: AtomicU64::new(0),
            rm,
            task,
        };
        Ok((core, drains))
    }

    /// One fresh default-configured sketch per shard of `spec`.
    pub(crate) fn fresh_sketches(spec: ShardSpec) -> Vec<Arc<FlowSketch>> {
        (0..spec.workers.max(1))
            .map(|_| Arc::new(FlowSketch::new(SketchConfig::default())))
            .collect()
    }

    /// Runs one batch to completion on `shard` — the whole per-batch
    /// program. Meters packets and bytes (only when sharded: a single
    /// shard has nowhere to move a bucket, and its dispatch path skips
    /// the split that stamps RSS hashes, so metering there would
    /// re-parse headers for evidence nobody can act on), snapshots the
    /// entry once, pushes, files the verdicts (the guard's rate-limit
    /// verdict under its own cause, everything else as graph policy),
    /// then runs the drain hook.
    pub(crate) fn run_batch(&self, shard: usize, batch: PacketBatch, drain: Option<&mut Drain>) {
        let n = batch.len() as u64;
        if self.spec.workers > 1 {
            // Packets are rss-stamped by the split / NIC by now, so
            // each meter is a modulo + relaxed increment per packet.
            self.bucket_load.record_batch(&batch);
            self.sketches[shard].record_batch(&batch);
        }
        let target = Arc::clone(&self.entries[shard].read());
        let result = target.push_batch(batch);
        let c = &self.counters[shard];
        c.batches.fetch_add(1, Ordering::Relaxed);
        c.packets.fetch_add(n, Ordering::Relaxed);
        c.accepted
            .fetch_add(result.accepted() as u64, Ordering::Relaxed);
        if result.dropped() > 0 {
            let guard = result
                .verdicts
                .iter()
                .filter(|v| matches!(v, Err(PushError::RateLimited)))
                .count() as u64;
            let graph = result.dropped() as u64 - guard;
            c.drop_cause(DropCause::Guard, guard);
            c.drop_cause(DropCause::Graph, graph);
        }
        if let Some(drain) = drain {
            drain();
        }
    }

    /// One turn of the reflective loop: **peek** at the packet window
    /// (and, when `ctl` blends byte evidence, the sketch windows), let
    /// `ctl` decide over them, `loads` and the live table, and commit —
    /// `install` the planned table and retire exactly the judged
    /// windows on a migration, decay them on a judged-but-held turn,
    /// leave them untouched while evidence is still gathering.
    /// Samples recorded mid-turn stay for the next one.
    pub(crate) fn control_turn(
        &self,
        ctl: &mut RebalanceController,
        loads: &[ShardLoad],
        install: impl FnOnce(BucketMap) -> MigrationReport,
    ) -> Option<(RebalancePlan, MigrationReport)> {
        let window = self.bucket_load.snapshot();
        let current = self.bucket_map();
        // Sketch snapshots only when the evidence can matter, keeping
        // the zero-blend turn as cheap as one without sketches.
        let with_evidence = ctl.policy().heavy_blend > 0.0;
        let sketch_windows: Vec<_> = if with_evidence {
            self.sketches.iter().map(|s| s.snapshot()).collect()
        } else {
            Vec::new()
        };
        let heavy = if with_evidence {
            let tops: Vec<_> = sketch_windows.iter().map(|w| w.top.clone()).collect();
            SpaceSaving::merge(SketchConfig::default().top_capacity, &tops)
        } else {
            Vec::new()
        };
        match ctl.decide(&window, loads, &heavy, self.spec.ring_capacity, &current) {
            ControlDecision::Gathering => None,
            ControlDecision::Hold => {
                let decay = ctl.policy().decay;
                self.bucket_load.decay(decay);
                for sketch in &self.sketches {
                    sketch.decay(decay);
                }
                None
            }
            ControlDecision::Migrate(plan) => {
                let report = install(plan.map.clone());
                self.bucket_load.retire(&window);
                for (sketch, w) in self.sketches.iter().zip(&sketch_windows) {
                    sketch.retire(w);
                }
                Some((plan, report))
            }
        }
    }

    /// The steering table's lock (see the field docs).
    pub(crate) fn steering(&self) -> &RwLock<Arc<BucketMap>> {
        &self.steering.0
    }

    /// Snapshot of the steering table.
    pub(crate) fn bucket_map(&self) -> BucketMap {
        BucketMap::clone(&self.steering.0.read())
    }

    /// Panics unless `map` steers to exactly this core's shards — a
    /// table must never steer to a worker that does not exist.
    pub(crate) fn check_map(&self, map: &BucketMap) {
        assert_eq!(
            map.shards(),
            self.spec.workers,
            "bucket map targets {} shards, pipeline runs {}",
            map.shards(),
            self.spec.workers
        );
    }

    /// Counts one applied migration and bills `REBALANCES`; returns
    /// the new migration total.
    pub(crate) fn count_migration(&self) -> u64 {
        let _ = self.rm.consume(self.task, classes::REBALANCES, 1);
        self.migrations.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Every shard's Space-Saving top-k, summed per flow hash and
    /// re-ranked.
    pub(crate) fn heavy_hitters(&self) -> Vec<HeavyHitter> {
        let tops: Vec<Vec<HeavyHitter>> = self.sketches.iter().map(|s| s.heavy_hitters()).collect();
        SpaceSaving::merge(SketchConfig::default().top_capacity, &tops)
    }

    /// Replaces `shard`'s replica with `graph`: detaches the old
    /// components from the task, attaches the new ones, and swaps
    /// entry and capsule. Returns the new replica's drain hook. Only
    /// safe while nothing runs `shard`.
    ///
    /// # Errors
    ///
    /// Propagates resource-attach failures.
    pub(crate) fn replace_replica(&self, shard: usize, graph: ShardGraph) -> Result<Option<Drain>> {
        {
            let mut comps = self.components[shard].lock();
            for component in comps.drain(..) {
                let _ = self.rm.detach(self.task, component);
            }
            for component in &graph.components {
                self.rm.attach(self.task, *component)?;
            }
            *comps = graph.components;
        }
        *self.entries[shard].write() = graph.entry;
        *self.capsules[shard].write() = graph.capsule;
        Ok(graph.drain)
    }

    /// Files `n` drops on `shard` under `cause` (out-of-range shards
    /// are ignored).
    pub(crate) fn drop_cause(&self, shard: usize, cause: DropCause, n: u64) {
        if let Some(c) = self.counters.get(shard) {
            c.drop_cause(cause, n);
        }
    }

    /// Aggregate counters over all shards; also rolls usage up into
    /// the resources task.
    pub(crate) fn stats(&self) -> PipelineStats {
        self.sync_resources();
        let mut total = PipelineStats::default();
        for c in &self.counters {
            let s = c.stats();
            total.batches += s.batches;
            total.packets += s.packets;
            total.accepted += s.accepted;
            total.dropped += s.dropped;
        }
        total
    }

    /// One shard's counters.
    pub(crate) fn shard_stats(&self, shard: usize) -> PipelineStats {
        self.counters[shard].stats()
    }

    /// Per-cause drops over all shards; the sum always equals the
    /// aggregate `dropped`.
    pub(crate) fn drop_stats(&self) -> DropStats {
        let mut total = DropStats::default();
        for c in &self.counters {
            let s = c.drop_stats();
            total.ring_full += s.ring_full;
            total.dead_worker += s.dead_worker;
            total.resteer_shed += s.resteer_shed;
            total.guard += s.guard;
            total.graph += s.graph;
        }
        total
    }

    /// One shard's per-cause drops.
    pub(crate) fn shard_drop_stats(&self, shard: usize) -> DropStats {
        self.counters[shard].drop_stats()
    }

    /// Per-shard load meters; `ring(shard)` supplies the driver's
    /// `(in_flight, ring_high_water)` pressure for each shard.
    pub(crate) fn shard_loads(&self, ring: impl Fn(usize) -> (usize, usize)) -> Vec<ShardLoad> {
        (0..self.spec.workers)
            .map(|shard| {
                let (in_flight, ring_high_water) = ring(shard);
                let c = &self.counters[shard];
                ShardLoad {
                    shard,
                    packets: c.packets.load(Ordering::Relaxed),
                    batches: c.batches.load(Ordering::Relaxed),
                    in_flight,
                    ring_high_water,
                }
            })
            .collect()
    }

    /// Pushes the per-shard packet deltas into the resources task, so
    /// the per-batch path never takes the manager's locks. `fetch_max`
    /// keeps `reported` monotone: concurrent callers that loaded
    /// different `packets` snapshots claim disjoint deltas (the stale
    /// one claims zero), and nothing is double-counted.
    pub(crate) fn sync_resources(&self) {
        for c in &self.counters {
            let seen = c.packets.load(Ordering::Relaxed);
            let reported = c.reported.fetch_max(seen, Ordering::Relaxed);
            let delta = seen.saturating_sub(reported);
            if delta > 0 {
                let _ = self.rm.consume(self.task, classes::PACKETS, delta);
            }
        }
    }

    /// Rolls usage up, releases the resources task, and returns the
    /// final aggregate stats.
    pub(crate) fn release(&self) -> PipelineStats {
        let stats = self.stats();
        let _ = self.rm.release_task(self.task);
        stats
    }
}
