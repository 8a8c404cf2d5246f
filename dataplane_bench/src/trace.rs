//! Per-element timing through the paper's interception meta-model.
//!
//! Every `IPacketPush` binding of each shard's capsule gets a hook
//! (`Capsule::intercept`) that reads the clock before and after the
//! bound call — once per batch, not per packet. A binding `X → Y`
//! times `Y`'s push *including* everything downstream of it, so the
//! hook books the span as `Y`'s inclusive time and as `X`'s child time;
//! an element's self time is inclusive minus child. The ingress
//! element has no binding in front of it, so a timing wrapper installed
//! with `ShardedPipeline::set_entry` books its inclusive time, which is
//! also the shard's whole graph time.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use netkit_packet::batch::PacketBatch;
use netkit_packet::packet::Packet;
use netkit_router::api::{BatchResult, IPacketPush, PushResult};
use opencom::error::Result;
use opencom::ident::BindingId;
use opencom::interception::FnHook;

use crate::lane::Lane;

thread_local! {
    /// Open spans of the calling worker: hooks nest as the batch walks
    /// the chain, so they close in LIFO order.
    static OPEN: RefCell<Vec<Instant>> = const { RefCell::new(Vec::new()) };
}

#[derive(Default)]
struct Acc {
    incl: AtomicU64,
    child: AtomicU64,
}

/// Wraps a shard's ingress and times each batch through the graph.
struct TimedEntry {
    inner: Arc<dyn IPacketPush>,
    ns: Arc<AtomicU64>,
    pkts: Arc<AtomicU64>,
}

impl IPacketPush for TimedEntry {
    fn push(&self, pkt: Packet) -> PushResult {
        let t = Instant::now();
        let r = self.inner.push(pkt);
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.pkts.fetch_add(1, Ordering::Relaxed);
        r
    }

    fn push_batch(&self, batch: PacketBatch) -> BatchResult {
        let n = batch.len() as u64;
        let t = Instant::now();
        let r = self.inner.push_batch(batch);
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.pkts.fetch_add(n, Ordering::Relaxed);
        r
    }
}

/// Tracing state for one lane: accumulators survive [`Tracer::remove`],
/// so traced and untraced blocks can alternate on the same pipeline.
pub struct Tracer {
    entry: String,
    /// Per shard: graph nanoseconds and packets through the ingress.
    graph_ns: Vec<Arc<AtomicU64>>,
    graph_pkts: Vec<Arc<AtomicU64>>,
    elements: BTreeMap<String, Arc<Acc>>,
    hooked: BTreeSet<(usize, BindingId)>,
    /// The ingresses the timing wrappers replaced, while installed.
    inner: Vec<Arc<dyn IPacketPush>>,
}

impl Tracer {
    /// Wraps every shard's ingress and intercepts every binding.
    pub fn install(lane: &Lane) -> Result<Self> {
        let mut t = Self {
            entry: lane.binding.desc().entry.clone(),
            graph_ns: (0..lane.workers).map(|_| Arc::default()).collect(),
            graph_pkts: (0..lane.workers).map(|_| Arc::default()).collect(),
            elements: BTreeMap::new(),
            hooked: BTreeSet::new(),
            inner: Vec::new(),
        };
        t.reinstall(lane)?;
        Ok(t)
    }

    /// Puts the wrappers and hooks back after [`Self::remove`].
    pub fn reinstall(&mut self, lane: &Lane) -> Result<()> {
        lane.pipe.quiesce(|| {
            for shard in 0..lane.workers {
                let inner = lane.pipe.entry(shard);
                let timed = TimedEntry {
                    inner: Arc::clone(&inner),
                    ns: Arc::clone(&self.graph_ns[shard]),
                    pkts: Arc::clone(&self.graph_pkts[shard]),
                };
                lane.pipe.set_entry(shard, Arc::new(timed));
                self.inner.push(inner);
            }
        });
        self.refresh(lane)
    }

    /// Takes every wrapper and hook out, restoring the untraced call
    /// path exactly.
    pub fn remove(&mut self, lane: &Lane) -> Result<()> {
        let inner = std::mem::take(&mut self.inner);
        lane.pipe.quiesce(|| -> Result<()> {
            for (shard, entry) in inner.into_iter().enumerate() {
                lane.pipe.set_entry(shard, entry);
            }
            for (shard, id) in std::mem::take(&mut self.hooked) {
                lane.pipe.capsule(shard).unintercept(id)?;
            }
            Ok(())
        })
    }

    /// Intercepts bindings not yet hooked — a structural patch creates
    /// new ones.
    pub fn refresh(&mut self, lane: &Lane) -> Result<()> {
        let names: Vec<String> = lane.binding.desc().elements.keys().cloned().collect();
        for shard in 0..lane.workers {
            let ids: BTreeMap<_, _> = lane
                .binding
                .with_shard(shard, |cs| {
                    names
                        .iter()
                        .filter_map(|n| Some((cs.id_of(n)?, n.clone())))
                        .collect()
                })
                .unwrap_or_default();
            let capsule = lane.pipe.capsule(shard);
            for rec in capsule.arch().binding_records() {
                if !self.hooked.insert((shard, rec.id)) {
                    continue;
                }
                let (Some(src), Some(dst)) = (ids.get(&rec.src), ids.get(&rec.dst)) else {
                    continue;
                };
                let to = Arc::clone(self.elements.entry(dst.clone()).or_default());
                let from = Arc::clone(self.elements.entry(src.clone()).or_default());
                let chain = capsule.intercept(rec.id)?;
                chain.add(FnHook::new(
                    "dataplane-bench-span",
                    |_| {
                        OPEN.with(|o| o.borrow_mut().push(Instant::now()));
                        Ok(())
                    },
                    move |_| {
                        if let Some(t) = OPEN.with(|o| o.borrow_mut().pop()) {
                            let ns = t.elapsed().as_nanos() as u64;
                            to.incl.fetch_add(ns, Ordering::Relaxed);
                            from.child.fetch_add(ns, Ordering::Relaxed);
                        }
                    },
                ));
            }
        }
        Ok(())
    }

    /// Graph nanoseconds per shard so far.
    pub fn graph_ns(&self) -> Vec<u64> {
        self.graph_ns
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }

    /// Packets through the graph (all shards) so far.
    pub fn graph_pkts(&self) -> u64 {
        self.graph_pkts
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .sum()
    }

    /// Self nanoseconds per element so far (ingress included).
    pub fn self_ns(&self) -> BTreeMap<String, u64> {
        let graph: u64 = self.graph_ns().iter().sum();
        let mut out = BTreeMap::new();
        for (name, acc) in &self.elements {
            let incl = if *name == self.entry {
                graph
            } else {
                acc.incl.load(Ordering::Relaxed)
            };
            out.insert(
                name.clone(),
                incl.saturating_sub(acc.child.load(Ordering::Relaxed)),
            );
        }
        out
    }
}
