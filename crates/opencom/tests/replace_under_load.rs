//! Hot replacement under live traffic: `Capsule::replace` with
//! [`Quiescence::PerEdge`] must never let a call meet a half-wired
//! component.
//!
//! Topology `a → X → sink`. One thread pushes batches into `a` without
//! pause while the main thread replaces `X` with a fresh copy, many
//! times over. A node with its `out` unbound is in "sink mode": it
//! accepts the batch and keeps it, the way a router element at the
//! end of a chain does. If callers were ever pointed at the new `X`
//! before its `out` edge existed, a batch would end there instead of
//! at the sink, so the books would not close.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use opencom::capsule::{Capsule, Quiescence};
use opencom::component::{Component, ComponentCore, ComponentDescriptor, Registrar};
use opencom::ident::{InterfaceId, Version};
use opencom::receptacle::Receptacle;
use opencom::runtime::Runtime;

const IBATCH: InterfaceId = InterfaceId::new("replace.IBatch");

/// Pushes a batch of `n` packets; returns how many were accepted.
trait IBatch: Send + Sync {
    fn push_batch(&self, n: u64) -> u64;
}

/// Forwards batches to `out`; with `out` unbound, accepts and keeps
/// them (counted in `kept`).
struct Node {
    core: ComponentCore,
    out: Receptacle<dyn IBatch>,
    kept: AtomicU64,
}

impl Node {
    fn make() -> Arc<Self> {
        Arc::new(Self {
            core: ComponentCore::new(ComponentDescriptor::new(
                "replace.Node",
                Version::new(1, 0, 0),
            )),
            out: Receptacle::single("out", IBATCH),
            kept: AtomicU64::new(0),
        })
    }
}

impl IBatch for Node {
    fn push_batch(&self, n: u64) -> u64 {
        self.out
            .with_bound(|next| next.push_batch(n))
            .unwrap_or_else(|| {
                self.kept.fetch_add(n, Ordering::Relaxed);
                n
            })
    }
}

impl Component for Node {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let me: Arc<dyn IBatch> = self.clone();
        reg.expose(IBATCH, &me);
        reg.receptacle(&self.out);
    }
}

#[test]
fn per_edge_replace_never_loses_a_batch() {
    const REPLACES: usize = 2_000;

    let rt = Runtime::new();
    let capsule = Capsule::new("replace-under-load", &rt);
    let sink = Node::make();
    let ids: Vec<_> = [Node::make(), Node::make(), sink.clone()]
        .into_iter()
        .map(|node| capsule.adopt(node).unwrap())
        .collect();
    let (a, mut x, sink_id) = (ids[0], ids[1], ids[2]);
    capsule.bind_simple(a, "out", x, IBATCH).unwrap();
    capsule.bind_simple(x, "out", sink_id, IBATCH).unwrap();
    for &id in &ids {
        capsule.activate(id).unwrap();
    }

    let entry: Arc<dyn IBatch> = capsule
        .query_interface(a, IBATCH)
        .unwrap()
        .downcast()
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let pusher = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut accepted = 0u64;
            while !stop.load(Ordering::Relaxed) {
                accepted += entry.push_batch(32);
            }
            accepted
        })
    };
    while sink.kept.load(Ordering::Relaxed) == 0 {
        thread::yield_now(); // replace only under live traffic
    }
    for _ in 0..REPLACES {
        // `replace` activates the fresh node in `x`'s place.
        let next = capsule.adopt(Node::make()).unwrap();
        capsule.replace(x, next, Quiescence::PerEdge).unwrap();
        x = next;
    }
    stop.store(true, Ordering::Relaxed);
    let accepted = pusher.join().unwrap();

    let delivered = sink.kept.load(Ordering::Relaxed);
    assert_eq!(
        accepted,
        delivered,
        "{} packets accepted but never delivered across {REPLACES} replaces",
        accepted - delivered
    );
    assert_eq!(capsule.arch().binding_count(), 2);
}
