//! The canonical lane: pooled multi-queue rx NIC → threaded sharded
//! stateful edge (guard → conntrack → nat44 → egress counter → per-shard
//! `ToDevice`) → tx NIC, built from the services stratum's own
//! description through `Compiler::build_sharded`.

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use netkit_kernel::nic::{Nic, PortId};
use netkit_kernel::shard::ShardSpec;
use netkit_packet::pool::BufferPool;
use netkit_router::desc::{
    Compiler, DescBinding, EdgeDesc, ElementDesc, ElementHandle, ParamValue, PipelineDesc,
};
use netkit_router::elements::ToDevice;
use netkit_router::shard::{RebalanceController, ShardedPipeline};
use netkit_services::edge::{stateful_edge_desc, EdgeProfile};
use opencom::component::Component;
use opencom::error::Result;
use opencom::meta::resources::ResourceManager;

use crate::sys;

/// Frames per pump / rx burst.
pub const BURST: usize = 32;
/// Per-queue NIC ring depth, far above any window the generator keeps in
/// flight, so the wire never tail-drops.
const RING: usize = 4096;
/// Rx frame slabs (bytes): large enough for the churn workload's
/// near-MTU segments.
const SLAB: usize = 2048;

/// How frames get from the rx NIC onto the workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Steering {
    /// One rx queue per shard (hardware RSS); the generator calls
    /// `pump_nic` per shard.
    Rss,
    /// One rx queue; the generator bursts it and calls `dispatch`
    /// (software steering).
    Dispatch,
}

pub struct Lane {
    pub pipe: ShardedPipeline,
    pub binding: DescBinding,
    pub rx: Arc<Nic>,
    pub tx: Arc<Nic>,
    pub steering: Steering,
    pub workers: usize,
    /// The CPU each shard's worker is pinned to.
    pub cpu_of_shard: Vec<usize>,
    /// Time to create the NICs and compile the pipeline (workers
    /// spawned), excluding the pinning that follows.
    pub build_time: Duration,
}

impl Lane {
    pub fn build(workers: usize, steering: Steering) -> Result<Self> {
        Self::build_placed(workers, steering, false)
    }

    /// [`Self::build`], with every worker on the generator's CPU when
    /// `serial`: a lockstep round then runs strictly one step at a time,
    /// so its layers add up to the round.
    pub fn build_placed(workers: usize, steering: Steering, serial: bool) -> Result<Self> {
        let older: BTreeSet<i32> = sys::threads().into_iter().map(|(tid, _)| tid).collect();
        let t = Instant::now();
        let rx_queues = match steering {
            Steering::Rss => workers,
            Steering::Dispatch => 1,
        };
        let rx = Arc::new(
            Nic::with_queues(PortId(0), rx_queues, RING, RING, 10_000_000_000)
                .with_buffer_pool(BufferPool::new(SLAB, 64, 4 * RING)),
        );
        let tx = Arc::new(Nic::with_queues(
            PortId(1),
            workers,
            RING,
            RING,
            10_000_000_000,
        ));
        let wire = Arc::clone(&tx);
        let compiler = Compiler::new().external("tx", move |shard| {
            let dev: Arc<dyn Component> = ToDevice::with_queue(Arc::clone(&wire), shard);
            (dev, ElementHandle::Plain)
        });
        let mut desc = stateful_edge_desc(&EdgeProfile::default());
        desc.elements.insert(
            "sink".into(),
            ElementDesc {
                kind: "tx".into(),
                ..ElementDesc::default()
            },
        );
        let (pipe, binding) = compiler.build_sharded(
            &desc,
            ShardSpec::new(workers),
            Arc::new(ResourceManager::new()),
        )?;
        let build_time = t.elapsed();
        let cpu_of_shard = place_workers(workers, serial, &older);
        Ok(Self {
            pipe,
            binding,
            rx,
            tx,
            steering,
            workers,
            cpu_of_shard,
            build_time,
        })
    }

    /// The NICs a migration must re-steer: queued rx frames sit per
    /// shard only under hardware RSS.
    pub fn steered_nics(&self) -> Vec<&Nic> {
        match self.steering {
            Steering::Rss => vec![&*self.rx],
            Steering::Dispatch => Vec::new(),
        }
    }

    /// One producer hand-off call: `pump_nic` on one shard, or one rx
    /// burst dispatched. Returns frames moved (0 = nothing pending).
    pub fn pump_once(&self, shard: usize) -> usize {
        match self.steering {
            Steering::Rss => self.pipe.pump_nic(&self.rx, shard, BURST),
            Steering::Dispatch => {
                let mut batch = self.pipe.batch_pool().take();
                let n = self.rx.rx_burst_batch(0, BURST, &mut batch);
                if n > 0 {
                    self.pipe.dispatch(batch);
                }
                n
            }
        }
    }

    /// Moves every pending rx frame into the pipeline.
    pub fn pump_all(&self) -> usize {
        let mut moved = 0;
        for shard in 0..self.rx.queues() {
            loop {
                let n = self.pump_once(shard);
                if n == 0 {
                    break;
                }
                moved += n;
            }
        }
        moved
    }

    /// Drains every frame waiting on the wire, handing each to `f`.
    pub fn drain(&self, mut f: impl FnMut(&[u8])) -> usize {
        let mut n = 0;
        for q in 0..self.tx.queues() {
            while let Some(frame) = self.tx.drain_tx_frame(q) {
                f(&frame);
                n += 1;
            }
        }
        n
    }

    /// Frames the lane lost, by every cause it books: rx-ring tail
    /// drops plus the pipeline's cause-tagged drops (a tx-ring drop is
    /// a graph verdict, so it is already among the latter).
    pub fn lost(&self) -> u64 {
        self.rx.stats().rx_dropped + self.pipe.drop_stats().total()
    }
}

/// Fixes thread placement: the generator on the first allowed CPU,
/// every worker on the second. The generator stands in for the NIC and
/// the wire and needs a CPU of its own; the pipeline gets the other, so
/// at 2 workers the shards share it and the lane prices what a second
/// shard costs, not a parallel speed-up (that would need a third CPU).
/// Pinning is needed at all because hosts whose cpusets turn scheduler
/// load balancing off (`cpuset.sched_load_balance = 0`) never move a
/// thread after it starts, so unpinned placement — and with it every
/// rate — varies from run to run.
pub fn place_generator() {
    sys::pin(0, cpus()[0]);
    // An idle generator sleeps between polls; without this the kernel
    // may stretch each sleep by up to 50 µs, and the open-loop latency
    // would mostly measure timer batching.
    sys::set_timer_slack(1_000);
}

/// The CPUs the process was allowed at start-up (threads inherit the
/// generator's pinned mask, so it must be read before the first pin).
fn cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(sys::allowed_cpus)
}

/// Pins each of this lane's workers — threads not in `older` — once it
/// has named itself (a new thread sets its name from inside, so it can
/// lag the spawn); returns each shard's CPU.
fn place_workers(workers: usize, serial: bool, older: &BTreeSet<i32>) -> Vec<usize> {
    let cpus = cpus();
    let cpu = if serial {
        cpus[0]
    } else {
        cpus[1 % cpus.len()]
    };
    let names: Vec<String> = (0..workers).map(|s| format!("netkit-shard-{s}")).collect();
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let fresh: Vec<i32> = sys::threads()
            .into_iter()
            .filter(|(tid, name)| !older.contains(tid) && names.contains(name))
            .map(|(tid, _)| tid)
            .collect();
        if fresh.len() >= workers || Instant::now() > deadline {
            for tid in fresh {
                sys::pin(tid, cpu);
            }
            return vec![cpu; workers];
        }
        std::thread::yield_now();
    }
}

/// The two reconfiguration tiers the schedule alternates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    /// Conntrack capacity retune: one hot element swap per shard.
    Param,
    /// Insert (or remove) a counter between nat and egress: one epoch.
    Struct,
}

/// The description one patch away from `cur` in `tier`.
fn next_desc(cur: &PipelineDesc, tier: Tier) -> PipelineDesc {
    let mut d = cur.clone();
    match tier {
        Tier::Param => {
            let ct = d.elements.get_mut("conntrack").expect("edge has conntrack");
            let cap = match ct.params.get("capacity") {
                Some(v) if *v == ParamValue::from(4_096u64) => 4_000u64,
                _ => 4_096u64,
            };
            ct.params.insert("capacity".into(), cap.into());
        }
        Tier::Struct => {
            let edge = |from: &str, to: &str| EdgeDesc {
                from: from.into(),
                label: String::new(),
                to: to.into(),
            };
            if d.elements.remove("mid").is_some() {
                d.edges.retain(|e| e.from != "mid" && e.to != "mid");
                d.edges.push(edge("nat", "egress"));
            } else {
                d.elements.insert(
                    "mid".into(),
                    ElementDesc {
                        kind: "counter".into(),
                        ..ElementDesc::default()
                    },
                );
                d.edges.retain(|e| !(e.from == "nat" && e.to == "egress"));
                d.edges.push(edge("nat", "mid"));
                d.edges.push(edge("mid", "egress"));
            }
        }
    }
    d.canonical()
}

/// Timings and receipts of the control actions one phase performed.
#[derive(Clone, Debug, Default)]
pub struct ControlLog {
    pub turn_us: Vec<f64>,
    pub migrate_us: Vec<f64>,
    pub patch_param_us: Vec<f64>,
    pub patch_struct_us: Vec<f64>,
    pub diff_us: Vec<f64>,
    pub epochs: u64,
    pub migrations: u64,
    pub moved_buckets: u64,
    pub resubmitted: u64,
}

/// What a migration step does.
pub enum Migrate {
    /// `control_turn` with the description's decision core: migrates
    /// only when the observed skew warrants it.
    Control(RebalanceController),
    /// A forced install of a rotating 16-bucket move (uniform traffic
    /// never asks the controller for one).
    Forced { next: usize },
}

/// Control actions the generator interleaves with traffic, one every
/// `block` frames offered: a migration step on most blocks and a patch
/// (alternating param / structural) every `patch_every`-th block.
pub struct Schedule {
    block: u64,
    patch_every: u64,
    migrate: Migrate,
    step: u64,
    next_tier: Tier,
    pub log: ControlLog,
}

impl Schedule {
    pub fn new(block: u64, patch_every: u64, migrate: Migrate) -> Self {
        Self {
            block,
            patch_every,
            migrate,
            step: 0,
            next_tier: Tier::Param,
            log: ControlLog::default(),
        }
    }

    /// Runs the action due at `offered` frames, if one is due. The
    /// caller has just handed every injected frame to the pipeline and
    /// drained the wire; two known defects of the program shape what
    /// happens around the timed call (NOTES.md, "Known defects"):
    ///
    /// * a param patch waits for in-flight batches first (`flush`,
    ///   untimed): `Capsule::replace` rebinds the swapped element's
    ///   callers before its own `out` edge, and a batch entering in
    ///   between is accepted and silently dropped;
    /// * after a migration `wire` drains the tx NIC before any new
    ///   frame is handed off: the tx leg has one queue per shard, so a
    ///   migrated flow's older frames must leave their old queue before
    ///   its newer ones reach another.
    pub fn maybe_act(
        &mut self,
        lane: &mut Lane,
        offered: u64,
        since: &mut u64,
        wire: &mut dyn FnMut(&Lane),
    ) -> Result<bool> {
        if offered < *since + self.block {
            return Ok(false);
        }
        *since = offered;
        self.step += 1;
        if self.step.is_multiple_of(self.patch_every) {
            self.patch(lane)?;
        } else {
            self.migrate(lane);
            wire(lane);
        }
        Ok(true)
    }

    fn patch(&mut self, lane: &mut Lane) -> Result<()> {
        let tier = self.next_tier;
        self.next_tier = match tier {
            Tier::Param => Tier::Struct,
            Tier::Struct => Tier::Param,
        };
        let next = next_desc(lane.binding.desc(), tier);
        if tier == Tier::Param {
            lane.pipe.flush();
        }
        let t = Instant::now();
        let patch = lane.binding.diff_to(&next)?;
        self.log.diff_us.push(us(t.elapsed()));
        let t = Instant::now();
        let report = lane.binding.apply_sharded(&lane.pipe, &patch)?;
        let dt = us(t.elapsed());
        self.log.epochs += report.epochs;
        match tier {
            Tier::Param => self.log.patch_param_us.push(dt),
            Tier::Struct => self.log.patch_struct_us.push(dt),
        }
        Ok(())
    }

    fn migrate(&mut self, lane: &Lane) {
        let nics = lane.steered_nics();
        match &mut self.migrate {
            Migrate::Control(ctl) => {
                let t = Instant::now();
                let turn = lane.pipe.control_turn(ctl, &nics);
                let dt = us(t.elapsed());
                self.log.turn_us.push(dt);
                if let Some((_, report)) = turn {
                    self.log.migrate_us.push(dt);
                    self.log.migrations += 1;
                    self.log.moved_buckets += report.moved_buckets as u64;
                    self.log.resubmitted += report.resubmitted as u64;
                }
            }
            Migrate::Forced { next } => {
                let mut map = lane.pipe.bucket_map();
                for b in *next..*next + 16 {
                    map.set(b % 256, (map.shard_of_bucket(b % 256) + 1) % lane.workers);
                }
                *next = (*next + 16) % 256;
                let t = Instant::now();
                let report = lane.pipe.install_bucket_map(map, &nics);
                self.log.migrate_us.push(us(t.elapsed()));
                self.log.migrations += 1;
                self.log.moved_buckets += report.moved_buckets as u64;
                self.log.resubmitted += report.resubmitted as u64;
            }
        }
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
