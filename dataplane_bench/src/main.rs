//! The canonical dataplane benchmark: frames enter a pooled
//! multi-queue NIC, run through a threaded sharded stateful edge
//! (guard → conntrack → nat44 → egress → `ToDevice`), and are drained
//! off the tx NIC and checked on the wire side.
//!
//! ```text
//! cargo run --release --manifest-path dataplane_bench/Cargo.toml -- \
//!     --workload mice_rss --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One generator thread (this one) owns injection, the producer
//! hand-off (`pump_nic` / `dispatch`), every control call and the
//! drain; the pipeline's workers are the only other threads. Every
//! number is timed around public calls from this crate. With
//! `--trace 0` the last stdout line carries the end-to-end metrics,
//! with `--trace 1` the per-layer ones; a failed correctness check
//! prints the failures, reports `"correct": false` and exits 1.
//! See `NOTES.md` for the workloads, the metrics and what each layer
//! metric should move.

mod lane;
mod sys;
mod trace;
mod traffic;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use lane::{Lane, Migrate, Schedule, Steering, BURST};
use netkit_packet::batch::PacketBatch;
use netkit_router::shard::DropStats;
use netkit_services::edge::EdgeProfile;
use opencom::error::Result;
use trace::Tracer;
use traffic::{Checker, Traffic, MAX_FRAME};

/// Frames the closed loop keeps in flight (injected, not yet drained).
const WINDOW: u64 = 1024;
/// Frames per lockstep round in the traced run.
const ROUND: usize = 1024;
/// Interleaved rounds of the end-to-end phases.
const SLICES: usize = 10;
/// Alternating untraced/traced blocks in the 1-worker reconciliation.
const RECONCILE_BLOCKS: usize = 10;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 31;
/// Untimed set-ups before them.
const SETUP_WARMUP: usize = 3;
/// Open-loop lateness (p99, µs) above which the generator, not the
/// program, set the latency: several poll periods of the sleeping
/// generator.
const LATE_LIMIT_US: f64 = 500.0;
/// Generator busy share above which a closed loop measured the
/// generator thread rather than the workers.
const GEN_BOUND: f64 = 0.95;
/// How long an idle generator sleeps.
const IDLE_SLEEP: Duration = Duration::from_micros(20);
/// A phase that makes no progress for this long has lost frames.
const STALL: Duration = Duration::from_secs(3);
/// Open-loop offered rate (frames/s) of every workload. Well under every
/// closed-loop rate: small open-loop batches cost more per frame, and at
/// 200 k/s the latency tail already swung by ~45% between runs.
const OPEN_RATE: f64 = 50_000.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    MiceRss,
    MiceDispatch,
    ChurnRss,
    SkewControl,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "mice_rss" => Self::MiceRss,
            "mice_dispatch" => Self::MiceDispatch,
            "churn_rss" => Self::ChurnRss,
            "skew_control" => Self::SkewControl,
            _ => return None,
        })
    }

    fn steering(self) -> Steering {
        match self {
            Self::MiceDispatch => Steering::Dispatch,
            _ => Steering::Rss,
        }
    }

    fn traffic(self, seed: u64) -> Traffic {
        Traffic::new(self == Self::ChurnRss, self == Self::SkewControl, seed)
    }

    /// The control actions of the 2-worker phases: the skew workload
    /// runs the description's decision core; the others get a probe
    /// phase of forced migrations so every workload prices the same
    /// reconfiguration paths under its own traffic.
    fn schedule(self, lane: &Lane) -> Result<Schedule> {
        Ok(match self {
            Self::SkewControl => {
                let ctl = lane
                    .binding
                    .controller()?
                    .expect("edge selects a decision core");
                Schedule::new(1_024, 4, Migrate::Control(ctl))
            }
            _ => Schedule::new(1_024, 2, Migrate::Forced { next: 0 }),
        })
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or(format!("missing {k}"));
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(&workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got `{t}`")),
        },
    })
}

/// Frames one lane was offered and delivered.
#[derive(Clone, Copy, Debug, Default)]
struct Books {
    offered: u64,
    delivered: u64,
}

/// The generator and the wire-side checker, shared by every lane of a
/// run so flow sequence numbers and frame ids run on across phases.
struct Run {
    traffic: Traffic,
    checker: Checker,
    offered: u64,
    buf: Box<[u8; MAX_FRAME]>,
    failures: Vec<String>,
    lost: u64,
    drops: DropStats,
    rx_dropped: u64,
    tx_dropped: u64,
}

impl Run {
    fn new(wl: Workload, seed: u64) -> Self {
        let traffic = wl.traffic(seed);
        let p = EdgeProfile::default();
        let pool_end = p.port_base + p.nat_blocks * p.nat_block_size;
        let checker = Checker::new(&traffic, p.external_ip.octets(), p.port_base, pool_end);
        Self {
            traffic,
            checker,
            offered: 0,
            buf: Box::new([0; MAX_FRAME]),
            failures: Vec::new(),
            lost: 0,
            drops: DropStats::default(),
            rx_dropped: 0,
            tx_dropped: 0,
        }
    }

    fn inject(&mut self, lane: &Lane, books: &mut Books) {
        let len = self.traffic.next_frame(self.offered, &mut self.buf);
        lane.rx.inject_rx_frame(&self.buf[..len]);
        self.offered += 1;
        books.offered += 1;
    }

    /// Drains the wire, checking every frame; `on` sees each good
    /// frame's id.
    fn drain(&mut self, lane: &Lane, books: &mut Books, mut on: impl FnMut(u64)) -> u64 {
        let offered = self.offered;
        let checker = &mut self.checker;
        let n = lane.drain(|f| {
            if let Some(g) = checker.check(f, offered) {
                on(g);
            }
        }) as u64;
        books.delivered += n;
        n
    }

    /// Pumps, flushes and drains until every frame the lane was offered
    /// is delivered or booked lost.
    fn settle(&mut self, lane: &Lane, books: &mut Books, mut on: impl FnMut(u64)) -> bool {
        let deadline = Instant::now() + STALL;
        loop {
            lane.pump_all();
            lane.pipe.flush();
            self.drain(lane, books, &mut on);
            if books.delivered + lane.lost() >= books.offered {
                return true;
            }
            if Instant::now() > deadline {
                self.failures.push(format!(
                    "{} frames neither delivered nor booked lost",
                    books.offered - books.delivered - lane.lost()
                ));
                return false;
            }
        }
    }

    /// Settles a lane, closes its books and shuts it down.
    fn retire(&mut self, lane: Lane, mut books: Books) {
        if self.settle(&lane, &mut books, |_| {}) {
            let lost = lane.lost();
            if books.offered != books.delivered + lost {
                self.failures.push(format!(
                    "books do not close: offered {} != delivered {} + lost {lost}",
                    books.offered, books.delivered
                ));
            }
        }
        let nic = lane.rx.stats();
        let tx = lane.tx.stats();
        let d = lane.pipe.drop_stats();
        if tx.tx_dropped > d.graph {
            self.failures.push(format!(
                "{} tx-ring drops but only {} graph drops booked",
                tx.tx_dropped, d.graph
            ));
        }
        if tx.tx_frames != books.delivered {
            self.failures.push(format!(
                "tx NIC accepted {} frames, the wire drained {}",
                tx.tx_frames, books.delivered
            ));
        }
        self.lost += books.offered.saturating_sub(books.delivered);
        self.rx_dropped += nic.rx_dropped;
        self.tx_dropped += tx.tx_dropped;
        self.drops.ring_full += d.ring_full;
        self.drops.dead_worker += d.dead_worker;
        self.drops.resteer_shed += d.resteer_shed;
        self.drops.guard += d.guard;
        self.drops.graph += d.graph;
        lane.pipe.shutdown();
    }

    fn ok(&self) -> bool {
        self.failures.is_empty() && self.checker.errors == 0
    }
}

/// Builds a lane, delivers one frame to the wire, and returns the time
/// that took (compile + spawn + first frame; the benchmark's own thread
/// pinning in between is left out).
fn time_setup(run: &mut Run, workers: usize, steering: Steering) -> Result<f64> {
    let lane = Lane::build(workers, steering)?;
    let mut books = Books::default();
    let t = Instant::now();
    run.inject(&lane, &mut books);
    lane.pump_all();
    lane.pipe.flush();
    run.drain(&lane, &mut books, |_| {});
    let dt = (lane.build_time + t.elapsed()).as_secs_f64();
    run.retire(lane, books);
    Ok(dt)
}

/// Closed-loop results, accumulated over every slice of a phase.
#[derive(Debug, Default)]
struct Closed {
    pps: Vec<f64>,
    cpu_ns: Vec<f64>,
    /// Generator time in iterations that moved frames or acted.
    busy_ns: f64,
    /// Generator thread CPU time.
    gen_cpu_ns: f64,
    wall_ns: f64,
    rx_pending_max: usize,
    delivered: u64,
    buf_alloc: u64,
    batch_alloc: u64,
}

impl Closed {
    /// Share of measured wall time the generator was busy (1.0 = it
    /// never waited for the pipeline).
    fn gen_busy(&self) -> f64 {
        self.busy_ns / self.wall_ns.max(1.0)
    }

    /// Generator thread CPU ÷ wall.
    fn gen_cpu(&self) -> f64 {
        self.gen_cpu_ns / self.wall_ns.max(1.0)
    }
}

/// Closed loop: keeps `WINDOW` frames in flight — inject up to the
/// window, hand off, drain — with no flush inside the timed span, and
/// adds `windows` measured sub-windows of `measure` to `out`.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    run: &mut Run,
    lane: &mut Lane,
    books: &mut Books,
    warm: Duration,
    measure: Duration,
    windows: usize,
    mut sched: Option<&mut Schedule>,
    out: &mut Closed,
) -> Result<()> {
    let start = Instant::now();
    let win = measure / windows as u32;
    let mut next_mark = start + warm;
    let mut marks: Vec<(Instant, u64, u64)> = Vec::new();
    let (mut gen_cpu0, mut busy_ns) = (0u64, 0u128);
    let (mut buf0, mut batch0) = (0u64, 0u64);
    let mut in_flight = books.offered - books.delivered - lane.lost();
    let mut since = books.offered;
    let mut last_progress = start;
    let mut prev: Option<Instant> = None;
    loop {
        let now = Instant::now();
        if let Some(p) = prev.take() {
            if !marks.is_empty() {
                busy_ns += (now - p).as_nanos();
            }
        }
        if now >= next_mark {
            if marks.is_empty() {
                gen_cpu0 = sys::thread_cpu_ns();
                buf0 = lane.rx.buffer_pool().map_or(0, |p| p.stats().allocated);
                batch0 = lane.pipe.batch_pool().stats().allocated;
            }
            marks.push((now, books.delivered, sys::process_cpu_ns()));
            if marks.len() > windows {
                break;
            }
            next_mark += win;
        }
        let mut progressed = false;
        while in_flight < WINDOW {
            run.inject(lane, books);
            in_flight += 1;
            progressed = true;
        }
        out.rx_pending_max = out.rx_pending_max.max(lane.rx.rx_pending());
        progressed |= lane.pump_all() > 0;
        let d = run.drain(lane, books, |_| {});
        in_flight -= d.min(in_flight);
        progressed |= d > 0;
        if let Some(s) = sched.as_deref_mut() {
            let offered = books.offered;
            if s.maybe_act(lane, offered, &mut since, &mut |l| {
                run.drain(l, books, |_| {});
            })? {
                progressed = true;
                in_flight = books.offered - books.delivered - lane.lost();
            }
        }
        if progressed {
            last_progress = now;
            prev = Some(now);
        } else {
            // Frames booked lost never reach the wire: re-derive what
            // is really in flight before waiting on it.
            in_flight = books.offered - books.delivered - lane.lost();
            if now - last_progress > STALL {
                run.failures.push(format!(
                    "closed loop stalled with {in_flight} frames in flight"
                ));
                break;
            }
            std::thread::sleep(IDLE_SLEEP);
        }
    }
    for w in marks.windows(2) {
        let ((t0, d0, c0), (t1, d1, c1)) = (w[0], w[1]);
        let n = (d1 - d0).max(1) as f64;
        out.pps.push(n / (t1 - t0).as_secs_f64());
        out.cpu_ns.push((c1 - c0) as f64 / n);
    }
    if let (Some(first), Some(last)) = (marks.first(), marks.last()) {
        out.wall_ns += (last.0 - first.0).as_nanos() as f64;
        out.busy_ns += busy_ns as f64;
        out.gen_cpu_ns += (sys::thread_cpu_ns() - gen_cpu0) as f64;
        out.delivered += last.1 - first.1;
    }
    out.buf_alloc += lane.rx.buffer_pool().map_or(0, |p| p.stats().allocated) - buf0;
    out.batch_alloc += lane.pipe.batch_pool().stats().allocated - batch0;
    // Nothing stays in flight across phases: a flow's older frames on
    // this lane must reach the wire before its newer ones on another.
    run.settle(lane, books, |_| {});
    Ok(())
}

#[derive(Debug, Default)]
struct Open {
    /// Latency samples (µs), one list per measured sub-window (by due
    /// time).
    lat_us: Vec<Vec<f64>>,
    /// The generator's lateness (µs), per sub-window, leaving out frames
    /// that fell due while it sat in a control call (that lateness is the
    /// program's).
    late_us: Vec<Vec<f64>>,
}

impl Open {
    /// Windows in which the generator offered load on time. A window
    /// where it ran late measured the generator (or the host), not the
    /// program; only when no window was on time does every window count
    /// (and the run is flagged).
    fn valid(&self) -> Vec<&Vec<f64>> {
        let on_time: Vec<&Vec<f64>> = self
            .lat_us
            .iter()
            .zip(&self.late_us)
            .filter(|(lat, late)| !lat.is_empty() && sys::quantile(late, 0.99) <= LATE_LIMIT_US)
            .map(|(lat, _)| lat)
            .collect();
        if on_time.is_empty() {
            self.lat_us.iter().filter(|w| !w.is_empty()).collect()
        } else {
            on_time
        }
    }

    fn p50(&self) -> f64 {
        let all: Vec<f64> = self.valid().into_iter().flatten().copied().collect();
        sys::median(&all)
    }

    /// The median over valid sub-windows of each window's `q` quantile:
    /// a stall that hits one window moves one sample, not the figure.
    fn tail(&self, q: f64) -> f64 {
        let per: Vec<f64> = self
            .valid()
            .into_iter()
            .map(|w| sys::quantile(w, q))
            .collect();
        sys::median(&per)
    }

    fn late_p99(&self) -> f64 {
        sys::quantile(&self.late_us.concat(), 0.99)
    }

    fn samples(&self) -> usize {
        self.lat_us.iter().map(Vec::len).sum()
    }
}

/// Open loop: frame `k` is due at `k / rate` seconds; each is timed
/// from its due time to its drain off the wire, and the generator's own
/// lateness (inject time − due time) is recorded beside it; `windows`
/// measured sub-windows of `measure` are added to `out`. When it has
/// nothing to do the generator sleeps, leaving both CPUs to the workers.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    run: &mut Run,
    lane: &mut Lane,
    books: &mut Books,
    rate: f64,
    warm: Duration,
    measure: Duration,
    windows: usize,
    mut sched: Option<&mut Schedule>,
    out: &mut Open,
) -> Result<()> {
    let per_window = (rate * measure.as_secs_f64() * 1.2) as usize / windows;
    let first = out.lat_us.len();
    out.lat_us
        .extend((0..windows).map(|_| Vec::with_capacity(per_window)));
    out.late_us
        .extend((0..windows).map(|_| Vec::with_capacity(per_window)));
    let (warm_s, end_s) = (warm.as_secs_f64(), (warm + measure).as_secs_f64());
    let win_s = measure.as_secs_f64() / windows as f64;
    let window_of = move |due_s: f64| {
        (due_s >= warm_s).then(|| first + (((due_s - warm_s) / win_s) as usize).min(windows - 1))
    };
    let g0 = run.offered;
    let mut since = books.offered;
    let t0 = Instant::now();
    let mut k = 0u64;
    let mut last_progress = t0;
    let mut acted = false;
    loop {
        let now = Instant::now();
        let el = (now - t0).as_secs_f64();
        if el >= end_s {
            break;
        }
        let mut progressed = false;
        let due = ((el * rate) as u64).min(k + BURST as u64 * 8);
        while k < due {
            let due_s = k as f64 / rate;
            // Frames that fell due while the generator sat in a control
            // call are late by the program's time, not the generator's.
            if let (Some(w), false) = (window_of(due_s), acted) {
                out.late_us[w].push((el - due_s) * 1e6);
            }
            run.inject(lane, books);
            k += 1;
            progressed = true;
        }
        progressed |= lane.pump_all() > 0;
        let lat = &mut out.lat_us;
        let mut wire = |run: &mut Run, books: &mut Books, l: &Lane| {
            let t_drain = (Instant::now() - t0).as_secs_f64();
            run.drain(l, books, |g| {
                let due_s = (g - g0) as f64 / rate;
                if let Some(w) = window_of(due_s) {
                    lat[w].push((t_drain - due_s) * 1e6);
                }
            })
        };
        progressed |= wire(run, books, lane) > 0;
        acted = false;
        if let Some(s) = sched.as_deref_mut() {
            let offered = books.offered;
            acted = s.maybe_act(lane, offered, &mut since, &mut |l| {
                wire(run, books, l);
            })?;
            progressed |= acted;
        }
        if progressed {
            last_progress = now;
        } else if now - last_progress > STALL {
            run.failures.push("open loop stalled".into());
            break;
        } else {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
    let lat = &mut out.lat_us;
    run.settle(lane, books, |g| {
        let due_s = (g - g0) as f64 / rate;
        if let Some(w) = window_of(due_s) {
            lat[w].push(((Instant::now() - t0).as_secs_f64() - due_s) * 1e6);
        }
    });
    Ok(())
}

/// Per-layer sums of a lockstep phase.
#[derive(Debug, Default)]
struct Lock {
    frames: u64,
    rounds: u64,
    round_ns: u128,
    inject_ns: u128,
    /// All hand-off calls (the budget) …
    handoff_ns: u128,
    /// … and the ones that moved frames (the per-call metric).
    handoff_busy_ns: u128,
    handoff_calls: u64,
    flush_ns: u128,
    drain_ns: u128,
    coord_ns: i128,
    split_ns: u128,
    split_batches: u64,
    graph_ns: Vec<u64>,
    graph_pkts: u64,
    elements: BTreeMap<String, u64>,
    /// Σ over rounds of max/mean packets per shard.
    imbalance_sum: f64,
    wall_ns: u128,
}

/// What a lockstep phase runs besides traffic.
#[derive(Default)]
struct Extras<'a> {
    tracer: Option<&'a mut Tracer>,
    sched: Option<&'a mut Schedule>,
    /// Price the dispatch's split on copies of the batches.
    split: bool,
}

/// Lockstep rounds — inject `ROUND` frames, hand them off, flush, drain
/// — so each round splits cleanly into its layers, accumulated into
/// `l`. Control actions run between rounds, on an idle pipeline.
fn lockstep(
    run: &mut Run,
    lane: &mut Lane,
    books: &mut Books,
    dur: Duration,
    extras: Extras<'_>,
    l: &mut Lock,
) -> Result<()> {
    let Extras {
        mut tracer,
        mut sched,
        split: measure_split,
    } = extras;
    let graph0 = tracer.as_ref().map(|t| t.graph_ns()).unwrap_or_default();
    let pkts0 = tracer.as_ref().map_or(0, |t| t.graph_pkts());
    let el0 = tracer.as_ref().map(|t| t.self_ns()).unwrap_or_default();
    let shard_packets =
        |lane: &Lane| -> Vec<u64> { lane.pipe.shard_loads().iter().map(|s| s.packets).collect() };
    let mut since = books.offered;
    let start = Instant::now();
    while start.elapsed() < dur && run.failures.is_empty() {
        let loads0 = shard_packets(lane);
        let t0 = Instant::now();
        for _ in 0..ROUND {
            run.inject(lane, books);
        }
        let t1 = Instant::now();
        l.inject_ns += (t1 - t0).as_nanos();
        let mut split_overhead = Duration::ZERO;
        for shard in 0..lane.rx.queues() {
            loop {
                let (n, dt) = if measure_split {
                    // Price the split the dispatch performs on a copy of
                    // the batch, outside the timed hand-off.
                    let mut batch = lane.pipe.batch_pool().take();
                    let n = lane.rx.rx_burst_batch(0, BURST, &mut batch);
                    if n > 0 {
                        let tc = Instant::now();
                        let copy: PacketBatch = batch.iter().cloned().collect();
                        let map = lane.pipe.bucket_map();
                        let ts = Instant::now();
                        drop(copy.shard_split_with(&map).into_shared());
                        l.split_ns += ts.elapsed().as_nanos();
                        l.split_batches += 1;
                        split_overhead += tc.elapsed();
                        let td = Instant::now();
                        lane.pipe.dispatch(batch);
                        (n, td.elapsed())
                    } else {
                        (0, Duration::ZERO)
                    }
                } else {
                    let t = Instant::now();
                    let n = lane.pump_once(shard);
                    (n, t.elapsed())
                };
                l.handoff_ns += dt.as_nanos();
                if n == 0 {
                    break;
                }
                l.handoff_busy_ns += dt.as_nanos();
                l.handoff_calls += 1;
            }
        }
        let g_before = tracer.as_ref().map(|t| t.graph_ns()).unwrap_or_default();
        let t2 = Instant::now();
        lane.pipe.flush();
        let flush = t2.elapsed().as_nanos();
        l.flush_ns += flush;
        if let Some(t) = tracer.as_ref() {
            // The critical path is the busiest CPU: shards pinned to the
            // same CPU take turns, so their graph times add up.
            let mut per_cpu: BTreeMap<usize, u64> = BTreeMap::new();
            for ((now, before), cpu) in t.graph_ns().iter().zip(&g_before).zip(&lane.cpu_of_shard) {
                *per_cpu.entry(*cpu).or_default() += now - before;
            }
            let busiest = per_cpu.values().copied().max().unwrap_or(0);
            l.coord_ns += flush as i128 - busiest as i128;
        }
        let t3 = Instant::now();
        run.drain(lane, books, |_| {});
        let t4 = Instant::now();
        l.drain_ns += (t4 - t3).as_nanos();
        l.round_ns += (t4 - t0).saturating_sub(split_overhead).as_nanos();
        l.rounds += 1;
        l.frames += ROUND as u64;
        let loads: Vec<f64> = shard_packets(lane)
            .iter()
            .zip(&loads0)
            .map(|(a, b)| (a - b) as f64)
            .collect();
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        if mean > 0.0 {
            l.imbalance_sum += loads.iter().cloned().fold(0.0, f64::max) / mean;
        }
        if books.delivered + lane.lost() != books.offered {
            run.failures.push(format!(
                "lockstep round lost track: offered {} delivered {} lost {}",
                books.offered,
                books.delivered,
                lane.lost()
            ));
        }
        if let Some(s) = sched.as_deref_mut() {
            // The round drained the wire already.
            if s.maybe_act(lane, books.offered, &mut since, &mut |_| {})? {
                if let Some(t) = tracer.as_deref_mut() {
                    t.refresh(lane)?;
                }
            }
        }
    }
    l.wall_ns += start.elapsed().as_nanos();
    if let Some(t) = tracer.as_ref() {
        let graph = t.graph_ns();
        l.graph_ns.resize(graph.len(), 0);
        for ((acc, now), before) in l.graph_ns.iter_mut().zip(&graph).zip(&graph0) {
            *acc += now - before;
        }
        l.graph_pkts += t.graph_pkts() - pkts0;
        for (name, ns) in t.self_ns() {
            let base = el0.get(&name).copied().unwrap_or(0);
            *l.elements.entry(name).or_default() += ns.saturating_sub(base);
        }
    }
    Ok(())
}

impl Lock {
    fn per_frame(&self, ns: u128) -> f64 {
        ns as f64 / self.frames.max(1) as f64
    }

    fn graph_per_pkt(&self) -> f64 {
        self.graph_ns.iter().sum::<u64>() as f64 / self.graph_pkts.max(1) as f64
    }

    fn element_per_pkt(&self, name: &str) -> f64 {
        self.elements.get(name).copied().unwrap_or(0) as f64 / self.graph_pkts.max(1) as f64
    }

    /// Σ layer times per frame: inject + hand-off + graph + drain.
    fn layer_sum(&self) -> f64 {
        self.per_frame(self.inject_ns + self.handoff_ns)
            + self.graph_per_pkt()
            + self.per_frame(self.drain_ns)
    }
}

/// Metric name → (value, unit), in output order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn print_result(run: &Run, metrics: &Metrics) {
    let ok = run.ok();
    let attempted = run.offered.max(1);
    let failed = run.lost + run.checker.errors;
    let body: Vec<String> = if ok {
        metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect()
    } else {
        Vec::new()
    };
    println!(
        "{{\"correct\": {ok}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn report_traffic(run: &Run) {
    let s = run.traffic.stats;
    let f = s.frames.max(1) as f64;
    println!(
        "traffic: {} frames, new-flow share {:.4}, mean frame {:.1} B, <=128 B {:.3}, >1024 B {:.3}",
        s.frames,
        s.new_flows as f64 / f,
        s.bytes as f64 / f,
        s.small as f64 / f,
        s.large as f64 / f
    );
}

fn report_failures(run: &Run) {
    let c = &run.checker;
    if c.tcp_bad_checksum > 0 {
        println!(
            "DEFECT: {} of {} checked TCP frames left the NAT with a stale checksum (known defect, NOTES.md)",
            c.tcp_bad_checksum, c.tcp_checked
        );
    }
    for f in &run.failures {
        println!("FAIL: {f}");
    }
    if run.checker.errors > 0 {
        println!(
            "FAIL: {} delivered frames failed the wire checks",
            run.checker.errors
        );
        for e in run.checker.first_errors() {
            println!("FAIL:   {e}");
        }
    }
}

fn fail_ratio(run: &Run) -> f64 {
    run.lost as f64 / run.offered.max(1) as f64
}

/// The end-to-end run (`--trace 0`).
fn end_to_end(args: &Args) -> Result<(Run, Metrics)> {
    let wl = args.workload;
    let s = args.seconds;
    let mut run = Run::new(wl, args.seed);
    let rss_base_kb = sys::status_kb("VmRSS");

    // Set-ups first, one after another, the first few untimed: the
    // allocator then hands each build the memory the last one freed,
    // instead of fresh pages whose cost depends on what else is alive.
    for _ in 0..SETUP_WARMUP {
        time_setup(&mut run, 2, wl.steering())?;
    }
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        setups.push(time_setup(&mut run, 2, wl.steering())?);
    }

    // The phases run interleaved in `SLICES` rounds — w1 closed, w2
    // closed, w2 open, probe — so a slow stretch of the host lands on
    // every metric a little instead of on one metric entirely. The skew
    // workload runs its control schedule in both 2-worker phases and
    // takes its times from the open loop, where the backlog a quiesce
    // waits for is set by the offered rate, not by the program's speed.
    // The other workloads add a probe: the same actions (migrations
    // forced) at their own offered rate.
    let skew = wl == Workload::SkewControl;
    let slice = Duration::from_secs_f64(s * 0.25 / SLICES as f64);
    let probe = Duration::from_secs_f64(s * 0.2 / SLICES as f64);
    let mut lane1 = Lane::build(1, wl.steering())?;
    let mut books1 = Books::default();
    let mut lane2 = Lane::build(2, wl.steering())?;
    let mut books2 = Books::default();
    let mut closed_sched = wl.schedule(&lane2)?;
    let mut sched = wl.schedule(&lane2)?;
    let (mut w1, mut w2, mut open) = (Closed::default(), Closed::default(), Open::default());
    let mut mem_mb = 0.0;
    for i in 0..SLICES {
        let warm = Duration::from_millis(if i == 0 { 250 } else { 20 });
        closed_loop(
            &mut run,
            &mut lane1,
            &mut books1,
            warm,
            slice,
            2,
            None,
            &mut w1,
        )?;
        let sched2 = skew.then_some(&mut closed_sched);
        closed_loop(
            &mut run,
            &mut lane2,
            &mut books2,
            warm,
            slice,
            2,
            sched2,
            &mut w2,
        )?;
        if i == 0 {
            mem_mb = sys::status_kb("VmHWM").saturating_sub(rss_base_kb) as f64 / 1024.0;
        }
        let rate = OPEN_RATE;
        let sched2 = skew.then_some(&mut sched);
        open_loop(
            &mut run,
            &mut lane2,
            &mut books2,
            rate,
            warm,
            slice,
            2,
            sched2,
            &mut open,
        )?;
        if !skew {
            let mut unused = Open::default();
            let s = Some(&mut sched);
            open_loop(
                &mut run,
                &mut lane2,
                &mut books2,
                rate,
                Duration::ZERO,
                probe,
                1,
                s,
                &mut unused,
            )?;
        }
    }
    run.retire(lane1, books1);
    run.retire(lane2, books2);

    let log = &sched.log;
    let late_p99 = open.late_p99();
    report_traffic(&run);
    println!(
        "generator: busy w1 {:.3} w2 {:.3} (cpu share {:.3} / {:.3}); open-loop lateness p99 {:.1} us",
        w1.gen_busy(),
        w2.gen_busy(),
        w1.gen_cpu(),
        w2.gen_cpu(),
        late_p99
    );
    for (name, c) in [("w1", &w1), ("w2", &w2)] {
        if c.gen_busy() > GEN_BOUND {
            println!("VALIDITY: closed loop {name} is generator-bound (generator busy {:.3}): pps_{name} measures the generator", c.gen_busy());
        }
    }
    if late_p99 > LATE_LIMIT_US {
        println!("VALIDITY: the open loop ran late (lateness p99 {late_p99:.1} us): latency measures the generator");
    }
    println!(
        "control: {} migrations, {} param / {} structural patches, {} turns",
        log.migrations,
        log.patch_param_us.len(),
        log.patch_struct_us.len(),
        log.turn_us.len()
    );
    println!(
        "samples: latency {} frames in {} of {} windows (the rest ran late), setups {}",
        open.samples(),
        open.valid().len(),
        open.lat_us.len(),
        setups.len()
    );
    if log.migrate_us.is_empty() || log.patch_param_us.is_empty() || log.patch_struct_us.is_empty()
    {
        run.failures
            .push("the control schedule produced no migration or patch sample".into());
    }
    let metrics: Metrics = vec![
        ("pps_w1", sys::median(&w1.pps), "1/s"),
        ("pps_w2", sys::median(&w2.pps), "1/s"),
        ("cpu_ns_per_pkt_w1", sys::median(&w1.cpu_ns), "ns"),
        ("cpu_ns_per_pkt_w2", sys::median(&w2.cpu_ns), "ns"),
        ("lat_p50_us", open.p50(), "us"),
        ("lat_p95_us", open.tail(0.95), "us"),
        ("setup_s", sys::median(&setups), "s"),
        ("mem_peak_mb", mem_mb, "MB"),
        ("patch_param_us", sys::median(&log.patch_param_us), "us"),
        ("patch_struct_us", sys::median(&log.patch_struct_us), "us"),
        ("migrate_us", sys::median(&log.migrate_us), "us"),
    ];
    println!("fail_ratio: {:.6}", fail_ratio(&run));
    Ok((run, metrics))
}

/// The traced run (`--trace 1`).
fn traced(args: &Args) -> Result<(Run, Metrics)> {
    let wl = args.workload;
    let s = args.seconds;
    let mut run = Run::new(wl, args.seed);

    // 1 worker on the generator's CPU, so each round runs one step at a
    // time: untraced and traced blocks alternate on one lane (the tracer
    // comes out between blocks), so host drift hits both alike — the
    // reconciled budget.
    let mut lane = Lane::build_placed(1, wl.steering(), true)?;
    let mut books = Books::default();
    let (mut plain, mut w1, mut warm) = (Lock::default(), Lock::default(), Lock::default());
    let block = Duration::from_secs_f64(s * 0.3 / RECONCILE_BLOCKS as f64);
    lockstep(
        &mut run,
        &mut lane,
        &mut books,
        block,
        Extras::default(),
        &mut warm,
    )?;
    let mut tracer = Tracer::install(&lane)?;
    for _ in 0..RECONCILE_BLOCKS {
        tracer.remove(&lane)?;
        lockstep(
            &mut run,
            &mut lane,
            &mut books,
            block,
            Extras::default(),
            &mut plain,
        )?;
        tracer.reinstall(&lane)?;
        let extras = Extras {
            tracer: Some(&mut tracer),
            ..Extras::default()
        };
        lockstep(&mut run, &mut lane, &mut books, block, extras, &mut w1)?;
    }
    run.retire(lane, books);

    // 2 workers, traced (skew_control with its control schedule).
    let skew = wl == Workload::SkewControl;
    let mut lane = Lane::build(2, wl.steering())?;
    let mut books = Books::default();
    let mut tracer = Tracer::install(&lane)?;
    let split = wl.steering() == Steering::Dispatch;
    let extras = Extras {
        tracer: Some(&mut tracer),
        sched: None,
        split,
    };
    lockstep(
        &mut run,
        &mut lane,
        &mut books,
        Duration::from_secs_f64(s * 0.05),
        extras,
        &mut warm,
    )?;
    let mut sched = wl.schedule(&lane)?;
    let mut w2 = Lock::default();
    let extras = Extras {
        tracer: Some(&mut tracer),
        sched: skew.then_some(&mut sched),
        split,
    };
    lockstep(
        &mut run,
        &mut lane,
        &mut books,
        Duration::from_secs_f64(s * 0.25),
        extras,
        &mut w2,
    )?;
    run.retire(lane, books);

    // 2 workers, untraced, as in the end-to-end run: generator
    // validity, pool behaviour, and the control actions' receipts.
    let mut lane = Lane::build(2, wl.steering())?;
    let mut books = Books::default();
    let mut closed = Closed::default();
    let (warm, span) = (Duration::from_millis(250), Duration::from_secs_f64(s * 0.1));
    closed_loop(
        &mut run,
        &mut lane,
        &mut books,
        warm,
        span,
        8,
        None,
        &mut closed,
    )?;
    let ring_hwm = lane
        .pipe
        .shard_loads()
        .iter()
        .map(|l| l.ring_high_water)
        .max()
        .unwrap_or(0);
    let mut sched = wl.schedule(&lane)?;
    let mut open = Open::default();
    let rate = OPEN_RATE;
    let sched2 = skew.then_some(&mut sched);
    open_loop(
        &mut run, &mut lane, &mut books, rate, warm, span, 8, sched2, &mut open,
    )?;
    if !skew {
        let mut unused = Open::default();
        let s = Some(&mut sched);
        open_loop(
            &mut run,
            &mut lane,
            &mut books,
            rate,
            Duration::ZERO,
            span,
            1,
            s,
            &mut unused,
        )?;
    }
    run.retire(lane, books);

    let base = plain.per_frame(plain.round_ns);
    let traced_round = w1.per_frame(w1.round_ns);
    let sum = w1.layer_sum();
    let reconcile = 100.0 * (sum - base) / base;
    let overhead = 100.0 * (traced_round - base) / base;
    let (pump_ns, dispatch_ns) = {
        let per_call = w2.handoff_busy_ns as f64 / w2.handoff_calls.max(1) as f64;
        match wl.steering() {
            Steering::Rss => (per_call, 0.0),
            Steering::Dispatch => (0.0, per_call),
        }
    };
    let imbalance = w2.imbalance_sum / w2.rounds.max(1) as f64;
    let busy = w2.graph_ns.iter().sum::<u64>() as f64
        / (w2.graph_ns.len().max(1) as f64 * w2.wall_ns.max(1) as f64);
    let per_mpkt = |n: u64| n as f64 * 1e6 / closed.delivered.max(1) as f64;
    let t = run.traffic.stats;
    let log = &sched.log;

    report_traffic(&run);
    let hand = if wl.steering() == Steering::Rss {
        "pump"
    } else {
        "dispatch"
    };
    println!(
        "budget w1 (ns/frame): inject {:.1} + {hand} {:.1} + graph {:.1} + drain {:.1} = {:.1} vs untraced round {:.1} ({:+.1}%); traced round {:.1} (overhead {:+.1}%)",
        w1.per_frame(w1.inject_ns),
        w1.per_frame(w1.handoff_ns),
        w1.graph_per_pkt(),
        w1.per_frame(w1.drain_ns),
        sum,
        base,
        reconcile,
        traced_round,
        overhead
    );
    println!(
        "graph w1 (ns/pkt): guard {:.1} conntrack {:.1} nat {:.1} egress {:.1} tx {:.1}",
        w1.element_per_pkt("guard"),
        w1.element_per_pkt("conntrack"),
        w1.element_per_pkt("nat"),
        w1.element_per_pkt("egress"),
        w1.element_per_pkt("sink"),
    );
    println!(
        "budget w2 (ns/frame): inject {:.1} + {hand} {:.1} + flush wait {:.1} + drain {:.1} = round {:.1}; graph {:.1} ns/pkt over 2 shards",
        w2.per_frame(w2.inject_ns),
        w2.per_frame(w2.handoff_ns),
        w2.per_frame(w2.flush_ns),
        w2.per_frame(w2.drain_ns),
        w2.per_frame(w2.round_ns),
        w2.graph_per_pkt()
    );
    let coord = w2.coord_ns as f64 / w2.rounds.max(1) as f64;
    println!(
        "shard.coord_ns (w2, per round of {ROUND}): {coord:.0} = flush wait {:.0} - busiest CPU's graph time",
        w2.flush_ns as f64 / w2.rounds.max(1) as f64
    );

    let metrics: Metrics = vec![
        ("nic.inject_ns", w2.per_frame(w2.inject_ns), "ns"),
        ("nic.drain_ns", w2.per_frame(w2.drain_ns), "ns"),
        ("nic.rx_pending_max", closed.rx_pending_max as f64, "count"),
        ("nic.rx_dropped", run.rx_dropped as f64, "count"),
        ("nic.tx_dropped", run.tx_dropped as f64, "count"),
        ("shard.pump_ns", pump_ns, "ns"),
        ("shard.dispatch_ns", dispatch_ns, "ns"),
        (
            "shard.flush_wait_ns",
            w2.flush_ns as f64 / w2.rounds.max(1) as f64,
            "ns",
        ),
        ("shard.coord_ns", coord, "ns"),
        ("shard.ring_hwm", ring_hwm as f64, "count"),
        ("shard.imbalance", imbalance, "ratio"),
        ("shard.drops.ring_full", run.drops.ring_full as f64, "count"),
        (
            "shard.drops.dead_worker",
            run.drops.dead_worker as f64,
            "count",
        ),
        (
            "shard.drops.resteer_shed",
            run.drops.resteer_shed as f64,
            "count",
        ),
        ("shard.drops.guard", run.drops.guard as f64, "count"),
        ("shard.drops.graph", run.drops.graph as f64, "count"),
        (
            "batch.split_ns",
            w2.split_ns as f64 / w2.split_batches.max(1) as f64,
            "ns",
        ),
        (
            "pool.buf_alloc_per_mpkt",
            per_mpkt(closed.buf_alloc),
            "count",
        ),
        (
            "pool.batch_alloc_per_mpkt",
            per_mpkt(closed.batch_alloc),
            "count",
        ),
        ("guard.self_ns", w2.element_per_pkt("guard"), "ns"),
        ("conntrack.self_ns", w2.element_per_pkt("conntrack"), "ns"),
        ("nat.self_ns", w2.element_per_pkt("nat"), "ns"),
        ("egress.self_ns", w2.element_per_pkt("egress"), "ns"),
        ("tx.self_ns", w2.element_per_pkt("sink"), "ns"),
        ("graph.ns", w2.graph_per_pkt(), "ns"),
        ("worker.busy", busy, "ratio"),
        ("control.turn_us", sys::median(&log.turn_us), "us"),
        ("control.migrations", log.migrations as f64, "count"),
        ("control.moved_buckets", log.moved_buckets as f64, "count"),
        ("control.resubmitted", log.resubmitted as f64, "count"),
        ("desc.diff_us", sys::median(&log.diff_us), "us"),
        (
            "desc.epochs",
            log.epochs as f64
                / (log.patch_param_us.len() + log.patch_struct_us.len()).max(1) as f64,
            "count",
        ),
        ("gen.busy", closed.gen_busy(), "ratio"),
        ("gen.cpu_share", closed.gen_cpu(), "ratio"),
        ("lat.p99_us", open.tail(0.99), "us"),
        ("gen.late_p99_us", open.late_p99(), "us"),
        (
            "gen.new_flow_share",
            t.new_flows as f64 / t.frames.max(1) as f64,
            "ratio",
        ),
        (
            "gen.mean_frame_bytes",
            t.bytes as f64 / t.frames.max(1) as f64,
            "B",
        ),
        ("trace.overhead_pct", overhead, "%"),
        ("trace.reconcile_pct", reconcile.abs(), "%"),
        ("fail_ratio", fail_ratio(&run), "ratio"),
    ];
    Ok((run, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <mice_rss|mice_dispatch|churn_rss|skew_control> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    sys::fix_allocator();
    println!("host: {}", sys::host_stamp());
    lane::place_generator();
    let result = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    let (run, metrics) = match result {
        Ok(r) => r,
        Err(e) => {
            println!("FAIL: {e}");
            return ExitCode::from(1);
        }
    };
    report_failures(&run);
    print_result(&run, &metrics);
    if run.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
