//! **Decision traces** — the rebalance controller must keep making the
//! decisions it is recorded making. A seeded stream of windows
//! (spread, skewed, sub-`min_samples`), ring pressure and heavy-hitter
//! evidence drives two controllers on 2 and on 4 shards: `edge`, the
//! one compiled from the stateful edge's control section (a
//! `[1.2, 1.5]` band armed after two windows, `pressure_weight` 0.5),
//! and `weighted`, `RebalancePolicy::default()` with `heavy_blend` 0.5
//! and a 2-tick cooldown. Every turn's `Gathering` / `Hold` /
//! `Migrate` and moved buckets must match
//! `tests/testdata/decision_traces.txt`, which was recorded from the
//! earlier layered design (a pluggable hysteresis core; a weighted
//! policy wrapped in a heavy-hitter policy).

use std::fmt::Write as _;
use std::sync::Arc;

use netkit::opencom::meta::resources::ResourceManager;
use netkit::packet::sketch::HeavyHitter;
use netkit::packet::steer::{BucketMap, RSS_BUCKETS};
use netkit::router::shard::{ControlDecision, RebalanceController, RebalancePolicy, ShardLoad};
use netkit::services::edge::{build_stateful_edge, EdgeProfile};

const EXPECTED: &str = include_str!("testdata/decision_traces.txt");

/// splitmix64: a self-contained seeded stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// One turn's evidence: window, shard pressure, heavy hitters, ring
/// capacity.
type Turn = (Vec<u64>, Vec<ShardLoad>, Vec<HeavyHitter>, usize);

fn turn(rng: &mut Rng, shards: usize) -> Turn {
    let mut window = vec![0u64; RSS_BUCKETS];
    let mode = rng.below(7);
    let hot = rng.below(RSS_BUCKETS as u64) as usize;
    if mode < 3 {
        // Spread: many buckets of similar weight, imbalance near the band.
        for _ in 0..64 + rng.below(192) {
            window[rng.below(RSS_BUCKETS as u64) as usize] += 20 + rng.below(20);
        }
        window[hot] += rng.below(600);
    } else {
        // Skewed (one hot bucket among a few), or tiny (mode 3).
        for _ in 0..1 + rng.below(24) {
            let b = match rng.below(3) {
                0 => hot,
                _ => rng.below(RSS_BUCKETS as u64) as usize,
            };
            window[b] += if mode == 3 {
                rng.below(6)
            } else {
                1 + rng.below(120)
            };
        }
    }
    let cap = [64u64, 256, 1024][rng.below(3) as usize];
    let loads = match rng.below(3) {
        0 => Vec::new(),
        _ => (0..shards)
            .map(|shard| ShardLoad {
                shard,
                ring_high_water: rng.below(cap + 32) as usize,
                in_flight: rng.below(cap / 2) as usize,
                ..ShardLoad::default()
            })
            .collect(),
    };
    let heavy = match rng.below(2) {
        0 => Vec::new(),
        _ => (0..1 + rng.below(8))
            .map(|_| HeavyHitter {
                hash: rng.next(),
                error: 0,
                weight: rng.below(20_000),
            })
            .collect(),
    };
    (window, loads, heavy, cap as usize)
}

/// Runs 200 seeded turns, installing each plan, and renders one line
/// per turn: `<name> <seed>/<shards> <turn> G|H|M <moved>`.
fn record(name: &str, mut ctl: RebalanceController, seed: u64, shards: usize) -> String {
    let mut rng = Rng(seed);
    let mut current = BucketMap::identity(shards);
    let mut out = String::new();
    for i in 0..200 {
        let (window, loads, heavy, cap) = turn(&mut rng, shards);
        let _ = write!(out, "{name} {seed}/{shards} {i:03} ");
        match ctl.decide(&window, &loads, &heavy, cap, &current) {
            ControlDecision::Gathering => out.push('G'),
            ControlDecision::Hold => out.push('H'),
            ControlDecision::Migrate(plan) => {
                let moved: Vec<String> = plan.moved.iter().map(usize::to_string).collect();
                let _ = write!(out, "M {}", moved.join(","));
                current = plan.map;
            }
        }
        out.push('\n');
    }
    out
}

#[test]
fn recorded_decisions_replay_identically() {
    let mut actual = String::new();
    for (seed, shards) in [(11u64, 2usize), (23, 4)] {
        let (_, binding) =
            build_stateful_edge(&EdgeProfile::default(), 2, Arc::new(ResourceManager::new()))
                .unwrap();
        let edge = binding
            .controller()
            .unwrap()
            .expect("edge has a control section");
        actual += &record("edge", edge, seed, shards);
        let weighted = RebalanceController::new(
            RebalancePolicy {
                heavy_blend: 0.5,
                ..RebalancePolicy::default()
            },
            2,
        );
        actual += &record("weighted", weighted, seed, shards);
    }
    assert_eq!(actual.lines().count(), EXPECTED.lines().count());
    for (got, want) in actual.lines().zip(EXPECTED.lines()) {
        assert_eq!(got, want, "first diverging turn");
    }
    // The stream exercises every outcome on both controllers.
    for name in ["edge", "weighted"] {
        for outcome in [" G", " H", " M "] {
            assert!(
                EXPECTED
                    .lines()
                    .any(|l| l.starts_with(name) && l.contains(outcome)),
                "{name} never decides{outcome}"
            );
        }
    }
}
