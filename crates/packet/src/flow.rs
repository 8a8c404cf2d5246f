//! Flow identification and per-flow state tables.
//!
//! Stratum 3 operates on "pre-selected packet flows in application-
//! specific ways" (paper §3). [`FlowKey`] is the classic 5-tuple;
//! [`FlowTable`] holds per-flow state with TTL-based soft expiry and
//! bounded capacity.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::net::IpAddr;

use parking_lot::Mutex;

use crate::headers::{proto, EtherType};
use crate::packet::Packet;

/// The shard a packet steers to under `shards` receive queues with the
/// **identity** bucket table: the driver-stamped
/// [`PacketMeta::rss_hash`](crate::packet::PacketMeta::rss_hash) when
/// present, else the parsed flow's [`FlowKey::rss_hash`] (computed and
/// **stamped back is the caller's job** — use [`stamp_rss`] at
/// materialisation time so this function never re-parses), reduced to a
/// bucket ([`crate::steer::bucket_of`]) and then to `bucket % shards`.
/// Packets with no flow identity (ARP, malformed frames)
/// deterministically land on bucket 0, hence shard 0 here.
///
/// Table-driven steering (the rebalancer's non-identity maps) goes
/// through [`crate::steer::BucketMap::shard_of_packet`]; this function
/// is exactly that lookup for `BucketMap::identity(shards)`, and
/// because every power-of-two shard count divides
/// [`crate::steer::RSS_BUCKETS`], it agrees bit-for-bit with the
/// historical `hash % shards` rule for those counts.
///
/// Shard-count edge case: `shards == 0` and `shards == 1` are
/// equivalent — both mean "no spreading", every packet lands on shard 0
/// (mirroring [`FlowKey::shard_for`], `ShardSpec`'s ≥ 1 clamp, and the
/// NIC's single-queue fallback).
pub fn shard_of(pkt: &Packet, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let hash = pkt
        .meta
        .rss_hash
        .or_else(|| FlowKey::from_packet(pkt).map(|k| k.rss_hash()));
    match hash {
        Some(h) => crate::steer::bucket_of(h) % shards,
        None => 0,
    }
}

/// Stamps [`PacketMeta::rss_hash`](crate::packet::PacketMeta::rss_hash)
/// from the packet's parsed flow tuple, if not already stamped — the
/// software analogue of the hash a multi-queue NIC computes in hardware
/// on rx. Returns the stamp. Call once at materialisation (NIC rx /
/// batch construction); every later [`shard_of`] is then a modulo, not
/// a parse.
pub fn stamp_rss(pkt: &mut Packet) -> Option<u64> {
    if pkt.meta.rss_hash.is_none() {
        pkt.meta.rss_hash = FlowKey::from_packet(pkt).map(|k| k.rss_hash());
    }
    pkt.meta.rss_hash
}

/// Which direction of a bidirectional connection a packet belongs to,
/// relative to the flow's [canonical](FlowKey::canonical) orientation.
///
/// Returned by [`FlowKey::canonical_with_direction`] so stateful
/// elements (conntrack, NAT) can keep one table entry per connection
/// and still attribute packets and bytes per direction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FlowDirection {
    /// The packet's tuple already was in canonical orientation — by
    /// convention the connection's *initiator→responder* direction when
    /// the initiator's endpoint sorts first.
    Forward,
    /// The packet's tuple is the canonical key with endpoints swapped.
    Reverse,
}

impl FlowDirection {
    /// True for [`FlowDirection::Forward`].
    pub fn is_forward(self) -> bool {
        matches!(self, FlowDirection::Forward)
    }

    /// The opposite direction.
    pub fn flipped(self) -> FlowDirection {
        match self {
            FlowDirection::Forward => FlowDirection::Reverse,
            FlowDirection::Reverse => FlowDirection::Forward,
        }
    }
}

/// The classic 5-tuple flow identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FlowKey {
    /// Source address.
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
    /// IP protocol number.
    pub protocol: u8,
    /// Source transport port (0 when the protocol has no ports).
    pub src_port: u16,
    /// Destination transport port (0 when the protocol has no ports).
    pub dst_port: u16,
}

impl FlowKey {
    /// Extracts the 5-tuple from a frame, if it is IPv4/IPv6 carrying
    /// UDP or TCP (other traffic yields ports of zero).
    pub fn from_packet(pkt: &Packet) -> Option<FlowKey> {
        Self::from_frame(pkt.data())
    }

    /// Extracts the 5-tuple from raw frame bytes (Ethernet header
    /// first) — the parse a NIC's RSS engine performs on the wire side,
    /// before any [`Packet`] exists.
    pub fn from_frame(frame: &[u8]) -> Option<FlowKey> {
        use crate::headers::{EthernetHeader, Ipv4Header, Ipv6Header, TcpHeader, UdpHeader};
        let eth = EthernetHeader::parse(frame).ok()?;
        let l3 = frame.get(EthernetHeader::LEN..)?;
        match eth.ethertype {
            EtherType::Ipv4 => {
                let ip = Ipv4Header::parse(l3).ok()?;
                let l4 = l3.get(ip.header_len..)?;
                let (src_port, dst_port) = match ip.protocol {
                    proto::UDP => {
                        let udp = UdpHeader::parse(l4).ok()?;
                        (udp.src_port, udp.dst_port)
                    }
                    proto::TCP => {
                        let tcp = TcpHeader::parse(l4).ok()?;
                        (tcp.src_port, tcp.dst_port)
                    }
                    _ => (0, 0),
                };
                Some(FlowKey {
                    src: IpAddr::V4(ip.src),
                    dst: IpAddr::V4(ip.dst),
                    protocol: ip.protocol,
                    src_port,
                    dst_port,
                })
            }
            EtherType::Ipv6 => {
                let ip = Ipv6Header::parse(l3).ok()?;
                Some(FlowKey {
                    src: IpAddr::V6(ip.src),
                    dst: IpAddr::V6(ip.dst),
                    protocol: ip.next_header,
                    src_port: 0,
                    dst_port: 0,
                })
            }
            _ => None,
        }
    }

    /// A stable 64-bit hash of the tuple (for RSS-style spreading).
    pub fn hash64(&self) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut hasher);
        hasher.finish()
    }

    /// The direction-normalized key: the endpoint pair is sorted so
    /// both directions of a connection produce the *same* key —
    /// `canonical(a→b) == canonical(b→a)`. Address and port swap
    /// together (they name one endpoint); the protocol is unchanged.
    ///
    /// Stateful elements key their per-flow tables by this, so a
    /// connection occupies one entry no matter which side sent the
    /// packet in hand. [`Self::rss_hash`] hashes the canonical
    /// orientation for the same reason: both directions must steer to
    /// the same shard or single-writer per-shard flow tables would see
    /// half a connection each.
    pub fn canonical(&self) -> FlowKey {
        if (self.dst, self.dst_port) < (self.src, self.src_port) {
            FlowKey {
                src: self.dst,
                dst: self.src,
                protocol: self.protocol,
                src_port: self.dst_port,
                dst_port: self.src_port,
            }
        } else {
            *self
        }
    }

    /// [`Self::canonical`] plus which direction this tuple was:
    /// [`FlowDirection::Forward`] if it already was canonical,
    /// [`FlowDirection::Reverse`] if the endpoints were swapped.
    pub fn canonical_with_direction(&self) -> (FlowKey, FlowDirection) {
        if (self.dst, self.dst_port) < (self.src, self.src_port) {
            (
                FlowKey {
                    src: self.dst,
                    dst: self.src,
                    protocol: self.protocol,
                    src_port: self.dst_port,
                    dst_port: self.src_port,
                },
                FlowDirection::Reverse,
            )
        } else {
            (*self, FlowDirection::Forward)
        }
    }

    /// The RSS steering hash: FNV-1a over the **canonical** tuple
    /// encoding (sorted endpoints, see [`Self::canonical`]), finished
    /// with a murmur3-style avalanche so the *low* bits — the ones
    /// `% shards` keeps — disperse even when tuples differ only in
    /// their trailing bytes (plain FNV-1a leaves the low bits badly
    /// clustered for e.g. dst-port-only variation).
    ///
    /// Hashing the canonical orientation makes the hash — and therefore
    /// bucket and shard placement — *direction-symmetric*: request and
    /// reply of one connection always steer to the same worker, the
    /// invariant the per-shard single-writer flow tables rely on.
    ///
    /// Unlike [`Self::hash64`] (tied to the std hasher implementation)
    /// this is stable across runs, processes, and platforms, so
    /// flow→queue placement decisions are reproducible — the property
    /// the sharded dataplane's differential tests rely on.
    pub fn rss_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn eat(mut h: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
            h
        }
        let c = self.canonical();
        let mut h = OFFSET;
        h = match c.src {
            IpAddr::V4(a) => eat(h, &a.octets()),
            IpAddr::V6(a) => eat(h, &a.octets()),
        };
        h = match c.dst {
            IpAddr::V4(a) => eat(h, &a.octets()),
            IpAddr::V6(a) => eat(h, &a.octets()),
        };
        h = eat(h, &[c.protocol]);
        h = eat(h, &c.src_port.to_be_bytes());
        h = eat(h, &c.dst_port.to_be_bytes());
        // fmix64 finaliser (murmur3): full avalanche into the low bits.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }

    /// The RSS bucket this flow hashes to (see
    /// [`crate::steer::bucket_of`]) — the granularity at which the
    /// rebalancer migrates load: moving a bucket moves every flow in
    /// it, and never splits a flow.
    pub fn bucket(&self) -> usize {
        crate::steer::bucket_of(self.rss_hash())
    }

    /// The shard (worker receive queue) this flow maps to under
    /// `shards` shards and the identity bucket table:
    /// `bucket() % shards`. Stable for a fixed shard count — every
    /// packet of a flow lands on the same worker, which is what
    /// preserves intra-flow ordering across the parallel dataplane.
    /// (A rebalanced dataplane steers by
    /// [`crate::steer::BucketMap`] instead; the flow → bucket half of
    /// the mapping is shared.)
    pub fn shard_for(&self, shards: usize) -> usize {
        if shards <= 1 {
            0
        } else {
            self.bucket() % shards
        }
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} proto {}",
            self.src, self.src_port, self.dst, self.dst_port, self.protocol
        )
    }
}

struct FlowEntry<T> {
    value: T,
    last_seen_ns: u64,
}

/// A bounded, soft-state table of per-flow values.
///
/// Entries expire `ttl_ns` after their last touch; when full, the
/// least-recently-seen entry is evicted.
///
/// # Examples
///
/// ```
/// use netkit_packet::flow::{FlowKey, FlowTable};
/// use std::net::IpAddr;
///
/// let table: FlowTable<u32> = FlowTable::new(2, 1_000);
/// let key = FlowKey {
///     src: "10.0.0.1".parse::<IpAddr>().unwrap(),
///     dst: "10.0.0.2".parse::<IpAddr>().unwrap(),
///     protocol: 17, src_port: 1, dst_port: 2,
/// };
/// table.insert(key, 7, 0);
/// assert_eq!(table.get(&key, 500), Some(7));
/// assert_eq!(table.get(&key, 5_000), None); // expired
/// ```
pub struct FlowTable<T> {
    entries: Mutex<HashMap<FlowKey, FlowEntry<T>>>,
    max_entries: usize,
    ttl_ns: u64,
}

impl<T: Clone> FlowTable<T> {
    /// Creates a table bounded to `max_entries` with soft TTL `ttl_ns`.
    pub fn new(max_entries: usize, ttl_ns: u64) -> Self {
        Self {
            entries: Mutex::new(HashMap::new()),
            max_entries,
            ttl_ns,
        }
    }

    /// Inserts or refreshes an entry at time `now_ns`, evicting the
    /// least-recently-seen entry if the table is full.
    pub fn insert(&self, key: FlowKey, value: T, now_ns: u64) {
        let mut entries = self.entries.lock();
        if entries.len() >= self.max_entries && !entries.contains_key(&key) {
            if let Some(oldest) = entries
                .iter()
                .min_by_key(|(_, e)| e.last_seen_ns)
                .map(|(k, _)| *k)
            {
                entries.remove(&oldest);
            }
        }
        entries.insert(
            key,
            FlowEntry {
                value,
                last_seen_ns: now_ns,
            },
        );
    }

    /// Fetches the entry and refreshes its timestamp, honouring the TTL.
    pub fn get(&self, key: &FlowKey, now_ns: u64) -> Option<T> {
        let mut entries = self.entries.lock();
        let entry = entries.get_mut(key)?;
        if now_ns.saturating_sub(entry.last_seen_ns) > self.ttl_ns {
            entries.remove(key);
            return None;
        }
        entry.last_seen_ns = now_ns;
        Some(entry.value.clone())
    }

    /// Fetches or creates the entry, returning the value.
    pub fn get_or_insert_with(&self, key: FlowKey, now_ns: u64, make: impl FnOnce() -> T) -> T {
        if let Some(v) = self.get(&key, now_ns) {
            return v;
        }
        let v = make();
        self.insert(key, v.clone(), now_ns);
        v
    }

    /// Drops every entry older than the TTL; returns how many were
    /// removed.
    pub fn expire(&self, now_ns: u64) -> usize {
        let mut entries = self.entries.lock();
        let before = entries.len();
        entries.retain(|_, e| now_ns.saturating_sub(e.last_seen_ns) <= self.ttl_ns);
        before - entries.len()
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True if no flows are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> fmt::Debug for FlowTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FlowTable({} entries, max {}, ttl {}ns)",
            self.entries.lock().len(),
            self.max_entries,
            self.ttl_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;

    fn key(n: u8) -> FlowKey {
        FlowKey {
            src: format!("10.0.0.{n}").parse().unwrap(),
            dst: "10.9.9.9".parse().unwrap(),
            protocol: proto::UDP,
            src_port: 1000 + n as u16,
            dst_port: 53,
        }
    }

    #[test]
    fn extract_udp_v4_tuple() {
        let pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1234, 80).build();
        let k = FlowKey::from_packet(&pkt).unwrap();
        assert_eq!(k.src.to_string(), "10.0.0.1");
        assert_eq!(k.dst.to_string(), "10.0.0.2");
        assert_eq!((k.src_port, k.dst_port, k.protocol), (1234, 80, proto::UDP));
    }

    #[test]
    fn extract_v6_tuple_without_ports() {
        let pkt = PacketBuilder::udp_v6("2001:db8::1", "2001:db8::2", 1, 2).build();
        let k = FlowKey::from_packet(&pkt).unwrap();
        assert_eq!(k.protocol, proto::UDP);
        assert_eq!((k.src_port, k.dst_port), (0, 0));
    }

    #[test]
    fn hash_is_stable_per_key() {
        let a = key(1);
        assert_eq!(a.hash64(), key(1).hash64());
        assert_ne!(a.hash64(), key(2).hash64());
    }

    #[test]
    fn rss_hash_is_reproducible_and_spreads() {
        let k = key(1);
        assert_eq!(k.rss_hash(), key(1).rss_hash());
        let shards: std::collections::HashSet<usize> =
            (0..32u8).map(|n| key(n).shard_for(4)).collect();
        assert!(shards.len() > 1, "32 flows must spread over 4 shards");
        for n in 0..8u8 {
            assert!(key(n).shard_for(4) < 4);
            assert_eq!(key(n).shard_for(1), 0);
            assert_eq!(key(n).shard_for(0), 0);
        }
    }

    #[test]
    fn rss_low_bits_disperse_for_trailing_byte_variation() {
        // Regression guard for the un-finalised FNV-1a weakness: flows
        // differing only in dst_port (the LAST bytes hashed) must still
        // spread near-evenly — `% shards` keeps only the low bits.
        let flow = |dport: u16| FlowKey {
            src: "10.0.0.1".parse().unwrap(),
            dst: "10.0.9.9".parse().unwrap(),
            protocol: proto::UDP,
            src_port: 6000,
            dst_port: dport,
        };
        for shards in [2usize, 4, 8] {
            let mut counts = vec![0usize; shards];
            for dport in 5000..5128u16 {
                counts[flow(dport).shard_for(shards)] += 1;
            }
            let expect = 128 / shards;
            for (shard, &n) in counts.iter().enumerate() {
                assert!(
                    n >= expect / 2 && n <= expect * 2,
                    "shard {shard}/{shards} got {n} of 128 (expect ~{expect}): {counts:?}"
                );
            }
        }
    }

    #[test]
    fn canonical_is_direction_invariant() {
        let ab = FlowKey {
            src: "10.0.0.1".parse().unwrap(),
            dst: "10.9.9.9".parse().unwrap(),
            protocol: proto::TCP,
            src_port: 49152,
            dst_port: 443,
        };
        let ba = FlowKey {
            src: ab.dst,
            dst: ab.src,
            protocol: ab.protocol,
            src_port: ab.dst_port,
            dst_port: ab.src_port,
        };
        assert_eq!(ab.canonical(), ba.canonical());
        // Canonicalising twice is a no-op.
        assert_eq!(ab.canonical().canonical(), ab.canonical());
        // The two orientations report opposite directions…
        let (ck_ab, dir_ab) = ab.canonical_with_direction();
        let (ck_ba, dir_ba) = ba.canonical_with_direction();
        assert_eq!(ck_ab, ck_ba);
        assert_eq!(dir_ab, dir_ba.flipped());
        assert_ne!(dir_ab.is_forward(), dir_ba.is_forward());
        // …and address/port swap together: the canonical key is one of
        // the two original tuples, never a cross-pairing.
        assert!(ck_ab == ab || ck_ab == ba);
    }

    #[test]
    fn canonical_breaks_address_ties_by_port() {
        // Same address both sides (hairpin): the port pair decides.
        let lo = FlowKey {
            src: "10.0.0.1".parse().unwrap(),
            dst: "10.0.0.1".parse().unwrap(),
            protocol: proto::UDP,
            src_port: 9000,
            dst_port: 80,
        };
        let hi = FlowKey {
            src: lo.dst,
            dst: lo.src,
            protocol: lo.protocol,
            src_port: lo.dst_port,
            dst_port: lo.src_port,
        };
        assert_eq!(lo.canonical(), hi.canonical());
        assert_eq!(lo.canonical().src_port, 80);
    }

    #[test]
    fn rss_affinity_holds_for_both_directions() {
        // The load-bearing invariant for per-shard stateful services:
        // request and reply steer to the same bucket, hence the same
        // shard, under every shard count.
        for n in 0..64u8 {
            let fwd = key(n);
            let rev = FlowKey {
                src: fwd.dst,
                dst: fwd.src,
                protocol: fwd.protocol,
                src_port: fwd.dst_port,
                dst_port: fwd.src_port,
            };
            assert_eq!(fwd.rss_hash(), rev.rss_hash(), "flow {n}");
            assert_eq!(fwd.bucket(), rev.bucket(), "flow {n}");
            for shards in [1usize, 2, 3, 4, 8] {
                assert_eq!(fwd.shard_for(shards), rev.shard_for(shards), "flow {n}");
            }
        }
    }

    #[test]
    fn reply_frames_steer_to_the_request_shard() {
        // End to end through the frame parser: a reply built by
        // swapping endpoints lands on the same shard as the request.
        let req = PacketBuilder::udp_v4("10.0.0.7", "10.9.9.9", 5353, 53).build();
        let rsp = PacketBuilder::udp_v4("10.9.9.9", "10.0.0.7", 53, 5353).build();
        assert_eq!(shard_of(&req, 4), shard_of(&rsp, 4));
        let kq = FlowKey::from_packet(&req).unwrap();
        let kr = FlowKey::from_packet(&rsp).unwrap();
        assert_eq!(kq.canonical(), kr.canonical());
        assert_eq!(kq.rss_hash(), kr.rss_hash());
    }

    #[test]
    fn shard_of_prefers_driver_stamp() {
        let mut pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1234, 80).build();
        let key = FlowKey::from_packet(&pkt).unwrap();
        assert_eq!(shard_of(&pkt, 4), key.shard_for(4));
        pkt.meta.rss_hash = Some(key.rss_hash() + 1);
        assert_eq!(shard_of(&pkt, 4), ((key.rss_hash() + 1) % 4) as usize);
        // Non-flow traffic parks on shard 0.
        let arp = Packet::from_slice(&[0u8; 14]);
        assert_eq!(shard_of(&arp, 4), 0);
        // shards == 0 behaves exactly like shards == 1.
        assert_eq!(shard_of(&pkt, 0), shard_of(&pkt, 1));
        assert_eq!(shard_of(&pkt, 0), 0);
    }

    #[test]
    fn stamp_rss_writes_once_and_matches_flow_hash() {
        let mut pkt = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", 1234, 80).build();
        let key = FlowKey::from_packet(&pkt).unwrap();
        assert_eq!(stamp_rss(&mut pkt), Some(key.rss_hash()));
        // A pre-existing stamp (e.g. written by the NIC) is preserved.
        pkt.meta.rss_hash = Some(7);
        assert_eq!(stamp_rss(&mut pkt), Some(7));
        // Non-flow frames stay unstamped.
        let mut arp = Packet::from_slice(&[0u8; 14]);
        assert_eq!(stamp_rss(&mut arp), None);
        assert_eq!(arp.meta.rss_hash, None);
    }

    #[test]
    fn from_frame_agrees_with_from_packet() {
        let pkt = PacketBuilder::udp_v4("10.1.2.3", "10.4.5.6", 1111, 2222).build();
        assert_eq!(FlowKey::from_frame(pkt.data()), FlowKey::from_packet(&pkt));
        let v6 = PacketBuilder::udp_v6("2001:db8::1", "2001:db8::2", 1, 2).build();
        assert_eq!(FlowKey::from_frame(v6.data()), FlowKey::from_packet(&v6));
        assert_eq!(FlowKey::from_frame(&[0u8; 14]), None);
        assert_eq!(FlowKey::from_frame(&[]), None);
    }

    #[test]
    fn lru_eviction_when_full() {
        let table: FlowTable<u32> = FlowTable::new(2, u64::MAX);
        table.insert(key(1), 1, 100);
        table.insert(key(2), 2, 200);
        table.insert(key(3), 3, 300); // evicts key(1)
        assert_eq!(table.len(), 2);
        assert_eq!(table.get(&key(1), 300), None);
        assert_eq!(table.get(&key(2), 300), Some(2));
        assert_eq!(table.get(&key(3), 300), Some(3));
    }

    #[test]
    fn get_refreshes_recency() {
        let table: FlowTable<u32> = FlowTable::new(2, u64::MAX);
        table.insert(key(1), 1, 100);
        table.insert(key(2), 2, 200);
        table.get(&key(1), 500); // key(1) is now the most recent
        table.insert(key(3), 3, 600); // evicts key(2)
        assert!(table.get(&key(1), 600).is_some());
        assert!(table.get(&key(2), 600).is_none());
    }

    #[test]
    fn soft_ttl_expiry() {
        let table: FlowTable<u32> = FlowTable::new(8, 1_000);
        table.insert(key(1), 1, 0);
        table.insert(key(2), 2, 900);
        assert_eq!(table.expire(1_500), 1, "key(1) aged out");
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn get_or_insert_with_creates_once() {
        let table: FlowTable<u32> = FlowTable::new(8, u64::MAX);
        let mut made = 0;
        let v1 = table.get_or_insert_with(key(1), 0, || {
            made += 1;
            42
        });
        let v2 = table.get_or_insert_with(key(1), 10, || {
            made += 1;
            7
        });
        assert_eq!((v1, v2, made), (42, 42, 1));
    }
}
