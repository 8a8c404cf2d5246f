//! In-place IPv4/L4 endpoint rewriting with incremental checksums.
//!
//! NAT and the L4 load balancer rewrite one endpoint (address + port)
//! of a frame *in place* — no reallocation, no re-serialisation — and
//! patch the IPv4 header checksum and the TCP/UDP checksum with RFC
//! 1624 incremental updates, so a valid frame stays valid and an
//! unset UDP checksum (zero) stays unset. TCP has no unset checksum:
//! 0x0000 is a valid TCP value and is updated like any other.

use std::net::Ipv4Addr;

use netkit_packet::checksum::{fold, incremental_update};
use netkit_packet::headers::proto;
use netkit_packet::packet::Packet;

/// Which endpoint of the frame to rewrite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RewriteSide {
    /// Source address + source port.
    Src,
    /// Destination address + destination port.
    Dst,
}

const ETH_LEN: usize = 14;

/// Reads a big-endian u16 at `off`.
fn rd16(b: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([b[off], b[off + 1]])
}

/// Writes a big-endian u16 at `off`.
fn wr16(b: &mut [u8], off: usize, v: u16) {
    b[off..off + 2].copy_from_slice(&v.to_be_bytes());
}

/// Patches the L4 checksum at `off` for every changed 16-bit word
/// `(old, new)` in one RFC 1624 update (`HC' = ~(~HC + Σ(~m + m'))`),
/// so no intermediate value is ever inspected. A UDP checksum of 0
/// means "not computed" and is left alone; a computed UDP result of 0
/// is written as 0xFFFF, its one's-complement equal (RFC 768).
fn patch_l4_checksum(b: &mut [u8], off: usize, udp: bool, changes: &[(u16, u16)]) {
    let cur = rd16(b, off);
    if udp && cur == 0 {
        return;
    }
    let mut sum = u32::from(!cur);
    for &(old, new) in changes {
        sum += u32::from(!old) + u32::from(new);
    }
    let patched = !fold(sum);
    wr16(b, off, if udp && patched == 0 { 0xFFFF } else { patched });
}

/// Rewrites one endpoint (address and, for UDP/TCP, port) of an
/// Ethernet + IPv4 frame in place, patching the IPv4 and L4 checksums
/// incrementally. Clears the packet's stamped RSS hash — the tuple
/// changed, so any prior steering decision is stale.
///
/// Returns `false` (frame untouched) if the frame is not IPv4 or is
/// too short for its own headers.
pub fn rewrite_ipv4_endpoint(
    pkt: &mut Packet,
    side: RewriteSide,
    new_ip: Ipv4Addr,
    new_port: u16,
) -> bool {
    let frame = pkt.data_mut();
    if frame.len() < ETH_LEN + 20 || rd16(frame, 12) != 0x0800 {
        return false;
    }
    let ihl = ((frame[ETH_LEN] & 0x0f) as usize) * 4;
    let l4 = ETH_LEN + ihl;
    if ihl < 20 || frame.len() < l4 {
        return false;
    }
    let protocol = frame[ETH_LEN + 9];
    let addr_off = match side {
        RewriteSide::Src => ETH_LEN + 12,
        RewriteSide::Dst => ETH_LEN + 16,
    };
    let old_hi = rd16(frame, addr_off);
    let old_lo = rd16(frame, addr_off + 2);
    let octets = new_ip.octets();
    let new_hi = u16::from_be_bytes([octets[0], octets[1]]);
    let new_lo = u16::from_be_bytes([octets[2], octets[3]]);
    frame[addr_off..addr_off + 4].copy_from_slice(&octets);
    // IPv4 header checksum: two address words changed.
    let ip_ck = ETH_LEN + 10;
    let cur = rd16(frame, ip_ck);
    let cur = incremental_update(cur, old_hi, new_hi);
    wr16(frame, ip_ck, incremental_update(cur, old_lo, new_lo));

    // L4: port + pseudo-header address words feed the L4 checksum.
    let l4_ck = match protocol {
        proto::UDP if frame.len() >= l4 + 8 => Some(l4 + 6),
        proto::TCP if frame.len() >= l4 + 20 => Some(l4 + 16),
        _ => None,
    };
    if let Some(ck) = l4_ck {
        let port_off = match side {
            RewriteSide::Src => l4,
            RewriteSide::Dst => l4 + 2,
        };
        let old_port = rd16(frame, port_off);
        wr16(frame, port_off, new_port);
        patch_l4_checksum(
            frame,
            ck,
            protocol == proto::UDP,
            &[(old_hi, new_hi), (old_lo, new_lo), (old_port, new_port)],
        );
    }
    pkt.meta.rss_hash = None;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_packet::checksum::verify;
    use netkit_packet::flow::FlowKey;
    use netkit_packet::headers::Ipv4Header;
    use netkit_packet::packet::PacketBuilder;

    #[test]
    fn rewrite_src_patches_tuple_and_ip_checksum() {
        let mut pkt = PacketBuilder::udp_v4("10.0.0.1", "10.9.9.9", 5000, 53).build();
        netkit_packet::flow::stamp_rss(&mut pkt);
        assert!(rewrite_ipv4_endpoint(
            &mut pkt,
            RewriteSide::Src,
            "192.0.2.1".parse().unwrap(),
            61_000,
        ));
        // Stamp cleared: the tuple changed.
        assert_eq!(pkt.meta.rss_hash, None);
        let key = FlowKey::from_packet(&pkt).expect("still parses (checksum valid)");
        assert_eq!(key.src.to_string(), "192.0.2.1");
        assert_eq!(key.src_port, 61_000);
        assert_eq!(key.dst.to_string(), "10.9.9.9");
        // The IPv4 header checksum verifies after the patch.
        let ip_bytes = &pkt.data()[ETH_LEN..ETH_LEN + 20];
        assert!(verify(ip_bytes));
        let ip = Ipv4Header::parse(&pkt.data()[ETH_LEN..]).unwrap();
        assert_eq!(ip.src.to_string(), "192.0.2.1");
    }

    #[test]
    fn rewrite_dst_roundtrips() {
        let mut pkt = PacketBuilder::udp_v4("10.0.0.1", "10.9.9.9", 5000, 53).build();
        let before = FlowKey::from_packet(&pkt).unwrap();
        assert!(rewrite_ipv4_endpoint(
            &mut pkt,
            RewriteSide::Dst,
            "172.16.0.9".parse().unwrap(),
            8080,
        ));
        assert!(rewrite_ipv4_endpoint(
            &mut pkt,
            RewriteSide::Dst,
            "10.9.9.9".parse().unwrap(),
            53,
        ));
        assert_eq!(FlowKey::from_packet(&pkt), Some(before));
    }

    #[test]
    fn non_ipv4_frames_are_left_alone() {
        let mut arp = Packet::from_slice(&[0u8; 14]);
        assert!(!rewrite_ipv4_endpoint(
            &mut arp,
            RewriteSide::Src,
            "192.0.2.1".parse().unwrap(),
            1,
        ));
    }
}
