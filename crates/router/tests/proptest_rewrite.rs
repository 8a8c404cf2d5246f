//! Property test for in-place endpoint rewriting: after any chain of
//! NAT/LB rewrites of a TCP or UDP frame, the L4 checksum still
//! verifies — including frames whose checksum field is 0x0000 (a valid
//! TCP value; "not computed" for UDP, which must stay 0x0000) and
//! chains whose intermediate checksums pass through zero.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use netkit_packet::checksum::{fold, sum_words, verify};
use netkit_packet::packet::{Packet, PacketBuilder};
use netkit_router::flow::{rewrite_ipv4_endpoint, RewriteSide};

const IP: usize = 14;
const L4: usize = IP + 20;

/// Offset of the L4 checksum field.
fn checksum_at(tcp: bool) -> usize {
    L4 + if tcp { 16 } else { 6 }
}

/// One's-complement sum of the IPv4 pseudo-header and the L4 segment;
/// a frame with a correct L4 checksum folds it to 0xFFFF.
fn l4_sum(frame: &[u8]) -> u32 {
    let segment = &frame[L4..];
    sum_words(&frame[IP + 12..IP + 20])
        + u32::from(frame[IP + 9])
        + segment.len() as u32
        + sum_words(segment)
}

fn field(frame: &[u8], tcp: bool) -> u16 {
    let at = checksum_at(tcp);
    u16::from_be_bytes([frame[at], frame[at + 1]])
}

/// A frame with a correct L4 checksum. With `zero`, a TCP frame's first
/// payload word is chosen so the correct checksum is 0x0000, and a UDP
/// frame keeps checksum 0 ("not computed").
fn frame(tcp: bool, zero: bool, src: u32, dst: u32, ports: (u16, u16), payload: &[u8]) -> Packet {
    let (src, dst) = (
        Ipv4Addr::from(src).to_string(),
        Ipv4Addr::from(dst).to_string(),
    );
    let builder = if tcp {
        PacketBuilder::tcp_v4(&src, &dst, ports.0, ports.1)
    } else {
        PacketBuilder::udp_v4(&src, &dst, ports.0, ports.1)
    };
    let mut pkt = builder.payload(payload).build();
    let data = pkt.data_mut();
    let at = checksum_at(tcp);
    data[at..at + 2].fill(0);
    let ck = !fold(l4_sum(data));
    match (tcp, zero) {
        (false, true) => {}
        (true, true) => {
            // Adding `ck` to the segment makes it sum to 0xFFFF.
            let word = L4 + 20;
            let old = u16::from_be_bytes([data[word], data[word + 1]]);
            let new = fold(u32::from(old) + u32::from(ck));
            data[word..word + 2].copy_from_slice(&new.to_be_bytes());
        }
        (_, false) => {
            let ck = if !tcp && ck == 0 { 0xFFFF } else { ck };
            data[at..at + 2].copy_from_slice(&ck.to_be_bytes());
        }
    }
    pkt
}

proptest! {
    #[test]
    fn rewrites_keep_the_l4_checksum_valid(
        tcp in any::<bool>(),
        zero in any::<bool>(),
        src in any::<u32>(),
        dst in any::<u32>(),
        ports in (any::<u16>(), any::<u16>()),
        payload in proptest::collection::vec(any::<u8>(), 2..64),
        rewrites in proptest::collection::vec((any::<bool>(), any::<u32>(), any::<u16>()), 1..8),
    ) {
        let mut pkt = frame(tcp, zero, src, dst, ports, &payload);
        let unset_udp = !tcp && zero;
        prop_assert!(unset_udp || fold(l4_sum(pkt.data())) == 0xFFFF);
        prop_assert!(!tcp || !zero || field(pkt.data(), tcp) == 0);
        for (to_src, ip, port) in rewrites {
            let side = if to_src { RewriteSide::Src } else { RewriteSide::Dst };
            prop_assert!(rewrite_ipv4_endpoint(&mut pkt, side, Ipv4Addr::from(ip), port));
            let data = pkt.data();
            prop_assert!(verify(&data[IP..L4]), "IPv4 header checksum");
            if unset_udp {
                prop_assert_eq!(field(data, tcp), 0, "unset UDP checksum stays unset");
            } else {
                prop_assert_eq!(fold(l4_sum(data)), 0xFFFF, "L4 checksum after rewrite");
                prop_assert!(tcp || field(data, tcp) != 0, "computed UDP never reads unset");
            }
        }
    }
}

/// A rewrite whose result is a TCP checksum of 0x0000, then one more
/// rewrite from there: the second must still be applied.
#[test]
fn tcp_checksum_passing_through_zero_is_still_updated() {
    let port = (1..=u16::MAX)
        .find(|&port| {
            let mut pkt = frame(true, false, 0x0a00_0001, 0x0a00_0002, (1000, 80), &[0; 8]);
            rewrite_ipv4_endpoint(
                &mut pkt,
                RewriteSide::Src,
                Ipv4Addr::new(192, 0, 2, 1),
                port,
            );
            field(pkt.data(), true) == 0
        })
        .expect("some port yields a zero TCP checksum");
    let mut pkt = frame(true, false, 0x0a00_0001, 0x0a00_0002, (1000, 80), &[0; 8]);
    rewrite_ipv4_endpoint(
        &mut pkt,
        RewriteSide::Src,
        Ipv4Addr::new(192, 0, 2, 1),
        port,
    );
    rewrite_ipv4_endpoint(&mut pkt, RewriteSide::Dst, Ipv4Addr::new(10, 9, 9, 9), 53);
    assert_eq!(fold(l4_sum(pkt.data())), 0xFFFF);
}
