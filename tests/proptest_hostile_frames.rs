//! **No input frame can panic the dataplane.** Arbitrary byte strings
//! (0–1599 B) and mutated TCP/UDP frames (random truncation and byte
//! flips, concentrated on the headers) are fed through the whole
//! receive path: `Nic::inject_rx_frame` (the RSS parse) →
//! `Nic::rx_burst_batch` (materialisation) → a 2-shard stateful edge
//! (guard → conntrack → NAT44 → counter) on a `SoloPipeline`.
//!
//! Asserted per case: nothing panics, `FlowKey::from_frame` returns
//! (whatever it returns), and the books close — every injected frame
//! comes off the rx rings and is either accepted or dropped by the
//! pipeline, never lost.

use std::sync::Arc;

use proptest::prelude::*;

use netkit::kernel::nic::{Nic, PortId};
use netkit::opencom::meta::resources::ResourceManager;
use netkit::packet::batch::PacketBatch;
use netkit::packet::flow::FlowKey;
use netkit::packet::packet::PacketBuilder;
use netkit::services::edge::{build_stateful_edge, EdgeProfile};

/// A valid TCP or UDP frame, truncated to `cut % (len + 1)` bytes,
/// then with `mask` XORed into byte `at % len` for each `(at, mask)`.
fn mutated(tcp: bool, ports: (u16, u16), payload: usize, cut: u16, flips: &[(u16, u8)]) -> Vec<u8> {
    let builder = if tcp {
        PacketBuilder::tcp_v4("10.0.0.5", "203.0.113.9", ports.0, ports.1)
    } else {
        PacketBuilder::udp_v4("10.0.0.5", "203.0.113.9", ports.0, ports.1)
    };
    let mut frame = builder.payload_len(payload).build().data().to_vec();
    frame.truncate(usize::from(cut) % (frame.len() + 1));
    let len = frame.len();
    for &(at, mask) in flips.iter().filter(|_| len > 0) {
        frame[usize::from(at) % len] ^= mask;
    }
    frame
}

fn hostile() -> impl Strategy<Value = Vec<u8>> {
    let flips = proptest::collection::vec((0u16..80, any::<u8>()), 0..8);
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..1600),
        (
            any::<bool>(),
            (any::<u16>(), any::<u16>()),
            0usize..1400,
            any::<u16>(),
            flips
        )
            .prop_map(|(tcp, ports, payload, cut, flips)| mutated(
                tcp, ports, payload, cut, &flips
            )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hostile_frames_never_panic_and_the_books_close(
        frames in proptest::collection::vec(hostile(), 1..32),
    ) {
        let nic = Nic::with_queues(PortId(0), 2, 64, 64, 1_000_000_000);
        for frame in &frames {
            let _ = FlowKey::from_frame(frame);
            prop_assert!(nic.inject_rx_frame(frame), "rx rings sized for the case");
        }
        let mut batch = PacketBatch::new();
        for queue in 0..nic.queues() {
            nic.rx_burst_batch(queue, 64, &mut batch);
        }
        prop_assert_eq!(batch.len(), frames.len(), "every frame materialises");
        let (mut pipe, _binding) =
            build_stateful_edge(&EdgeProfile::default(), 2, Arc::new(ResourceManager::new()))
                .expect("edge builds");
        pipe.dispatch(batch);
        let stats = pipe.stats();
        prop_assert_eq!(stats.accepted + stats.dropped, frames.len() as u64);
    }
}
