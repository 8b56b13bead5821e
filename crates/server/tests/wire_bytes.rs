//! `psketch_server_wire_bytes_total` counts exactly the frames on the
//! wire. The metrics registry is process-global, so this binary holds
//! one test and nothing else pings.

use psketch_core::BitSubset;
use psketch_prf::GlobalKey;
use psketch_protocol::AnnouncementBuilder;
use psketch_server::wire::{Request, Response};
use psketch_server::{Client, Server, ServerConfig};
use std::time::Duration;

#[test]
fn a_ping_round_trip_counts_both_frames() {
    let ann = AnnouncementBuilder::new(1, 0.3, 1000, 1e-6)
        .global_key(*GlobalKey::from_seed(3).as_bytes())
        .subset(BitSubset::single(0))
        .build()
        .unwrap();
    let server = Server::start("127.0.0.1:0", ann, ServerConfig::default()).unwrap();
    let counter = |dir: &str| {
        psketch_obs::counter(
            "psketch_server_wire_bytes_total",
            &[("dir", dir), ("kind", "ping")],
        )
    };
    let (received, sent) = (counter("in"), counter("out"));
    let mut client = Client::connect(server.local_addr(), Duration::from_secs(10)).unwrap();
    let before = (received.get(), sent.get());
    client.ping().unwrap();
    let request_frame = 4 + Request::Ping.encode().len() as u64;
    let response_frame = 4 + Response::Pong.encode().len() as u64;
    // The server counts its sent bytes after the write returns, which
    // may be just after the client has read them.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while sent.get() == before.1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(received.get() - before.0, request_frame);
    assert_eq!(sent.get() - before.1, response_frame);
    server.shutdown();
}
