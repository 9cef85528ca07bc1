//! The per-worker input-distribution memo vs its telemetry: hits, misses
//! and evictions counted while real v1 requests flow through the reactor
//! pool. Regression coverage for the §5 fix where a full memo was wiped
//! (`clear()`) instead of evicting the one least-recently-used entry —
//! the warm working set must survive the 129th distinct key.
//!
//! One worker, so every request lands on the same thread-local memo.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use hdpm_core::{CharacterizationConfig, EngineOptions, ShardingConfig};
use hdpm_server::{Server, ServerConfig};
use hdpm_telemetry as telemetry;

/// The memo bound of the executor's input-distribution fit.
const CACHE_CAPACITY: usize = 128;

fn quick_engine() -> EngineOptions {
    EngineOptions {
        config: CharacterizationConfig::builder()
            .max_patterns(1500)
            .build()
            .unwrap(),
        sharding: Some(ShardingConfig {
            shards: 4,
            threads: 1,
        }),
        disk_root: None,
        capacity: 64,
    }
}

fn counter(name: &str) -> u64 {
    telemetry::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

fn estimate(cycles: usize) -> String {
    format!(
        "{{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":4,\"data\":\"counter\",\"cycles\":{cycles}}}"
    )
}

#[test]
fn dist_cache_counters_track_hits_misses_and_single_entry_eviction() {
    telemetry::reset();
    let server = Server::start(
        ServerConfig::builder()
            .workers(1)
            .no_deadline()
            .engine(quick_engine())
            .build()
            .unwrap(),
    )
    .expect("start");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut exchange = |line: &str| -> String {
        let mut stream = &stream;
        stream.write_all(line.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        assert!(
            reply.contains("\"ok\":true"),
            "request {line} failed: {reply}"
        );
        reply
    };

    // Cold key: one miss; the identical request again: one hit.
    exchange(&estimate(64));
    assert_eq!(counter("protocol.dist_cache.miss"), 1);
    assert_eq!(counter("protocol.dist_cache.hit"), 0);
    exchange(&estimate(64));
    assert_eq!(counter("protocol.dist_cache.miss"), 1);
    assert_eq!(counter("protocol.dist_cache.hit"), 1);
    assert_eq!(counter("protocol.dist_cache.evict"), 0);

    // Fill the memo with distinct keys until one past capacity. The memo
    // holds the cycles=64 entry plus CACHE_CAPACITY fresh ones, so
    // exactly one eviction fires — and its victim is the least recently
    // used key (cycles=64), not the whole map.
    for cycles in 200..200 + CACHE_CAPACITY {
        exchange(&estimate(cycles));
    }
    assert_eq!(
        counter("protocol.dist_cache.miss"),
        1 + CACHE_CAPACITY as u64
    );
    assert_eq!(
        counter("protocol.dist_cache.evict"),
        1,
        "one entry, not a wipe"
    );

    // The warm working set survived the eviction: a recent key still hits…
    let hits_before = counter("protocol.dist_cache.hit");
    exchange(&estimate(200 + CACHE_CAPACITY - 1));
    assert_eq!(counter("protocol.dist_cache.hit"), hits_before + 1);
    // …while the evicted LRU key misses and is re-fitted.
    exchange(&estimate(64));
    assert_eq!(
        counter("protocol.dist_cache.miss"),
        2 + CACHE_CAPACITY as u64
    );

    server.shutdown();
}
