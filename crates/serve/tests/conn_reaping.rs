//! A long-running server must hold resources only for its open
//! connections: each closed connection's socket and thread are reaped.
//!
//! 2000 sequential connect → ping → close cycles against one server must
//! leave the process's open file descriptors (`/proc/self/fd`) and its
//! resident memory flat. Connections are opened one at a time, never all
//! at once. The test is alone in its binary so no other test's sockets
//! share the process's descriptor table.

use at_channel::geometry::pt;
use at_core::health::HealthPolicy;
use at_core::synthesis::{ApPose, SearchRegion};
use at_serve::{spawn, Client, ClientConfig, ServeConfig, ServiceConfig};
use std::thread;
use std::time::{Duration, Instant};

const CYCLES: u64 = 2000;

/// Open descriptors of this process (Linux).
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("read /proc/self/fd")
        .count()
}

/// Resident set size of this process in kB (Linux).
fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line")
}

fn service() -> ServiceConfig {
    ServiceConfig {
        poses: vec![
            ApPose {
                center: pt(0.0, 0.0),
                axis_angle: 0.3,
            },
            ApPose {
                center: pt(10.0, 0.0),
                axis_angle: 2.0,
            },
        ],
        region: SearchRegion::new(pt(0.0, 0.0), pt(10.0, 6.0)),
        bins: 360,
        policy: HealthPolicy::default(),
    }
}

fn ping_and_close(addr: std::net::SocketAddr, token: u64) {
    let mut c = Client::connect(addr, ClientConfig::default()).expect("connect");
    c.ping(token).expect("ping");
}

/// Polls until the fd count falls to `limit` (connection threads close
/// their server-side sockets a moment after the client hangs up).
fn settle_fds(limit: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let fds = open_fds();
        if fds <= limit || Instant::now() >= deadline {
            return fds;
        }
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn sequential_connections_leave_fds_and_rss_flat() {
    let server = spawn(service(), ServeConfig::default(), "127.0.0.1:0").expect("spawn");
    let addr = server.addr();
    // Warm up: per-thread arenas, metric handles, the first-connection
    // paths.
    for token in 0..50 {
        ping_and_close(addr, token);
    }
    thread::sleep(Duration::from_millis(100));
    let fds_before = open_fds();
    let rss_before = rss_kb();

    for token in 0..CYCLES {
        ping_and_close(addr, token);
    }

    // A few connection threads may still be closing; allow that slack.
    let slack = 8;
    let fds_after = settle_fds(fds_before + slack);
    let rss_after = rss_kb();
    assert!(
        fds_after <= fds_before + slack,
        "{CYCLES} closed connections left {} extra descriptors open ({fds_before} → {fds_after})",
        fds_after.saturating_sub(fds_before)
    );
    // Keeping every closed connection's socket and unjoined thread grew
    // RSS by tens of MB over these cycles.
    let grown = rss_after.saturating_sub(rss_before);
    assert!(
        grown < 4 * 1024,
        "{CYCLES} closed connections grew RSS by {grown} kB ({rss_before} → {rss_after} kB)"
    );

    let stats = server.shutdown();
    assert_eq!(stats.connections, 50 + CYCLES);
}
