//! The networked location service end to end: spawn an `at-serve` server
//! for the simulated office deployment on an ephemeral loopback port,
//! then localize three clients over TCP.
//!
//! ```sh
//! cargo run --release --example serve_demo
//! ```
//!
//! Each "client" here is a session on the wire: the testbed captures the
//! client's transmission at all six APs through the full radio +
//! calibration + MUSIC path, submits the processed spectra into the
//! session, and asks the server for a fix. The server's fusion workers
//! pop admitted requests straight off a bounded queue, enforce deadlines,
//! and the queue sheds load when it fills (none of that triggers here — three polite
//! clients — but the loadgen bench exercises it; see `BENCH_SERVE.json`).

use arraytrack::core::health::HealthPolicy;
use arraytrack::serve::{Client, ClientConfig, ServeConfig};
use arraytrack::testbed::{serve_deployment, submit_position, Deployment, ExperimentConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let dep = Deployment::office(42);
    let cfg = ExperimentConfig::arraytrack(42);
    let server = serve_deployment(
        &dep,
        cfg.pipeline.music.bins,
        HealthPolicy::default(),
        ServeConfig::default(),
    )
    .expect("spawn server");
    println!("location service listening on {}", server.addr());
    println!();
    println!("client |    truth (m)    |      fix (m)    |  error | RTT (ms) | AP health");
    println!("-------+-----------------+-----------------+--------+----------+----------");

    let mut rng = StdRng::seed_from_u64(7);
    for (label, &truth) in [4usize, 17, 33].iter().enumerate() {
        let truth = dep.clients[truth];
        let mut client = Client::connect(server.addr(), ClientConfig::default()).expect("connect");
        submit_position(&mut client, &dep, truth, &cfg, &mut rng).expect("submit spectra");
        let t0 = Instant::now();
        let fix = client.localize(None).expect("localize");
        let rtt = t0.elapsed().as_secs_f64() * 1e3;
        let err = fix.position.distance(truth);
        let healthy = fix
            .health
            .iter()
            .filter(|h| h.status == arraytrack::core::health::ApStatus::Healthy)
            .count();
        println!(
            "   {label}   | ({:5.1}, {:5.1})  | ({:5.1}, {:5.1})  | {err:5.2}  |  {rtt:6.1}  | {healthy}/{} healthy",
            truth.x,
            truth.y,
            fix.position.x,
            fix.position.y,
            fix.health.len(),
        );
        assert!(err < 5.0, "office fix should land within a few meters");
    }

    let stats = server.shutdown();
    println!();
    println!(
        "served {} fixes over {} connections; shed {}, deadline misses {}",
        stats.fixes, stats.connections, stats.shed, stats.deadline_missed
    );
}
