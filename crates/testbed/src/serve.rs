//! Serving a simulated deployment over the wire: the bridge between the
//! testbed apparatus and the `at-serve` network boundary.
//!
//! The paper's operating model (§1) has APs stream processed spectra into
//! a central service that clients query. This module wires the simulated
//! office/lab deployments into that loop: build an [`at_serve`] service
//! from a [`Deployment`]'s poses and floorplan bounds, capture spectra
//! through the usual experiment path, and push them to the server through
//! the wire protocol instead of in-process calls.

use crate::deployment::Deployment;
use crate::experiments::{compute_spectrum, ExperimentConfig};
use at_channel::geometry::Point;
use at_core::health::HealthPolicy;
use at_serve::{
    ApClient, Client, ClientConfig, ClientError, ClientKey, Encoding, ServeConfig, ServerHandle,
    ServiceConfig,
};
use rand::Rng;
use std::io;
use std::net::SocketAddr;

/// The wire-service description of a deployment: its AP poses, its
/// floorplan's search region, and the given fusion policy. `bins` must
/// match the spectra the capture pipeline produces (the paper pipeline's
/// MUSIC scan uses 720).
pub fn service_config(dep: &Deployment, bins: usize, policy: HealthPolicy) -> ServiceConfig {
    ServiceConfig {
        poses: dep.aps.iter().map(|ap| ap.pose).collect(),
        region: dep.search_region(),
        bins,
        policy,
    }
}

/// Spawns a loopback location server for `dep` on an ephemeral port.
pub fn serve_deployment(
    dep: &Deployment,
    bins: usize,
    policy: HealthPolicy,
    cfg: ServeConfig,
) -> io::Result<ServerHandle> {
    at_serve::spawn(service_config(dep, bins, policy), cfg, "127.0.0.1:0")
}

/// Captures a client transmission at every AP of `dep` (the full
/// simulated radio + calibration + MUSIC path) and submits the processed
/// spectra into `client`'s session over the wire. Returns the session's
/// observation count after the last submission.
pub fn submit_position<R: Rng>(
    client: &mut Client,
    dep: &Deployment,
    position: Point,
    cfg: &ExperimentConfig,
    rng: &mut R,
) -> Result<u32, ClientError> {
    let mut observations = 0;
    for ap in 0..dep.aps.len() {
        let spectrum = compute_spectrum(dep, ap, position, cfg, rng);
        observations = client.submit(ap as u32, 0, &spectrum)?;
    }
    Ok(observations)
}

/// Connects one ingestion connection per AP of the deployment — the
/// paper's Figure 1 topology, where each of the (six, for the office) AP
/// processes holds its own long-lived link to the aggregation server.
/// Streams raw (uncompressed) spectra; see `ap_clients_with` for a
/// compressed uplink.
pub fn ap_clients(
    addr: SocketAddr,
    n_aps: usize,
    cfg: ClientConfig,
) -> Result<Vec<ApClient>, ClientError> {
    ap_clients_with(addr, n_aps, cfg, Encoding::Raw)
}

/// [`ap_clients`] with an explicit uplink [`Encoding`] policy — the
/// protocol-v3 compressed wire forms with automatic raw fallback against
/// pre-v3 servers.
pub(crate) fn ap_clients_with(
    addr: SocketAddr,
    n_aps: usize,
    cfg: ClientConfig,
    encoding: Encoding,
) -> Result<Vec<ApClient>, ClientError> {
    (0..n_aps)
        .map(|_| ApClient::connect_with(addr, cfg, encoding))
        .collect()
}

/// Captures a client transmission at every AP of `dep` and streams each
/// processed spectrum through *that AP's own* ingestion connection,
/// tagged with `key` — the multi-process equivalent of
/// [`submit_position`]. Returns the key's resident spectrum count after
/// the last submission.
pub fn submit_position_keyed<R: Rng>(
    aps: &mut [ApClient],
    key: ClientKey,
    dep: &Deployment,
    position: Point,
    cfg: &ExperimentConfig,
    rng: &mut R,
) -> Result<u32, ClientError> {
    assert_eq!(aps.len(), dep.aps.len(), "one ingestion connection per AP");
    let mut observations = 0;
    for (ap, conn) in aps.iter_mut().enumerate() {
        let spectrum = compute_spectrum(dep, ap, position, cfg, rng);
        observations = conn.submit(key, ap as u32, 0, &spectrum)?;
    }
    Ok(observations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_serve::ClientConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The full loop: simulated office capture → wire submission →
    /// batched server fusion → fix, accurate to within a couple of
    /// meters despite multipath.
    #[test]
    fn office_deployment_serves_a_client_over_the_wire() {
        let dep = Deployment::office(7);
        let cfg = ExperimentConfig::arraytrack(7);
        let server = serve_deployment(
            &dep,
            cfg.pipeline.music.bins,
            HealthPolicy::default(),
            ServeConfig::default(),
        )
        .expect("spawn");

        let truth = dep.clients[4];
        let mut rng = StdRng::seed_from_u64(99);
        let mut client = Client::connect(server.addr(), ClientConfig::default()).expect("connect");
        let n = submit_position(&mut client, &dep, truth, &cfg, &mut rng).expect("submit");
        assert_eq!(n as usize, dep.aps.len());

        let fix = client.localize(None).expect("fix");
        let err = fix.position.sub(truth).norm();
        assert!(err < 4.0, "office fix off by {err:.2} m");
        assert_eq!(fix.health.len(), dep.aps.len());

        let stats = server.shutdown();
        assert_eq!(stats.fixes, 1);
        assert_eq!(stats.shed, 0);
    }

    /// Figure 1 topology over the wire: one ingestion connection per
    /// office AP streams keyed spectra, a separate app connection asks
    /// "where is key 7?" and gets a fix within the usual office accuracy.
    #[test]
    fn six_ap_processes_feed_one_server_and_an_app_queries_by_key() {
        let dep = Deployment::office(3);
        let cfg = ExperimentConfig::arraytrack(3);
        let server = serve_deployment(
            &dep,
            cfg.pipeline.music.bins,
            HealthPolicy::default(),
            ServeConfig::default(),
        )
        .expect("spawn");

        let truth = dep.clients[2];
        let mut rng = StdRng::seed_from_u64(17);
        let mut aps =
            ap_clients(server.addr(), dep.aps.len(), ClientConfig::default()).expect("connect aps");
        let key: ClientKey = 7;
        let n = submit_position_keyed(&mut aps, key, &dep, truth, &cfg, &mut rng).expect("submit");
        assert_eq!(n as usize, dep.aps.len());

        let mut app =
            at_serve::AppClient::connect(server.addr(), ClientConfig::default()).expect("connect");
        let fix = app.localize(key, None).expect("fix");
        let err = fix.position.sub(truth).norm();
        assert!(err < 4.0, "keyed office fix off by {err:.2} m");
        assert_eq!(fix.health.len(), dep.aps.len());

        let stats = server.shutdown();
        assert_eq!(stats.fixes, 1);
        assert_eq!(stats.sessions_created, 1);
        assert_eq!(stats.sessions_resident, 1);
        assert_eq!(stats.spectra_resident as usize, dep.aps.len());
    }

    /// The same Figure 1 topology over the protocol-v3 quantized uplink:
    /// real MUSIC pseudospectra (not synthetic lobes) survive 16-bit
    /// log-domain quantization with no loss of office-level accuracy, and
    /// the server's uplink accounting shows the frames genuinely shrank.
    #[test]
    fn quantized_uplink_keeps_office_accuracy() {
        let dep = Deployment::office(5);
        let cfg = ExperimentConfig::arraytrack(5);
        let server = serve_deployment(
            &dep,
            cfg.pipeline.music.bins,
            HealthPolicy::default(),
            ServeConfig::default(),
        )
        .expect("spawn");

        let truth = dep.clients[1];
        let mut rng = StdRng::seed_from_u64(23);
        let mut aps = ap_clients_with(
            server.addr(),
            dep.aps.len(),
            ClientConfig::default(),
            Encoding::Quantized,
        )
        .expect("connect aps");
        let key: ClientKey = 11;
        let n = submit_position_keyed(&mut aps, key, &dep, truth, &cfg, &mut rng).expect("submit");
        assert_eq!(n as usize, dep.aps.len());
        assert!(
            aps.iter().all(|c| c.encoding() == Encoding::Quantized),
            "no fallback against our own server"
        );

        let mut app =
            at_serve::AppClient::connect(server.addr(), ClientConfig::default()).expect("connect");
        let fix = app.localize(key, None).expect("fix");
        let err = fix.position.sub(truth).norm();
        assert!(err < 4.0, "quantized office fix off by {err:.2} m");

        let stats = server.shutdown();
        assert_eq!(stats.submits_compressed as usize, dep.aps.len());
        assert_eq!(stats.submits_raw, 0);
        assert!(
            stats.uplink_compressed_bytes * 2 < stats.uplink_raw_equiv_bytes,
            "physical MUSIC spectra must compress at least 2×: {} vs {}",
            stats.uplink_compressed_bytes,
            stats.uplink_raw_equiv_bytes
        );
    }
}
