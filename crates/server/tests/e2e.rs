//! End-to-end tests for the socket serving tier: a real `TcpListener`, a
//! real `ShardedDeployment`, real client connections. Covers the happy
//! path, the hostile-input edge cases from the wire spec, drain
//! semantics, and the socket-vs-in-process differential.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use datagen::dataset::{BenchDataset, DatasetSpec};
use datagen::workload::produced_workload;
use semkg_server::proto::{self, Request, Response};
use semkg_server::server::{self, ServerConfig, ServerHandle};
use semkg_server::{Client, ClientError, ErrorCode, WireOutcome};
use sgq::{
    LiveQueryService, Priority, QueryGraph, SchedConfig, SgqConfig, ShardedDeployment, ShedReason,
};

/// Built once per test binary; each test clones it into its own deployment.
fn dataset() -> &'static BenchDataset {
    static DATASET: OnceLock<BenchDataset> = OnceLock::new();
    DATASET.get_or_init(|| DatasetSpec::dbpedia_like(0.2).build())
}

struct TestDir(PathBuf);
impl TestDir {
    fn new(label: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "semkg_server_e2e_{label}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}
impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Stands up a server over a fresh deployment of the shared dataset and
/// runs `f` with the handle and the (in-process) backing service.
fn with_server<R>(
    config: ServerConfig,
    f: impl FnOnce(&ServerHandle<'_>, &LiveQueryService) -> R,
) -> R {
    let dir = TestDir::new("srv");
    let ds = dataset().clone();
    let space = ds.oracle_space();
    let deployment =
        ShardedDeployment::create(dir.0.join("kg"), ds.graph, space, ds.library, 2).unwrap();
    let service = deployment.service(SgqConfig::default());
    let registry = Arc::clone(service.registry());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    server::serve(
        listener,
        &service,
        SchedConfig::default(),
        config,
        &[registry],
        |handle| f(handle, &service),
    )
    .unwrap()
}

/// A workload query with a generous deadline — must resolve `Exact`.
fn slack() -> Duration {
    Duration::from_secs(30)
}

#[test]
fn query_ping_and_scrape_roundtrip() {
    with_server(ServerConfig::default(), |handle, service| {
        let mut client = Client::connect(handle.addr()).unwrap();
        client.ping().unwrap();

        let queries = produced_workload(dataset());
        let q = &queries.first().unwrap().graph;
        match client.query(q, slack(), Priority::Normal).unwrap() {
            WireOutcome::Exact(result) => assert!(!result.matches.is_empty()),
            other => panic!("expected an exact answer, got {other:?}"),
        }

        let scrape = client.metrics().unwrap();
        assert!(scrape.contains("# TYPE semkg_server_requests_total counter"));
        assert!(scrape.contains("semkg_server_requests_total{kind=\"query\"} 1"));
        assert!(scrape.contains("# TYPE sgq_sched_latency_us summary"));
        assert!(scrape.contains("semkg_server_info{addr=\""));
        // The service's gauges are refreshed for the scrape, not left at 0.
        let lines: Vec<&str> = scrape.lines().collect();
        assert!(lines.contains(&"sgq_shard_count 2"), "{scrape}");
        let edges = format!("sgq_graph_edges {}", service.stats().graph_edges);
        assert!(lines.contains(&edges.as_str()), "{scrape}");
        // The PING, ready on an idle connection, was written by the
        // reader. The first QUERY missed the answer cache: its reply went
        // through the writer unless the engine resolved it before the
        // reader checked the ticket, so only the sum is fixed here
        // (`tests/reply_path.rs` holds the engine to pin the writer path).
        let replies = |path: &str| -> u64 {
            let series = format!("semkg_server_replies_total{{path=\"{path}\"}} ");
            let line = lines.iter().find_map(|l| l.strip_prefix(series.as_str()));
            line.unwrap_or_else(|| panic!("no {series}in {scrape}"))
                .parse()
                .unwrap()
        };
        let (reader, writer) = (replies("reader"), replies("writer"));
        assert!(reader >= 1 && reader + writer == 2, "{scrape}");
        // Exposition format: every line is a comment or `name[{labels}] value`.
        for line in scrape.lines() {
            assert!(
                line.starts_with('#') || line.rsplit(' ').next().unwrap().parse::<f64>().is_ok(),
                "malformed scrape line: {line:?}"
            );
        }
    });
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    with_server(ServerConfig::default(), |handle, _service| {
        let mut client = Client::connect(handle.addr()).unwrap();
        // A length prefix of 256 MiB: the server must answer with a typed
        // error frame (and close), not attempt the allocation.
        let hostile = (256u32 * 1024 * 1024).to_le_bytes();
        client.send_raw(&hostile).unwrap();
        match client.recv_response().unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::FrameTooLarge),
            other => panic!("expected an error frame, got {other:?}"),
        }
    });
}

#[test]
fn corrupt_checksum_is_rejected_before_dispatch() {
    with_server(ServerConfig::default(), |handle, _service| {
        let mut client = Client::connect(handle.addr()).unwrap();
        let mut bytes = proto::frame(&proto::encode_request(&Request::Ping));
        bytes[4] ^= 0xff; // first payload byte
        client.send_raw(&bytes).unwrap();
        match client.recv_response().unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::ChecksumMismatch),
            other => panic!("expected an error frame, got {other:?}"),
        }
    });
}

#[test]
fn unknown_request_kind_is_a_typed_error() {
    with_server(ServerConfig::default(), |handle, _service| {
        let mut client = Client::connect(handle.addr()).unwrap();
        client.send_raw(&proto::frame(&[0x7f])).unwrap();
        match client.recv_response().unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownKind),
            other => panic!("expected an error frame, got {other:?}"),
        }
    });
}

#[test]
fn torn_frame_and_disconnect_do_not_wedge_the_server() {
    with_server(ServerConfig::default(), |handle, _service| {
        // A client that sends half a header and vanishes...
        let mut torn = Client::connect(handle.addr()).unwrap();
        torn.send_raw(&[0x03, 0x00]).unwrap();
        drop(torn);
        // ...and one that disconnects mid-request (header promises a body
        // that never comes).
        let mut cut = Client::connect(handle.addr()).unwrap();
        cut.send_raw(&64u32.to_le_bytes()).unwrap();
        drop(cut);
        // The server keeps serving new connections.
        let mut client = Client::connect(handle.addr()).unwrap();
        client.ping().unwrap();
    });
}

#[test]
fn invalid_query_fails_without_killing_the_connection() {
    with_server(ServerConfig::default(), |handle, _service| {
        let mut client = Client::connect(handle.addr()).unwrap();
        // No specific node: the engine must refuse it (Definition 6), the
        // refusal must come back as a typed Failed outcome, and the
        // connection must survive.
        let mut q = QueryGraph::new();
        q.add_target("Automobile");
        match client.query(&q, slack(), Priority::Normal).unwrap() {
            WireOutcome::Failed(msg) => assert!(!msg.is_empty()),
            other => panic!("expected a failed outcome, got {other:?}"),
        }
        client.ping().unwrap();
    });
}

#[test]
fn connection_cap_rejects_with_busy() {
    let config = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    with_server(config, |handle, _service| {
        let mut first = Client::connect(handle.addr()).unwrap();
        first.ping().unwrap();
        let mut second = Client::connect(handle.addr()).unwrap();
        match second.ping() {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Busy),
            other => panic!("expected a busy rejection, got {other:?}"),
        }
        // Closing the first slot frees capacity for a new connection.
        drop(first);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let mut retry = Client::connect(handle.addr()).unwrap();
            match retry.ping() {
                Ok(_) => break,
                Err(ClientError::Server {
                    code: ErrorCode::Busy,
                    ..
                }) => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "slot never freed after disconnect"
                    );
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(other) => panic!("unexpected failure: {other}"),
            }
        }
    });
}

/// A failed assertion inside the serve closure must fail the test, not
/// leave the accept and connection threads running forever.
#[test]
fn a_panicking_serve_closure_drains_and_propagates() {
    let outcome = std::panic::catch_unwind(|| {
        with_server(ServerConfig::default(), |handle, _service| {
            let mut client = Client::connect(handle.addr()).unwrap();
            client.ping().unwrap();
            panic!("closure failed with a connection open");
        })
    });
    assert!(outcome.is_err());
}

#[test]
fn submits_after_drain_are_shed_as_shutdown() {
    let config = ServerConfig {
        drain_grace: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    with_server(config, |handle, _service| {
        let queries = produced_workload(dataset());
        let q = &queries.first().unwrap().graph;

        // One connection established *before* the drain begins...
        let mut survivor = Client::connect(handle.addr()).unwrap();
        survivor.ping().unwrap();

        // ...then a second connection asks the server to shut down.
        let mut closer = Client::connect(handle.addr()).unwrap();
        closer.shutdown_server().unwrap();
        assert!(handle.is_draining());

        // The surviving connection's in-pipe queries are answered — with a
        // typed Shed(Shutdown), not a hang or a slammed socket.
        match survivor.query(q, slack(), Priority::Normal).unwrap() {
            WireOutcome::Shed(reason) => assert_eq!(reason, ShedReason::Shutdown),
            other => panic!("expected a shutdown shed, got {other:?}"),
        }
    });
}

#[test]
fn socket_answers_are_bit_identical_to_in_process() {
    with_server(ServerConfig::default(), |handle, service| {
        let mut client = Client::connect(handle.addr()).unwrap();
        let queries = produced_workload(dataset());
        assert!(queries.len() >= 4);
        for wq in queries.iter().take(12) {
            let local = service.query(&wq.graph).unwrap();
            let remote = match client.query(&wq.graph, slack(), Priority::Normal).unwrap() {
                WireOutcome::Exact(result) => result,
                other => panic!("expected an exact answer, got {other:?}"),
            };

            // Matches must agree to the bit: pivots, scores, path edge ids,
            // per-part ψ, node sequences, bindings.
            assert_eq!(remote.matches.len(), local.matches.len());
            for (r, l) in remote.matches.iter().zip(local.matches.iter()) {
                assert_eq!(r.pivot, l.pivot);
                assert_eq!(r.score.to_bits(), l.score.to_bits());
                assert_eq!(r.parts.len(), l.parts.len());
                for (rp, lp) in r.parts.iter().zip(l.parts.iter()) {
                    assert_eq!(rp.source, lp.source);
                    assert_eq!(rp.pivot, lp.pivot);
                    assert_eq!(rp.pss.to_bits(), lp.pss.to_bits());
                    assert_eq!(rp.nodes, lp.nodes);
                    assert_eq!(rp.edges, lp.edges, "path edge ids must match");
                    assert_eq!(rp.bindings, lp.bindings);
                }
            }

            // The deterministic execution statistics must also agree —
            // only the wall-clock fields may differ between the paths.
            assert_eq!(remote.stats.popped, local.stats.popped);
            assert_eq!(remote.stats.pushed, local.stats.pushed);
            assert_eq!(remote.stats.tau_pruned, local.stats.tau_pruned);
            assert_eq!(remote.stats.edges_examined, local.stats.edges_examined);
            assert_eq!(remote.stats.ta_accesses, local.stats.ta_accesses);
            assert_eq!(remote.stats.ta_certified, local.stats.ta_certified);
            assert_eq!(remote.stats.subqueries, local.stats.subqueries);
            assert_eq!(remote.stats.time_bound_hit, local.stats.time_bound_hit);
        }
    });
}
