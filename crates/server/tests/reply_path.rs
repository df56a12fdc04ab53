//! Which connection thread writes a reply. A reply that is ready when the
//! reader handles its frame is written by the reader, unless an earlier
//! reply still waits on the writer thread; these tests pin request order
//! across the two paths and the reader's behaviour against a peer that
//! stops reading, or reads too slowly to take a reply in time.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use semkg_server::proto::{self, Request, Response};
use semkg_server::server::{self, ServerConfig, ServerHandle};
use semkg_server::{Client, WireOutcome};
use sgq::obs::MetricsRegistry;
use sgq::sched::SchedBackend;
use sgq::{
    Priority, QueryGraph, QueryResult, QueryTrace, Result, SchedConfig, SgqConfig, SgqError,
    TimeBoundConfig, WorkerPool,
};

/// A backend whose every execution waits for the test's go-ahead on a
/// channel, then answers with an empty result.
struct HeldBackend {
    config: SgqConfig,
    pool: WorkerPool,
    release: Mutex<Receiver<()>>,
}

impl HeldBackend {
    fn new(release: Receiver<()>) -> Self {
        Self {
            config: SgqConfig::default(),
            pool: WorkerPool::new(2),
            release: Mutex::new(release),
        }
    }
}

impl SchedBackend for HeldBackend {
    type Prepared = ();

    fn current_epoch(&self) -> u64 {
        0
    }

    fn config(&self) -> &SgqConfig {
        &self.config
    }

    fn prepare(&self, _query: &QueryGraph) -> Result<()> {
        Ok(())
    }

    fn prepared_epoch(&self, _prepared: &()) -> u64 {
        0
    }

    fn execute(&self, _prepared: &()) -> Result<QueryResult> {
        self.release
            .lock()
            .unwrap()
            .recv()
            .map_err(|_| SgqError::Scheduler("release channel closed".into()))?;
        Ok(QueryResult::default())
    }

    fn execute_traced(&self, _prepared: &()) -> Result<(QueryResult, QueryTrace)> {
        Err(SgqError::Scheduler("tracing is off".into()))
    }

    fn execute_time_bounded(&self, _prepared: &(), _tb: &TimeBoundConfig) -> Result<QueryResult> {
        Err(SgqError::Scheduler("every deadline is slack".into()))
    }

    fn pool(&self) -> &WorkerPool {
        &self.pool
    }
}

fn held_query() -> Request {
    let mut query = QueryGraph::new();
    let auto = query.add_target("Automobile");
    let de = query.add_specific("Germany", "Country");
    query.add_edge(auto, "product", de);
    Request::Query {
        query,
        deadline_us: 30_000_000,
        priority: Priority::Normal,
    }
}

/// The value of the scrape line whose name and labels are `series`, 0 if
/// it is absent.
fn value(scrape: &str, series: &str) -> u64 {
    scrape
        .lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .map_or(0, |v| v.parse::<f64>().unwrap() as u64)
}

const READER: &str = "semkg_server_replies_total{path=\"reader\"}";
const WRITER: &str = "semkg_server_replies_total{path=\"writer\"}";

/// The server's own counters, read in process (no request of its own).
fn replies(handle: &ServerHandle<'_>) -> (u64, u64) {
    let text = handle.registry().snapshot().to_prometheus();
    (value(&text, READER), value(&text, WRITER))
}

#[test]
fn ready_replies_queue_behind_a_pending_ticket() {
    let (release, held) = mpsc::channel();
    let backend = HeldBackend::new(held);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    server::serve(
        listener,
        &backend,
        SchedConfig::default(),
        ServerConfig::default(),
        &[],
        |handle| {
            let mut pipelined = Client::connect(handle.addr()).unwrap();
            pipelined.send_request(&held_query()).unwrap();
            pipelined.send_request(&Request::Ping).unwrap();
            pipelined.send_request(&Request::Metrics).unwrap();

            // Hold the engine until a scrape over a second connection
            // shows the PING decoded and the pipelined METRICS request
            // too, so the reader is done with the PING. Each scrape
            // counts itself before it renders.
            let mut observer = Client::connect(handle.addr()).unwrap();
            let mut scrapes = 0;
            loop {
                let scrape = observer.metrics().unwrap();
                scrapes += 1;
                let pinged = value(&scrape, "semkg_server_requests_total{kind=\"ping\"}") == 1;
                let metrics = value(&scrape, "semkg_server_requests_total{kind=\"metrics\"}");
                if pinged && metrics > scrapes {
                    break;
                }
            }
            release.send(()).unwrap();

            match pipelined.recv_response().unwrap() {
                Response::Query(WireOutcome::Exact(result)) => assert!(result.matches.is_empty()),
                other => panic!("expected the query's reply first, got {other:?}"),
            }
            match pipelined.recv_response().unwrap() {
                Response::Pong(0) => {}
                other => panic!("expected the PONG second, got {other:?}"),
            }
            match pipelined.recv_response().unwrap() {
                Response::Metrics(text) => assert!(text.contains(READER), "{text}"),
                other => panic!("expected the METRICS reply third, got {other:?}"),
            }
            // All three queued behind the pending ticket.
            let (reader, writer) = replies(handle);
            assert_eq!(writer, 3);

            // Once the writer has lowered its count the connection is idle,
            // and a PING is written by the reader. The writer lowers it
            // just after its write returns, so a PING sent as soon as the
            // last reply arrives may still queue behind it: ping until one
            // does not.
            for attempt in 1.. {
                pipelined.ping().unwrap();
                let (now_reader, now_writer) = replies(handle);
                if now_reader > reader {
                    assert_eq!(now_reader, reader + 1);
                    break;
                }
                assert_eq!(now_writer, writer + attempt);
                assert!(attempt < 100, "no PING was written by the reader");
            }
        },
    )
    .unwrap();
}

/// Connects a raw peer that pipelines METRICS requests, each answered by a
/// large ready reply, and never reads. Its thread writes until the server
/// cuts it off and returns that write error.
fn spawn_non_reader(addr: SocketAddr) -> JoinHandle<std::io::Error> {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut magic = [0u8; 8];
    stream.read_exact(&mut magic).unwrap();
    stream.write_all(&magic).unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let metrics = proto::frame(&proto::encode_request(&Request::Metrics));
    let burst = metrics.repeat(256);
    std::thread::spawn(move || loop {
        if let Err(e) = stream.write_all(&burst) {
            return e;
        }
    })
}

#[test]
fn a_peer_that_stops_reading_is_cut_off_at_the_write_timeout() {
    let (_release, held) = mpsc::channel();
    let backend = HeldBackend::new(held);
    let config = ServerConfig {
        write_timeout: Duration::from_millis(400),
        drain_grace: Duration::from_millis(400),
        ..ServerConfig::default()
    };
    let (write_timeout, drain_grace) = (config.write_timeout, config.drain_grace);
    // Scheduling slack on a loaded host, on top of each bound.
    let slack = Duration::from_millis(600);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (returned, second) = server::serve(
        listener,
        &backend,
        SchedConfig::default(),
        config,
        &[],
        |handle| {
            let stopped = spawn_non_reader(handle.addr());
            // Another connection keeps its round trips while the stopped
            // peer's reader is blocked on its socket, until the server
            // closes the stopped one. Its reader counts each reply before
            // writing it, so the count stops where its last write blocks.
            let mut other = Client::connect(handle.addr()).unwrap();
            let (mut pongs, mut written, mut progress) = (0, 0, Instant::now());
            loop {
                let ping = Instant::now();
                other.ping().unwrap();
                pongs += 1;
                assert!(
                    ping.elapsed() < write_timeout,
                    "a PING waited on the stopped peer"
                );
                if handle.open_connections() == 1 {
                    break;
                }
                let (reader, _) = replies(handle);
                if reader - pongs > written {
                    (written, progress) = (reader - pongs, Instant::now());
                }
                // The last reply's whole write is bounded by one timeout.
                assert!(
                    progress.elapsed() < write_timeout + slack,
                    "the peer that stopped reading was not cut off"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            stopped.join().unwrap();

            // Drain while a second peer that stops reading is connected.
            (Instant::now(), spawn_non_reader(handle.addr()))
        },
    )
    .unwrap();
    // Its reader leaves after the grace window, or, once blocked on the
    // socket, when its reply's write times out (one timeout, as above).
    let drained = returned.elapsed();
    assert!(
        drained < write_timeout + drain_grace + slack,
        "drain took {drained:?}"
    );
    second.join().unwrap();
}

/// A registry of 4,096 series with 4 KiB labels, merged into every scrape:
/// each METRICS reply fills a 16 MiB frame.
fn padded_scrape() -> Arc<MetricsRegistry> {
    let registry = MetricsRegistry::new();
    let pad = "x".repeat(4096);
    for i in 0..4096 {
        registry.counter_labeled(
            "reply_path_padding",
            "series",
            &format!("{i:04}{pad}"),
            "Pad.",
        );
    }
    Arc::new(registry)
}

#[test]
fn a_peer_that_reads_a_trickle_is_cut_off_at_the_write_timeout() {
    let (_release, held) = mpsc::channel();
    let backend = HeldBackend::new(held);
    let config = ServerConfig {
        max_frame_len: 16 << 20,
        write_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    };
    let write_timeout = config.write_timeout;
    let slack = Duration::from_millis(600);
    // 768 KiB every 100 ms: a blocked write wakes when a third of the send
    // buffer (which Linux grows to at most 4 MiB by default) has drained,
    // so some bytes of a reply move before each timeout fires, yet a
    // 16 MiB reply takes seconds.
    let (trickle, every) = (768 << 10, Duration::from_millis(100));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    server::serve(
        listener,
        &backend,
        SchedConfig::default(),
        config,
        &[padded_scrape()],
        |handle| {
            let mut peer = TcpStream::connect(handle.addr()).unwrap();
            let mut magic = [0u8; 8];
            peer.read_exact(&mut magic).unwrap();
            peer.write_all(&magic).unwrap();
            // Three replies, more than the socket buffers can hold on a
            // default Linux host, so a reply's write blocks.
            let metrics = proto::frame(&proto::encode_request(&Request::Metrics));
            peer.write_all(&metrics.repeat(3)).unwrap();
            peer.set_read_timeout(Some(Duration::from_millis(5)))
                .unwrap();
            let mut buf = vec![0u8; trickle];
            let (mut written, mut progress, mut last_read) = (0, Instant::now(), Instant::now());
            while handle.open_connections() == 1 {
                if last_read.elapsed() >= every {
                    last_read = Instant::now();
                    let mut got = 0;
                    while got < trickle {
                        match peer.read(&mut buf[got..]) {
                            Ok(n) if n > 0 => got += n,
                            // EOF, or nothing more within the read timeout.
                            _ => break,
                        }
                    }
                }
                // The reader counts each reply before writing it.
                let (reader, _) = replies(handle);
                if reader > written {
                    (written, progress) = (reader, Instant::now());
                }
                assert!(
                    progress.elapsed() < write_timeout + slack,
                    "a reply to the trickling peer outlived its write timeout"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            assert!(written >= 1, "no reply was written");
        },
    )
    .unwrap();
}
