//! `semkg-server` — stand up a [`sgq::ShardedDeployment`] over a generated
//! dbpedia-like dataset (or an existing deployment directory) and serve it
//! over TCP.
//!
//! ```text
//! semkg-server [--addr 127.0.0.1:0] [--scale 1.0] [--shards 2] [--k 10]
//!              [--duration SECS] [--dir PATH]
//! ```
//!
//! Prints `semkg-server listening on ADDR` on stdout once ready (CI and
//! scripts parse this line, since `--addr :0` binds an ephemeral port).
//! Runs until `--duration` elapses or a wire `Shutdown` request drains it.

use std::io::Write;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datagen::dataset::DatasetSpec;
use semkg_server::server::{self, ServerConfig};
use sgq::{SchedConfig, SgqConfig, ShardedDeployment};

struct Args {
    addr: String,
    scale: f64,
    shards: usize,
    k: usize,
    duration: Option<Duration>,
    dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:0".to_string(),
        scale: 1.0,
        shards: 2,
        k: 10,
        duration: None,
        dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--scale" => {
                args.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?;
            }
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            "--k" => {
                args.k = value("--k")?.parse().map_err(|e| format!("--k: {e}"))?;
            }
            "--duration" => {
                let secs: u64 = value("--duration")?
                    .parse()
                    .map_err(|e| format!("--duration: {e}"))?;
                args.duration = Some(Duration::from_secs(secs));
            }
            "--dir" => args.dir = Some(PathBuf::from(value("--dir")?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    // Refuse a bad engine configuration before any dataset is built: a
    // server that started with one would fail every query it is sent.
    let config = SgqConfig {
        k: args.k,
        ..SgqConfig::default()
    };
    config.validate().map_err(|e| e.to_string())?;

    // An explicit --dir with a manifest is opened in place; otherwise a
    // fresh deployment is created (ephemeral temp dir when --dir is absent).
    let (dir, ephemeral) = match &args.dir {
        Some(dir) => (dir.clone(), false),
        None => (
            std::env::temp_dir().join(format!("semkg-server-{}", std::process::id())),
            true,
        ),
    };
    if ephemeral && dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    let deployment = if kgraph::io::shard::manifest_path(&dir).exists() {
        eprintln!(
            "semkg-server: opening existing deployment at {}",
            dir.display()
        );
        ShardedDeployment::open(&dir).map_err(|e| format!("open deployment: {e}"))?
    } else {
        eprintln!(
            "semkg-server: building dbpedia-like dataset (scale {}) into {}",
            args.scale,
            dir.display()
        );
        let ds = DatasetSpec::dbpedia_like(args.scale).build();
        let space = ds.oracle_space();
        ShardedDeployment::create(&dir, ds.graph, space, ds.library, args.shards)
            .map_err(|e| format!("create deployment: {e}"))?
    };
    let service = deployment.service(config);
    let service_registry = Arc::clone(service.registry());

    let listener = TcpListener::bind(&args.addr).map_err(|e| format!("bind {}: {e}", args.addr))?;
    let result = server::serve(
        listener,
        &service,
        SchedConfig::default(),
        ServerConfig::default(),
        &[service_registry],
        |handle| {
            println!("semkg-server listening on {}", handle.addr());
            let _ = std::io::stdout().flush();
            let started = Instant::now();
            while !handle.is_draining() {
                if let Some(limit) = args.duration {
                    if started.elapsed() >= limit {
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            eprintln!("semkg-server: draining");
        },
    );
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    result.map_err(|e| format!("serve: {e}"))?;
    eprintln!("semkg-server: drained, exiting");
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("semkg-server: {e}");
        std::process::exit(1);
    }
}
