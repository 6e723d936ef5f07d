//! `serve_load`: the serving-throughput benchmark that anchors the scale-out
//! perf trajectory.
//!
//! The harness spawns real `ec serve` *child processes* (each owns its own
//! worker pool — an in-process comparison would let the topologies share one
//! pool and lie about scaling), preloads every backend with the same program
//! library, then drives `POST /apply` through many concurrent keep-alive
//! connections against two topologies:
//!
//! * **single** — clients talk straight to one backend;
//! * **routed-2** — clients talk to an `ec serve --route` front-end over two
//!   backends. The router routes each `/apply` whole, by blocking key, and
//!   every client posts the same body, so all of this load lands on one
//!   backend: the routed-2 numbers measure the router's own per-request
//!   cost (the extra hop), not load spreading.
//!
//! Each client thread holds one keep-alive connection and issues its
//! requests back to back, so the measured latency includes the queueing an
//! online consolidation service actually exhibits under connection fan-in.
//! Every `200` body, in both topologies, is compared with the single
//! backend's answer to the same request (fetched once before the load); the
//! run exits `1` when any request fails or any body differs, so the bench
//! doubles as a routed-correctness check under concurrent load.
//! Around each topology's run the harness scrapes `GET /metrics` at the
//! address the load is driven at and embeds the counter movement (requests,
//! pool, library fast-path, router lease/replication series) per topology.
//! Results print as a table and export as `BENCH_serve_load.json`
//! (schema `serve_load/v1`) to `EC_BENCH_EXPORT_DIR` (or the current
//! directory), where CI archives them; successive PRs extend the trajectory
//! by comparing these files.
//!
//! Usage: `serve_load [--connections N] [--requests N] [--records N]`
//! (defaults 1000 connections × 5 requests over a 24-record body).

use ec_bench::{export_artifact, metrics_delta_json, scrape_metrics};
use ec_core::{ApprovedGroup, Group, ProgramLibrary};
use ec_graph::Replacement;
use ec_replace::Direction;
use ec_report::TextTable;
use ec_serve::http::ClientConn;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Options {
    connections: usize,
    requests: usize,
    records: usize,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        connections: 1000,
        requests: 5,
        records: 24,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> Result<usize, String> {
            args.next()
                .ok_or_else(|| format!("--{name} expects a value"))?
                .parse()
                .map_err(|_| format!("--{name} expects an integer"))
        };
        match flag.as_str() {
            "--connections" => options.connections = value("connections")?.max(1),
            "--requests" => options.requests = value("requests")?.max(1),
            "--records" => options.records = value("records")?.max(1),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(options)
}

/// The `ec` binary, expected next to this one in the target directory.
fn ec_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    let dir = exe.parent().expect("target dir");
    let ec = dir.join("ec");
    if !ec.exists() {
        eprintln!(
            "serve_load: {} not found — build it first (cargo build --release -p ec-cli)",
            ec.display()
        );
        std::process::exit(2);
    }
    ec
}

/// A spawned `ec serve` (or router) child; shut down and killed on drop so
/// a panicking benchmark never leaks processes.
struct ServeChild {
    process: Child,
    addr: SocketAddr,
}

impl ServeChild {
    fn spawn(ec: &PathBuf, args: &[String]) -> ServeChild {
        let mut process = Command::new(ec)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn ec serve");
        // The serve command prints its bound address on the first stdout
        // line (and flushes it), so the ephemeral port is parseable here.
        let stdout = process.stdout.take().expect("child stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read serve banner");
        let addr = line
            .split_whitespace()
            .find_map(|token| token.parse::<SocketAddr>().ok())
            .unwrap_or_else(|| panic!("no listen address in banner: {line:?}"));
        let child = ServeChild { process, addr };
        child.await_healthy();
        child
    }

    fn await_healthy(&self) {
        for _ in 0..200 {
            if let Ok(mut conn) = ClientConn::connect(self.addr, Some(Duration::from_millis(250))) {
                let _ = conn.set_read_timeout(Some(Duration::from_secs(2)));
                if let Ok(response) = conn.request("GET", "/healthz", b"", false) {
                    if response.status == 200 {
                        return;
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        panic!("{} never became healthy", self.addr);
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        if let Ok(mut conn) = ClientConn::connect(self.addr, Some(Duration::from_millis(250))) {
            let _ = conn.set_read_timeout(Some(Duration::from_secs(2)));
            let _ = conn.request("POST", "/shutdown", b"", false);
        }
        let _ = self.process.kill();
        let _ = self.process.wait();
    }
}

/// A program library covering the workload's columns, identical on every
/// backend (written once as a snapshot file the children load at startup).
fn workload_library() -> ProgramLibrary {
    let mut library = ProgramLibrary::new();
    let mut learn = |column: &str, pairs: &[(&str, &str)]| {
        let rewrites = pairs
            .iter()
            .map(|(from, to)| Replacement::new(*from, *to))
            .collect();
        library.record(
            column,
            &ApprovedGroup {
                group: Group::new(None, rewrites),
                direction: Direction::Forward,
            },
        );
    };
    learn(
        "Name",
        &[("Lee, Mary", "Mary Lee"), ("Smith, James", "James Smith")],
    );
    learn("Street", &[("401 E. Wilson St.", "401 East Wilson Street")]);
    learn("City", &[("Madison WI", "Madison, WI")]);
    library
}

/// The flat-CSV `/apply` body: `records` rows cycling through variant and
/// already-canonical values, so the library both rewrites and passes cells
/// through — the realistic mix.
fn workload_body(records: usize) -> Vec<u8> {
    let variants = [
        ("\"Lee, Mary\"", "401 E. Wilson St.", "Madison WI"),
        ("Mary Lee", "401 East Wilson Street", "\"Madison, WI\""),
        ("\"Smith, James\"", "401 E. Wilson St.", "\"Madison, WI\""),
    ];
    let mut body = String::from("source,Name,Street,City\n");
    for i in 0..records {
        let (name, street, city) = variants[i % variants.len()];
        body.push_str(&format!("{},{name},\"{street}\",{city}\n", i % 3));
    }
    body.into_bytes()
}

struct LoadResult {
    latencies_us: Vec<u64>,
    errors: usize,
    /// `200` responses whose body differs from the reference answer.
    mismatches: usize,
    wall: Duration,
}

/// Drives `connections × requests` keep-alive `POST /apply` calls at `addr`,
/// one thread per connection, returning every successful request's latency
/// and counting `200` bodies that differ from `expected`.
fn run_load(
    addr: SocketAddr,
    connections: usize,
    requests: usize,
    body: &[u8],
    expected: &[u8],
) -> LoadResult {
    let latencies = Mutex::new(Vec::with_capacity(connections * requests));
    let errors = Mutex::new(0usize);
    let mismatches = Mutex::new(0usize);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..connections {
            scope.spawn(|| {
                // Retry the connect: thousands of simultaneous dials can
                // outrun the accept backlog.
                let mut conn = None;
                for _ in 0..400 {
                    match ClientConn::connect(addr, Some(Duration::from_secs(1))) {
                        Ok(c) => {
                            conn = Some(c);
                            break;
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
                let Some(mut conn) = conn else {
                    *errors.lock().unwrap() += requests;
                    return;
                };
                let _ = conn.set_read_timeout(Some(Duration::from_secs(120)));
                let mut local = Vec::with_capacity(requests);
                for r in 0..requests {
                    let keep_alive = r + 1 < requests;
                    let sent = Instant::now();
                    match conn.request("POST", "/apply", body, keep_alive) {
                        Ok(response) if response.status == 200 => {
                            local.push(sent.elapsed().as_micros() as u64);
                            if response.body != expected {
                                *mismatches.lock().unwrap() += 1;
                            }
                        }
                        _ => {
                            *errors.lock().unwrap() += requests - r;
                            break;
                        }
                    }
                }
                latencies.lock().unwrap().extend(local);
            });
        }
    });
    LoadResult {
        latencies_us: latencies.into_inner().unwrap(),
        errors: errors.into_inner().unwrap(),
        mismatches: mismatches.into_inner().unwrap(),
        wall: started.elapsed(),
    }
}

struct Summary {
    name: &'static str,
    backends: usize,
    ok: usize,
    errors: usize,
    mismatches: usize,
    wall: Duration,
    throughput: f64,
    p50: u64,
    p90: u64,
    p99: u64,
    max: u64,
    mean: u64,
    /// `/metrics` movement across the run at the address the load was driven
    /// at, as a ready-to-embed JSON object (`{}` when a scrape failed).
    metrics: String,
}

fn summarize(name: &'static str, backends: usize, mut result: LoadResult) -> Summary {
    result.latencies_us.sort_unstable();
    let ok = result.latencies_us.len();
    let percentile = |p: f64| -> u64 {
        if ok == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * ok as f64).ceil() as usize;
        result.latencies_us[rank.clamp(1, ok) - 1]
    };
    let sum: u64 = result.latencies_us.iter().sum();
    Summary {
        name,
        backends,
        ok,
        errors: result.errors,
        mismatches: result.mismatches,
        wall: result.wall,
        throughput: if result.wall.as_secs_f64() > 0.0 {
            ok as f64 / result.wall.as_secs_f64()
        } else {
            0.0
        },
        p50: percentile(50.0),
        p90: percentile(90.0),
        p99: percentile(99.0),
        max: result.latencies_us.last().copied().unwrap_or(0),
        mean: if ok > 0 { sum / ok as u64 } else { 0 },
        metrics: String::from("{}"),
    }
}

/// The registry families worth diffing across a load run: request/latency
/// counters of the scraped process plus its pool, library fast-path, and
/// (for the router) lease/replication/probe series.
const METRIC_PREFIXES: &[&str] = &["ec_http_", "ec_pool_", "ec_library_", "ec_router_"];

/// Drives one topology: scrape `/metrics` at the front address, run the
/// load, scrape again, and record the delta on the summary.
fn run_topology(
    name: &'static str,
    backends: usize,
    addr: SocketAddr,
    options: &Options,
    body: &[u8],
    expected: &[u8],
) -> Summary {
    let before = scrape_metrics(addr).unwrap_or_default();
    let result = run_load(addr, options.connections, options.requests, body, expected);
    let after = scrape_metrics(addr).unwrap_or_default();
    let mut summary = summarize(name, backends, result);
    summary.metrics = metrics_delta_json(&before, &after, METRIC_PREFIXES);
    summary
}

fn json_report(options: &Options, summaries: &[Summary]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"serve_load/v1\",\n");
    out.push_str(&format!(
        "  \"connections\": {},\n  \"requests_per_connection\": {},\n  \"records_per_request\": {},\n",
        options.connections, options.requests, options.records
    ));
    out.push_str("  \"topologies\": [\n");
    for (i, s) in summaries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"backends\": {}, \"ok_requests\": {}, \"errors\": {}, \
             \"mismatches\": {}, \"wall_seconds\": {:.3}, \"throughput_rps\": {:.1}, \
             \"latency_us\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}, \"mean\": {}}}, \
             \"metrics\": {}}}{}\n",
            s.name,
            s.backends,
            s.ok,
            s.errors,
            s.mismatches,
            s.wall.as_secs_f64(),
            s.throughput,
            s.p50,
            s.p90,
            s.p99,
            s.max,
            s.mean,
            s.metrics,
            if i + 1 < summaries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("serve_load: {message}");
            std::process::exit(2);
        }
    };
    let ec = ec_binary();
    let body = workload_body(options.records);

    // One snapshot file seeds every child with the identical library.
    let snapshot_path =
        std::env::temp_dir().join(format!("serve_load_library_{}.txt", std::process::id()));
    std::fs::write(&snapshot_path, workload_library().to_snapshot())
        .expect("write library snapshot");
    let backend_args = |_: usize| -> Vec<String> {
        vec![
            "serve".to_string(),
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--library".to_string(),
            snapshot_path.display().to_string(),
        ]
    };

    println!(
        "serve_load: {} connections x {} requests, {}-record /apply bodies",
        options.connections, options.requests, options.records
    );

    // Topology 1: clients straight at one backend, whose answer to the
    // workload body is the reference every load response must match.
    let (single, expected) = {
        let backend = ServeChild::spawn(&ec, &backend_args(0));
        println!("single: backend at {}", backend.addr);
        let expected = reference_body(backend.addr, &body);
        let summary = run_topology("single", 1, backend.addr, &options, &body, &expected);
        (summary, expected)
    };

    // Topology 2: clients at a router over two backends.
    let routed = {
        let backend_a = ServeChild::spawn(&ec, &backend_args(0));
        let backend_b = ServeChild::spawn(&ec, &backend_args(1));
        let router = ServeChild::spawn(
            &ec,
            &[
                "serve".to_string(),
                "--addr".to_string(),
                "127.0.0.1:0".to_string(),
                "--route".to_string(),
                format!("{},{}", backend_a.addr, backend_b.addr),
            ],
        );
        println!(
            "routed-2: router at {} over {} and {}",
            router.addr, backend_a.addr, backend_b.addr
        );
        run_topology("routed-2", 2, router.addr, &options, &body, &expected)
    };

    let _ = std::fs::remove_file(&snapshot_path);

    let summaries = [single, routed];
    let mut table = TextTable::new([
        "topology", "backends", "ok", "errors", "mismatch", "wall s", "req/s", "p50 us", "p90 us",
        "p99 us", "max us", "mean us",
    ]);
    for s in &summaries {
        table.push_row([
            s.name.to_string(),
            s.backends.to_string(),
            s.ok.to_string(),
            s.errors.to_string(),
            s.mismatches.to_string(),
            format!("{:.2}", s.wall.as_secs_f64()),
            format!("{:.1}", s.throughput),
            s.p50.to_string(),
            s.p90.to_string(),
            s.p99.to_string(),
            s.max.to_string(),
            s.mean.to_string(),
        ]);
    }
    println!("{}", table.to_plain_text());
    export_artifact("BENCH_serve_load.json", &json_report(&options, &summaries));

    let mut failed = false;
    for s in &summaries {
        if s.ok == 0 || s.errors > 0 || s.mismatches > 0 {
            eprintln!(
                "serve_load: {} served {} requests with {} errors and {} bodies differing \
                 from the single backend's",
                s.name, s.ok, s.errors, s.mismatches
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// The single backend's `/apply` answer to the workload body.
fn reference_body(addr: SocketAddr, body: &[u8]) -> Vec<u8> {
    let mut conn = ClientConn::connect(addr, Some(Duration::from_secs(1))).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(120)))
        .expect("set read timeout");
    let response = conn
        .request("POST", "/apply", body, false)
        .expect("reference /apply");
    assert_eq!(response.status, 200, "reference /apply failed");
    response.body
}
