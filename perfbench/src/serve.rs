//! `serve`: a real `ec serve --threads 2` process driven by a closed loop on
//! two keep-alive connections. One connection streams
//! `POST /ingest?threshold=0.95&mode=approve-all` batches of flat AuthorList
//! records (writes); the other posts `/apply` bodies back to back until the
//! ingest stream ends (reads). `/apply` reads the program library that
//! ingest writes into, so a gain for one that costs the other shows.
//!
//! The traced run drives a fresh server with the same load, then replays
//! every request's work in process through the same public functions the
//! server calls (`DeltaPipeline::ingest_batch`, `ProgramLibrary::applier`)
//! and attributes each request's client latency to those layers; the rest
//! is the HTTP layer.

use crate::prom::Snapshot;
use crate::stats::{Latency, PairCounts};
use crate::trace::{Rollup, Tracer};
use crate::{
    emit_trace, peak_rss_mb, repeated_setup, shuffle, sub_seed, Args, Report, CORPUS_SEED, THREADS,
};
use ec_cli::memio::MemFiles;
use ec_core::{
    ApplyReport, AutoMode, ConsolidationConfig, DeltaPipeline, ProgramLibrary, TruthMethod,
};
use ec_data::csv::CsvWriter;
use ec_data::{FlatCsvReader, GeneratorConfig, PaperDataset, RecordStream};
use ec_resolution::{RawRecord, Resolver, ResolverConfig};
use ec_serve::http::{self, ClientConn, Response};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const INGEST_PATH: &str = "/ingest?threshold=0.95&mode=approve-all";
const THRESHOLD: f64 = 0.95;
const BUDGET: usize = 100;

/// Records per `/ingest` batch.
const BATCH_RECORDS: usize = 30;
/// AuthorList clusters per session (about 1600 records, 53 batches).
const SESSION_CLUSTERS: usize = 100;
/// Sessions per requested second, calibrated so the ingest streams take
/// about `--seconds` on a 2-core machine. Each session is a fresh server
/// whose ingest session grows from empty: one long session's latencies
/// depend on a single growth trajectory and varied too much between seeds.
/// The work depends on the arguments only.
const SESSIONS_PER_SECOND: f64 = 2.0;
/// Records per `/apply` body, and how many distinct bodies rotate.
const APPLY_RECORDS: usize = 40;
const APPLY_BODIES: usize = 4;
/// The fewest latency samples of each kind a run collects, so p90 has ten
/// samples beyond it.
const MIN_SAMPLES: usize = 100;
/// How long one request may take before it counts as timed out.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// The generated inputs: ingest batches (and their concatenation), apply
/// bodies, and the generator's cluster id of every ingested record.
struct Inputs {
    columns: Vec<String>,
    batches: Vec<Vec<u8>>,
    union: Vec<u8>,
    applies: Vec<Vec<u8>>,
    truth: Vec<usize>,
}

/// One generated flat record: source, observed fields, generator cluster.
type FlatRow = (usize, Vec<String>, usize);

fn flat_csv<'a>(
    columns: &[String],
    rows: impl Iterator<Item = &'a FlatRow>,
) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    let mut writer = CsvWriter::new(&mut out);
    let header = std::iter::once("source").chain(columns.iter().map(String::as_str));
    writer.write_record(header).map_err(|e| e.to_string())?;
    for (source, fields, _) in rows {
        let record = std::iter::once(source.to_string()).chain(fields.iter().cloned());
        writer.write_record(record).map_err(|e| e.to_string())?;
    }
    writer.flush().map_err(|e| e.to_string())?;
    drop(writer);
    Ok(out)
}

/// One session's inputs: AuthorList corpus slot `slot`, whole clusters in
/// an order the workload seed shuffles, flattened like `ec generate --flat`.
fn make_inputs(seed: u64, slot: u64) -> Result<Inputs, String> {
    let dataset = PaperDataset::AuthorList.generate(&GeneratorConfig {
        num_clusters: SESSION_CLUSTERS,
        seed: sub_seed(CORPUS_SEED, slot),
        num_sources: PaperDataset::AuthorList.default_config().num_sources,
    });
    let mut ids: Vec<usize> = (0..dataset.clusters.len()).collect();
    shuffle(&mut ids, sub_seed(seed, slot));
    let rows: Vec<FlatRow> = ids
        .iter()
        .flat_map(|&id| dataset.clusters[id].rows.iter().map(move |r| (id, r)))
        .map(|(id, r)| {
            (
                r.source,
                r.cells.iter().map(|c| c.observed.clone()).collect(),
                id,
            )
        })
        .collect();
    let columns = dataset.columns.clone();
    let batches = rows
        .chunks(BATCH_RECORDS)
        .map(|chunk| flat_csv(&columns, chunk.iter()))
        .collect::<Result<Vec<_>, _>>()?;
    // Apply bodies: every k-th ingested record, so the library learned from
    // the stream covers some of their values and not others.
    let stride = (rows.len() / (APPLY_RECORDS * APPLY_BODIES)).max(1);
    let applies = (0..APPLY_BODIES)
        .map(|b| {
            let picked =
                (0..APPLY_RECORDS).map(|i| &rows[((i * APPLY_BODIES + b) * stride) % rows.len()]);
            flat_csv(&columns, picked)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Inputs {
        union: flat_csv(&columns, rows.iter())?,
        columns,
        batches,
        applies,
        truth: rows.iter().map(|(_, _, id)| *id).collect(),
    })
}

/// A running `ec serve` child; dropping it stops and reaps the process.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    fn start(ec: &Path) -> Result<Server, String> {
        let mut child = Command::new(ec)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--threads",
                &THREADS.to_string(),
            ])
            .env_remove("EC_TRACE")
            .env_remove("EC_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ec.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .strip_prefix("ec serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let mut server = Server {
            child,
            stdout,
            addr: "127.0.0.1:0".parse().expect("valid address"),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => server.addr = addr,
            _ => return Err(format!("ec serve did not report its address: {line:?}")),
        }
        // Warm: the first requests pay for lazily created registry series.
        for path in ["/healthz", "/metrics"] {
            let response = http::request(server.addr, "GET", path, b"")
                .map_err(|e| format!("GET {path}: {e}"))?;
            if response.status != 200 {
                return Err(format!("GET {path} answered {}", response.status));
            }
        }
        Ok(server)
    }

    fn get(&self, path: &str) -> Result<Response, String> {
        let response =
            http::request(self.addr, "GET", path, b"").map_err(|e| format!("GET {path}: {e}"))?;
        match response.status {
            200 => Ok(response),
            status => Err(format!("GET {path} answered {status}")),
        }
    }

    fn metrics(&self) -> Result<Snapshot, String> {
        let response = self.get("/metrics")?;
        Ok(Snapshot::parse(&String::from_utf8_lossy(&response.body)))
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Asks the server to stop and waits for it.
    fn stop(mut self) -> Result<(), String> {
        let asked = http::request(self.addr, "POST", "/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                let mut rest = String::new();
                let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
                return match (asked, status.success()) {
                    (Ok(_), true) => Ok(()),
                    (Err(e), _) => Err(format!("POST /shutdown: {e}")),
                    (_, false) => Err(format!("ec serve exited with {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("ec serve did not stop within 10 s of /shutdown".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One timed request: when it was sent and answered (µs from the start of
/// the load), and its outcome.
struct Timed {
    start_us: f64,
    end_us: f64,
    outcome: Result<Response, String>,
}

impl Timed {
    fn latency_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// A keep-alive client that reconnects after a broken connection.
struct Client {
    addr: SocketAddr,
    conn: Option<ClientConn>,
}

impl Client {
    fn post(&mut self, path: &str, body: &[u8], epoch: Instant) -> Timed {
        let start_us = epoch.elapsed().as_secs_f64() * 1e6;
        let outcome = self.try_post(path, body);
        let end_us = epoch.elapsed().as_secs_f64() * 1e6;
        if outcome.is_err() {
            self.conn = None;
        }
        Timed {
            start_us,
            end_us,
            outcome,
        }
    }

    fn try_post(&mut self, path: &str, body: &[u8]) -> Result<Response, String> {
        if self.conn.is_none() {
            let conn =
                ClientConn::connect(self.addr, Some(REQUEST_TIMEOUT)).map_err(|e| e.to_string())?;
            conn.set_read_timeout(Some(REQUEST_TIMEOUT))
                .map_err(|e| e.to_string())?;
            self.conn = Some(conn);
        }
        let conn = self.conn.as_mut().expect("connected above");
        let response = conn
            .request("POST", path, body, true)
            .map_err(|e| format!("POST {path}: {e}"))?;
        match response.status {
            200..=299 => Ok(response),
            status => Err(format!(
                "POST {path} answered {status}: {}",
                String::from_utf8_lossy(&response.body).trim()
            )),
        }
    }
}

/// The outcome of one load: every ingest and apply request, timed.
struct Load {
    ingests: Vec<Timed>,
    applies: Vec<(usize, Timed)>,
    wall_s: f64,
    stream_s: f64,
}

/// The closed loop: the writer streams every batch; the reader posts apply
/// bodies until the stream has ended and it has enough samples.
fn drive(server: &Server, inputs: &Inputs, min_applies: usize) -> Load {
    let epoch = Instant::now();
    let stream_done = AtomicBool::new(false);
    let (ingests, applies) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut client = Client {
                addr: server.addr,
                conn: None,
            };
            let timed: Vec<Timed> = inputs
                .batches
                .iter()
                .map(|batch| client.post(INGEST_PATH, batch, epoch))
                .collect();
            stream_done.store(true, Ordering::SeqCst);
            timed
        });
        let reader = scope.spawn(|| {
            let mut client = Client {
                addr: server.addr,
                conn: None,
            };
            let mut timed = Vec::new();
            while !stream_done.load(Ordering::SeqCst) || timed.len() < min_applies {
                let body = timed.len() % inputs.applies.len();
                timed.push((body, client.post("/apply", &inputs.applies[body], epoch)));
            }
            timed
        });
        (
            writer.join().expect("the ingest client does not panic"),
            reader.join().expect("the apply client does not panic"),
        )
    });
    let stream_s = ingests.last().map_or(0.0, |t| t.end_us / 1e6);
    Load {
        ingests,
        applies,
        wall_s: epoch.elapsed().as_secs_f64(),
        stream_s,
    }
}

/// Counts every request of a load as an operation and returns the latencies
/// of the successful ones, by kind.
fn account(report: &mut Report, load: &Load) -> (Vec<f64>, Vec<f64>) {
    let mut ingest_ms = Vec::new();
    for timed in &load.ingests {
        report.operation(timed.outcome.as_ref().map(|_| ()).map_err(String::clone));
        if timed.outcome.is_ok() {
            ingest_ms.push(timed.latency_ms());
        }
    }
    let mut apply_ms = Vec::new();
    for (_, timed) in &load.applies {
        report.operation(timed.outcome.as_ref().map(|_| ()).map_err(String::clone));
        if timed.outcome.is_ok() {
            apply_ms.push(timed.latency_ms());
        }
    }
    (ingest_ms, apply_ms)
}

fn body_of(timed: Option<&Timed>) -> Vec<u8> {
    timed
        .and_then(|t| t.outcome.as_ref().ok())
        .map(|r| r.body.clone())
        .unwrap_or_default()
}

fn flat_records(csv: &[u8]) -> Result<(Vec<String>, Vec<RawRecord>), String> {
    let mut reader = FlatCsvReader::new(csv).map_err(|e| e.to_string())?;
    let columns = reader.columns().to_vec();
    let mut records = Vec::new();
    while let Some(record) = reader.next_record() {
        let record = record.map_err(|e| e.to_string())?;
        records.push(RawRecord::new(record.source, record.fields));
    }
    Ok((columns, records))
}

/// The `/apply` body the offline applier produces over `library`.
/// Also returns the milliseconds spent parsing, applying and writing.
fn apply_offline(library: &ProgramLibrary, csv: &[u8]) -> Result<(Vec<u8>, [f64; 3]), String> {
    let t = Instant::now();
    let (columns, mut records) = flat_records(csv)?;
    let parse_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let applier = library.applier(&columns);
    let mut report = ApplyReport::default();
    for record in &mut records {
        applier.apply_fields(&mut record.fields, &mut report);
    }
    let apply_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let mut out = Vec::new();
    let mut writer = CsvWriter::new(&mut out);
    let header = std::iter::once("source").chain(columns.iter().map(String::as_str));
    writer.write_record(header).map_err(|e| e.to_string())?;
    for record in records {
        let fields = std::iter::once(record.source.to_string()).chain(record.fields);
        writer.write_record(fields).map_err(|e| e.to_string())?;
    }
    writer.flush().map_err(|e| e.to_string())?;
    drop(writer);
    Ok((out, [parse_ms, apply_ms, t.elapsed().as_secs_f64() * 1e3]))
}

/// The end-of-load checks: the final ingest answer equals a one-shot
/// `ec pipeline` over every batch and reports as many clusters as the
/// resolver finds in them, and a final `/apply` of each body equals the
/// offline applier over the `GET /library` snapshot. Returns the pairwise
/// quality of that clustering against the generator's clusters.
fn check_final_state(
    report: &mut Report,
    server: &Server,
    inputs: &Inputs,
    load: &Load,
) -> Result<PairCounts, String> {
    let files = MemFiles::new();
    files.insert(
        "in.csv",
        std::str::from_utf8(&inputs.union).map_err(|e| e.to_string())?,
    );
    let argv: Vec<String> = [
        "pipeline",
        "--input",
        "in.csv",
        "--threshold",
        "0.95",
        "--budget",
        "100",
        "--mode",
        "approve-all",
        "--threads",
        "2",
        "--golden",
        "gold.csv",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let parsed = ec_cli::parse(&argv).map_err(|e| e.to_string())?;
    ec_cli::run(
        &parsed,
        &files.input_opener(),
        &files.output_opener(),
        &mut std::io::empty(),
        &mut std::io::sink(),
    )
    .map_err(|e| format!("one-shot pipeline: {e}"))?;
    let one_shot = files.get_bytes("gold.csv").unwrap_or_default();
    let last = load.ingests.last().and_then(|t| t.outcome.as_ref().ok());
    report.check(last.is_some_and(|r| r.body == one_shot), || {
        "the final /ingest golden CSV differs from a one-shot pipeline over all batches".to_string()
    });

    let (_, records) = flat_records(&inputs.union)?;
    let resolver = Resolver::new(ResolverConfig {
        threshold: THRESHOLD,
        ..ResolverConfig::default()
    });
    let groups = resolver.resolve(&records);
    let served_clusters = last
        .and_then(|r| r.header("x-ec-clusters"))
        .map(str::to_string);
    report.check(served_clusters == Some(groups.len().to_string()), || {
        format!(
            "the final /ingest reported {served_clusters:?} clusters, the resolver finds {}",
            groups.len()
        )
    });
    let mut predicted = vec![0; records.len()];
    for (g, members) in groups.iter().enumerate() {
        for &m in members {
            predicted[m] = g;
        }
    }

    let snapshot = String::from_utf8_lossy(&server.get("/library")?.body).into_owned();
    let library =
        ProgramLibrary::from_snapshot(&snapshot).map_err(|e| format!("GET /library: {e}"))?;
    let mut client = Client {
        addr: server.addr,
        conn: None,
    };
    for body in &inputs.applies {
        let served = client.post("/apply", body, Instant::now());
        let (offline, _) = apply_offline(&library, body)?;
        report.check(
            matches!(&served.outcome, Ok(r) if r.body == offline),
            || {
                "a final /apply differs from the offline applier over the GET /library snapshot"
                    .to_string()
            },
        );
    }
    Ok(PairCounts::of(&predicted, &inputs.truth))
}

/// In-process replay of one load's requests, in order, through the public
/// functions the server calls; each request's replayed layer times become
/// spans placed inside that request's client-side span.
#[derive(Default)]
struct Replay {
    layer_ms: f64,
    apply_ms: f64,
    apply_parse_ms: f64,
    apply_write_ms: f64,
    requests: usize,
    clusters: usize,
    questions: usize,
}

/// The program stages an ingest batch runs through, by the layer they
/// belong to.
const INGEST_STAGES: [(&str, &str); 6] = [
    ("resolution.blocking", "resolution.block"),
    ("resolution.scoring", "resolution.score"),
    ("replace.generate_candidates", "replace.candidates"),
    ("grouping.prepared_build", "grouping.prepare"),
    ("grouping.pivot_search", "grouping.search"),
    ("core.truth_discovery", "truth.discover"),
];

/// Replays one session into `tracer`, shifted by `offset_us` so sessions
/// follow each other on one timeline, accumulating into `totals`.
fn replay(
    report: &mut Report,
    inputs: &Inputs,
    load: &Load,
    tracer: &mut Tracer,
    offset_us: f64,
    totals: &mut Replay,
) -> Result<(), String> {
    let mut delta = DeltaPipeline::new(
        "resolved",
        inputs.columns.clone(),
        ResolverConfig {
            threshold: THRESHOLD,
            ..ResolverConfig::default()
        },
        ConsolidationConfig {
            budget: BUDGET,
            ..ConsolidationConfig::default()
        }
        .with_threads(THREADS),
        AutoMode::ApproveAll,
        TruthMethod::MajorityConsensus,
    );
    let place =
        |tracer: &mut Tracer, parent: usize, cursor: &mut f64, name: &'static str, ms: f64| {
            let end = (*cursor + ms * 1e3).min(tracer.spans()[parent].end_us);
            let id = tracer.record(name, *cursor, end, Some(parent));
            *cursor = end;
            id
        };
    for (i, (batch, timed)) in inputs.batches.iter().zip(&load.ingests).enumerate() {
        let Ok(response) = &timed.outcome else {
            continue;
        };
        let t = Instant::now();
        let (_, records) = flat_records(batch)?;
        let parse_ms = t.elapsed().as_secs_f64() * 1e3;
        let before = Snapshot::in_process();
        let t = Instant::now();
        let batch_report = delta.ingest_batch(records);
        let ingest_ms = t.elapsed().as_secs_f64() * 1e3;
        let after = Snapshot::in_process();
        totals.clusters = batch_report.clusters;
        totals.questions += batch_report
            .columns
            .iter()
            .map(|c| c.groups_reviewed)
            .sum::<usize>();
        let t = Instant::now();
        let mut golden = Vec::new();
        delta
            .write_golden_csv(&mut golden)
            .map_err(|e| e.to_string())?;
        let write_ms = t.elapsed().as_secs_f64() * 1e3;
        report.check(golden == response.body, || {
            format!(
                "/ingest batch {i} answered a golden CSV the in-process replay does not produce"
            )
        });

        let request = tracer.record(
            "serve.ingest",
            offset_us + timed.start_us,
            offset_us + timed.end_us,
            None,
        );
        let mut cursor = offset_us + timed.start_us;
        place(tracer, request, &mut cursor, "data.parse", parse_ms);
        let batch_span = place(tracer, request, &mut cursor, "core.ingest_batch", ingest_ms);
        let mut inner = tracer.spans()[batch_span].start_us;
        for (stage, name) in INGEST_STAGES {
            place(
                tracer,
                batch_span,
                &mut inner,
                name,
                after.stage_ms(&before, stage),
            );
        }
        place(tracer, request, &mut cursor, "data.write", write_ms);
        totals.layer_ms += parse_ms + ingest_ms + write_ms;
        totals.requests += 1;
    }

    // Applies ran against whatever library version the stream had reached;
    // they are replayed against the final library, so their attribution is
    // an estimate.
    let library = delta.library().clone();
    for (body, timed) in &load.applies {
        if timed.outcome.is_err() {
            continue;
        }
        let (_, [parse_ms, apply_ms, write_ms]) = apply_offline(&library, &inputs.applies[*body])?;
        totals.apply_ms += apply_ms;
        totals.apply_parse_ms += parse_ms;
        totals.apply_write_ms += write_ms;
        totals.layer_ms += parse_ms + apply_ms + write_ms;
        totals.requests += 1;
    }
    Ok(())
}

/// Everything one pass over the sessions measured.
struct Pass {
    loads: Vec<Load>,
    ingest_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    metrics: Vec<(Snapshot, Snapshot)>,
    peak_rss_mb: f64,
    pairs: PairCounts,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.loads.iter().map(|l| l.wall_s).sum()
    }

    fn stream_s(&self) -> f64 {
        self.loads.iter().map(|l| l.stream_s).sum()
    }

    /// Sum over sessions of a registry delta.
    fn delta(&self, key: &str) -> f64 {
        self.metrics.iter().map(|(b, a)| a.delta(b, key)).sum()
    }

    fn hit_ratio(&self, hits: &str, misses: &str) -> f64 {
        let (h, m) = (self.delta(hits), self.delta(misses));
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

/// Runs every session on a fresh server: starts it (untimed), drives the
/// load, checks the final state, stops it.
fn pass(report: &mut Report, ec: &Path, sessions: &[Inputs]) -> Result<Pass, String> {
    let mut out = Pass {
        loads: Vec::new(),
        ingest_ms: Vec::new(),
        apply_ms: Vec::new(),
        metrics: Vec::new(),
        peak_rss_mb: 0.0,
        pairs: PairCounts::default(),
    };
    let min_applies = MIN_SAMPLES.div_ceil(sessions.len());
    for inputs in sessions {
        let server = Server::start(ec)?;
        let before = server.metrics()?;
        let load = drive(&server, inputs, min_applies);
        let after = server.metrics()?;
        let (ingest_ms, apply_ms) = account(report, &load);
        out.ingest_ms.extend(ingest_ms);
        out.apply_ms.extend(apply_ms);
        out.peak_rss_mb = out.peak_rss_mb.max(server.peak_rss_mb()?);
        out.pairs = out
            .pairs
            .add(check_final_state(report, &server, inputs, &load)?);
        server.stop()?;
        out.metrics.push((before, after));
        out.loads.push(load);
    }
    Ok(out)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let ec = args
        .ec
        .clone()
        .ok_or("the serve workload needs --ec path/to/ec")?;
    let count = ((args.seconds as f64 * SESSIONS_PER_SECOND).round() as usize).max(1);
    let (sessions, setup_s) = repeated_setup(|| {
        let sessions = (0..count as u64)
            .map(|slot| make_inputs(args.seed, slot))
            .collect::<Result<Vec<_>, _>>()?;
        Server::start(&ec)?.stop()?;
        Ok(sessions)
    })?;
    let mut report = Report::default();
    let untraced = pass(&mut report, &ec, &sessions)?;

    if args.trace {
        let traced = pass(&mut report, &ec, &sessions)?;
        for (u, t) in untraced.loads.iter().zip(&traced.loads) {
            report.check(
                body_of(t.ingests.last()) == body_of(u.ingests.last()),
                || "the traced run's final golden CSV differs from the untraced run's".to_string(),
            );
        }
        let grouping_before = Snapshot::in_process();
        let mut tracer = Tracer::new();
        let mut replayed = Replay::default();
        let mut offset_us = 0.0;
        for (inputs, load) in sessions.iter().zip(&traced.loads) {
            replay(
                &mut report,
                inputs,
                load,
                &mut tracer,
                offset_us,
                &mut replayed,
            )?;
            offset_us += load.stream_s * 1e6;
        }
        let grouping_after = Snapshot::in_process();
        let rollup = Rollup::of(tracer.spans(), traced.stream_s() * 1e3);
        emit_trace(args, &tracer, &rollup);
        let client_ms: f64 = traced.ingest_ms.iter().chain(&traced.apply_ms).sum();
        let (b, a) = (&grouping_before, &grouping_after);
        crate::review::grouping_counters(&mut report, b, a, replayed.questions);
        report.metric("resolution.block_ms", a.stage_ms(b, "resolution.blocking"));
        report.metric("resolution.score_ms", a.stage_ms(b, "resolution.scoring"));
        report.metric(
            "resolution.pairs_abandoned",
            traced.delta("ec_resolution_pairs_abandoned_total"),
        );
        report.metric("resolution.clusters", replayed.clusters as f64);
        report.metric("core.ingest_batch_ms", tracer.total_ms("core.ingest_batch"));
        report.metric(
            "core.cache_hit_ratio",
            traced.hit_ratio("ec_ingest_cache_hits_total", "ec_ingest_cache_misses_total"),
        );
        report.metric(
            "core.replayed_columns",
            traced.delta("ec_ingest_replayed_columns_total"),
        );
        report.metric(
            "core.library_hit_ratio",
            traced.hit_ratio("ec_library_hits_total", "ec_library_misses_total"),
        );
        report.metric("core.library_apply_ms", replayed.apply_ms);
        report.metric("truth.discover_ms", tracer.total_ms("truth.discover"));
        report.metric(
            "data.parse_ms",
            tracer.total_ms("data.parse") + replayed.apply_parse_ms,
        );
        report.metric(
            "data.write_ms",
            tracer.total_ms("data.write") + replayed.apply_write_ms,
        );
        let sent: usize = sessions
            .iter()
            .zip(&traced.loads)
            .map(|(inputs, load)| {
                inputs.batches.iter().map(Vec::len).sum::<usize>()
                    + load
                        .applies
                        .iter()
                        .map(|(body, _)| inputs.applies[*body].len())
                        .sum::<usize>()
            })
            .sum();
        let received: usize = traced
            .loads
            .iter()
            .flat_map(|load| {
                load.ingests
                    .iter()
                    .chain(load.applies.iter().map(|(_, t)| t))
            })
            .filter_map(|t| t.outcome.as_ref().ok())
            .map(|r| r.body.len())
            .sum();
        report.metric("data.bytes_in", sent as f64);
        report.metric("data.bytes_out", received as f64);
        let attempted: usize = traced
            .loads
            .iter()
            .map(|l| l.ingests.len() + l.applies.len())
            .sum();
        let failed = attempted - traced.ingest_ms.len() - traced.apply_ms.len();
        report.metric("serve.requests", attempted as f64);
        report.metric("serve.failed", failed as f64);
        report.metric(
            "serve.http_ms",
            (client_ms - replayed.layer_ms) / replayed.requests.max(1) as f64,
        );
        report.metric(
            "serve.pool_queue_ms",
            1e3 * traced.delta("ec_pool_task_queue_seconds_sum"),
        );
        report.rollup(&rollup, untraced.stream_s() * 1e3);
        return Ok(report);
    }

    let records: usize = sessions.iter().map(|s| s.truth.len()).sum();
    let ingest = Latency::new(untraced.ingest_ms.clone());
    let apply = Latency::new(untraced.apply_ms.clone());
    println!(
        "serve: {} sessions, {records} records ingested",
        sessions.len()
    );
    println!("{}", ingest.describe("ingest_ms"));
    println!("{}", apply.describe("apply_ms"));
    println!(
        "apply_rps: {:.3} 1/s; pair_f1: {:.6} ratio; pool queue {:.3} ms",
        apply.count() as f64 / untraced.wall_s(),
        untraced.pairs.f1(),
        1e3 * untraced.delta("ec_pool_task_queue_seconds_sum")
    );
    let (Some(p50), Some(p90)) = (ingest.at(50.0), ingest.at(90.0)) else {
        report.check(false, || {
            format!("{} ingest batches are too few for p90", ingest.count())
        });
        return Ok(report);
    };
    report.metric("setup_s", setup_s);
    report.metric("wall_s", untraced.wall_s());
    report.metric("peak_rss_mb", untraced.peak_rss_mb);
    report.metric("records_per_s", records as f64 / untraced.stream_s());
    report.metric("ops_per_s", apply.count() as f64 / untraced.wall_s());
    report.metric("wait_ms.p50", p50);
    report.metric("wait_ms.p90", p90);
    report.metric("precision", untraced.pairs.precision());
    report.metric("recall", untraced.pairs.recall());
    Ok(report)
}
