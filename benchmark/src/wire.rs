//! The wire workload: an in-process server on loopback and a closed loop of
//! client connections, each running one sort job after another — closed
//! because a caller waits for its sort before it sends the next.

use crate::floor::{self, Floors};
use crate::gen::{key_of, Digest, OrderedDigest, RecordGen, Shape, RECORD_BYTES};
use crate::host;
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trace::{Span, SpanTree};
use crate::workload::{Layers, Meter, Prepared, Rep, Scale};
use masort_core::{record_bytes, tuple_from_record, Tuple};
use masort_server::codec::{read_frame, write_frame};
use masort_server::{Frame, JobSummary, Server, ServerHandle, SortClient, SubmitSpec};
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

/// Pages in the server's pool: less than two jobs ask for together, so
/// concurrent jobs share at admission and are rebalanced as they come and go.
const POOL_PAGES: usize = 48;
const JOB_PAGES: u64 = 32;
const PAGE_BYTES: u64 = 8192;
const INGEST_CHUNK: usize = 2048;
/// Client connections, each on its own thread; never more than the cores.
const CONNECTIONS: usize = 2;

pub struct WireWorkload {
    server: Option<ServerHandle>,
    addr: SocketAddr,
    connections: Vec<Connection>,
    spec: SubmitSpec,
    jobs_per_rep: usize,
    clock: Instant,
    next_job: u64,
    /// Latency (ms) and summary of every job that succeeded, over all reps.
    done: Vec<(f64, JobSummary)>,
}

/// One connection's input (every job of a connection sorts the same records;
/// the server keeps nothing between jobs that could make that cheaper).
struct Connection {
    input: Vec<Tuple>,
    digest: Digest,
}

/// Client-side record of one job.
struct Job {
    id: u64,
    /// connect, submit, ingest, first_tuple, egress: six instants bound five
    /// back-to-back spans.
    marks: [f64; 6],
    summary: Option<JobSummary>,
    failure: Option<String>,
}

const STAGES: [&str; 5] = [
    "server.connect",
    "server.submit",
    "server.ingest",
    "server.first_tuple",
    "server.egress",
];

impl WireWorkload {
    pub fn set_up(scale: &Scale, seed: u64, work: &Path) -> Result<(Prepared, Floors), String> {
        // Floors are measured for the volume one rep moves, so the keys of
        // every connection's input are kept for the key-sort row.
        let mut keys = Vec::new();
        let connections: Vec<Connection> = (0..CONNECTIONS.min(host::nproc()))
            .map(|c| {
                let mut gen = RecordGen::new(scale.wire_records, seed + c as u64, Shape::Random);
                let mut input = Vec::with_capacity(scale.wire_records);
                let mut record = [0u8; RECORD_BYTES];
                while gen.next_into(&mut record) {
                    keys.push(key_of(&record));
                    input.push(tuple_from_record(&record));
                }
                Connection {
                    input,
                    digest: gen.digest(),
                }
            })
            .collect();
        let floors = floor::measure(&keys, &work.join("floor.bin"))
            .map_err(|e| format!("floor rows: {e}"))?;

        // Spilling jobs create their run directories under the temp dir.
        std::env::set_var("TMPDIR", work);
        let server = Server::builder()
            .pool_pages(POOL_PAGES)
            .workers(CONNECTIONS)
            .bind("127.0.0.1:0")
            .map_err(|e| format!("bind loopback: {e}"))?;
        let addr = server.local_addr();
        let workload = WireWorkload {
            server: Some(server.spawn()),
            addr,
            connections,
            spec: SubmitSpec {
                memory_pages: JOB_PAGES,
                page_size: PAGE_BYTES,
                tuple_size: (RECORD_BYTES + std::mem::size_of::<u64>()) as u64,
                spill: true,
                expected_tuples: scale.wire_records as u64,
                ..SubmitSpec::default()
            },
            jobs_per_rep: scale.wire_jobs_per_rep,
            clock: Instant::now(),
            next_job: 0,
            done: Vec::new(),
        };
        Ok((Prepared::Wire(workload), floors))
    }

    /// One rep: every connection runs `jobs_per_rep` jobs back to back, all
    /// connections at once. Timed from the first connect to the last job
    /// verified. The client reads the clock six times per job whether or not
    /// the rep is traced, so every rep carries its spans.
    pub fn rep(&mut self, traced: bool) -> Result<Rep, String> {
        let first_job = self.next_job;
        self.next_job += (self.connections.len() * self.jobs_per_rep) as u64;
        let (addr, spec, clock, per_conn) = (self.addr, &self.spec, self.clock, self.jobs_per_rep);

        let meter = Meter::start()?;
        let jobs: Vec<Job> = std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .connections
                .iter()
                .enumerate()
                .map(|(c, conn)| {
                    scope.spawn(move || {
                        (0..per_conn)
                            .map(|j| {
                                let id = first_job + (c * per_conn + j) as u64;
                                run_job(id, addr, spec, conn, clock)
                            })
                            .collect::<Vec<Job>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("client thread does not panic"))
                .collect()
        });
        let used = meter.stop()?;

        let mut rep = Rep {
            traced,
            used,
            attempted: jobs.len() as u64,
            ..Rep::default()
        };
        let mut tree = SpanTree::default();
        for job in jobs {
            let summary = match (job.failure, job.summary) {
                (None, Some(summary)) => summary,
                (failure, _) => {
                    let failure = failure.unwrap_or_else(|| "no summary".into());
                    rep.failures.push(format!("job {}: {failure}", job.id));
                    continue;
                }
            };
            let latency_ms = (job.marks[5] - job.marks[0]) * 1e3;
            rep.sorted_bytes += (self.connections[0].digest.records * RECORD_BYTES) as f64;
            rep.latencies_ms.push(latency_ms);
            self.done.push((latency_ms, summary));
            let root = tree.push(Span {
                name: "job",
                start: job.marks[0],
                end: job.marks[5],
                parent: None,
                job: job.id,
            });
            for (stage, name) in STAGES.into_iter().enumerate() {
                tree.push(Span {
                    name,
                    start: job.marks[stage],
                    end: job.marks[stage + 1],
                    parent: Some(root),
                    job: job.id,
                });
            }
        }
        rep.tree = Some(tree);
        Ok(rep)
    }

    /// Shut the server down and compute the broker and server layers over
    /// every job of every rep.
    pub fn finish(mut self, reps: &[Rep]) -> (Layers, Vec<String>) {
        let stats = self.server.take().expect("server runs until finish").join();
        let mut failures = Vec::new();
        if stats.leaked_pages > 0 {
            failures.push(format!("broker leaked {} pages", stats.leaked_pages));
        }

        let (latencies, summaries): (Vec<f64>, Vec<&JobSummary>) =
            self.done.iter().map(|(l, s)| (*l, s)).unzip();
        let stage_ms = |name: &str| -> Vec<f64> {
            reps.iter()
                .filter_map(|r| r.tree.as_ref())
                .flat_map(|t| t.durations_ms(name))
                .collect()
        };
        let p50 = |v: &[f64]| median(v).unwrap_or(0.0);
        let p95 = |v: &[f64]| percentile(v, 95).unwrap_or(0.0);
        let of =
            |f: fn(&JobSummary) -> f64| -> Vec<f64> { summaries.iter().map(|s| f(s)).collect() };
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;

        let queue_ms = of(|s| s.queued_for * 1e3);
        let ran_ms = of(|s| s.ran_for * 1e3);
        // What the client waited for beyond the broker's own accounting of
        // the job: sockets, codec, session threads, the accept loop.
        let overhead_ms: Vec<f64> = self
            .done
            .iter()
            .map(|(latency, s)| latency - (s.queued_for + s.ran_for) * 1e3)
            .collect();
        let (encode_mb_s, decode_mb_s) = codec_rates(&self.connections[0].input);

        let layers = Layers::from([
            ("broker.queue_wait_p50_ms", p50(&queue_ms)),
            ("broker.queue_wait_p95_ms", p95(&queue_ms)),
            ("broker.ran_for_p50_ms", p50(&ran_ms)),
            (
                "broker.initial_grant_mean_pages",
                mean(&of(|s| s.initial_grant as f64)),
            ),
            ("broker.reallocations", stats.total_reallocations as f64),
            ("broker.rebalances", stats.rebalances as f64),
            ("broker.delay_samples", stats.total_delay_samples as f64),
            (
                "broker.total_delay_ms",
                of(|s| s.total_delay * 1e3).iter().sum(),
            ),
            ("broker.leaked_pages", stats.leaked_pages as f64),
            (
                "server.connect_accept_p50_ms",
                p50(&stage_ms("server.connect")),
            ),
            ("server.ingest_p50_ms", p50(&stage_ms("server.ingest"))),
            (
                "server.first_tuple_p50_ms",
                p50(&stage_ms("server.first_tuple")),
            ),
            ("server.egress_p50_ms", p50(&stage_ms("server.egress"))),
            ("server.overhead_p50_ms", p50(&overhead_ms)),
            ("server.overhead_p95_ms", p95(&overhead_ms)),
            ("server.job_p95_ms", p95(&latencies)),
            (
                "server.job_tail_pct",
                highest_supported_percentile(latencies.len()).unwrap_or(0) as f64,
            ),
            ("server.codec_encode_mb_s", encode_mb_s),
            ("server.codec_decode_mb_s", decode_mb_s),
            // What the job summaries say about the sorts behind the socket.
            ("run_formation.runs", mean(&of(|s| s.runs_formed as f64))),
            (
                "run_formation.natural_runs",
                mean(&of(|s| s.natural_runs as f64)),
            ),
            (
                "run_formation.max_run_tuples",
                mean(&of(|s| s.max_run_tuples as f64)),
            ),
            ("merge.steps", mean(&of(|s| s.merge_steps as f64))),
        ]);
        (layers, failures)
    }
}

impl Drop for WireWorkload {
    /// A set-up that is thrown away (set-up is measured several times) must
    /// still stop its server and wait for it.
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.join();
        }
    }
}

/// One job, start to verified: connect, submit, ingest, drain, check.
fn run_job(id: u64, addr: SocketAddr, spec: &SubmitSpec, conn: &Connection, clock: Instant) -> Job {
    let now = || clock.elapsed().as_secs_f64();
    let mut job = Job {
        id,
        marks: [now(); 6],
        summary: None,
        failure: None,
    };
    let result = (|| -> Result<(Vec<Tuple>, JobSummary), String> {
        let err = |e: masort_server::ClientError| e.to_string();
        let mut client = SortClient::connect(addr, None).map_err(err)?;
        job.marks[1] = now();
        client.submit(spec.clone()).map_err(err)?;
        job.marks[2] = now();
        for chunk in conn.input.chunks(INGEST_CHUNK) {
            client.ingest(chunk.to_vec()).map_err(err)?;
        }
        let mut completed = client.finish().map_err(err)?;
        job.marks[3] = now();
        let mut sorted = Vec::with_capacity(conn.input.len());
        if let Some(first) = completed.next() {
            sorted.push(first.map_err(err)?);
        }
        job.marks[4] = now();
        for tuple in &mut completed {
            sorted.push(tuple.map_err(err)?);
        }
        job.marks[5] = now();
        let summary = completed
            .summary()
            .cloned()
            .ok_or("stream ended without a summary")?;
        Ok((sorted, summary))
    })();
    match result {
        Ok((sorted, summary)) => {
            job.failure = verify_job(&sorted, &summary, &conn.digest).err();
            job.summary = Some(summary);
        }
        Err(e) => job.failure = Some(e),
    }
    job
}

/// After the latency clock has stopped: count, key order, checksum.
fn verify_job(sorted: &[Tuple], summary: &JobSummary, expect: &Digest) -> Result<(), String> {
    if summary.tuples as usize != sorted.len() {
        return Err(format!(
            "summary counts {} tuples, {} arrived",
            summary.tuples,
            sorted.len()
        ));
    }
    let mut digest = OrderedDigest::default();
    let mut previous = 0u64;
    for tuple in sorted {
        let record = record_bytes(tuple).map_err(|e| e.to_string())?;
        digest.push(record, previous <= tuple.key);
        previous = tuple.key;
    }
    digest.check(expect)
}

/// Frame codec throughput on in-memory buffers, in record MB/s: encode and
/// decode of the ingest frames one job sends.
fn codec_rates(input: &[Tuple]) -> (f64, f64) {
    let frames: Vec<Frame> = input
        .chunks(INGEST_CHUNK)
        .map(|chunk| Frame::Ingest(chunk.to_vec()))
        .collect();
    let volume_mb = (input.len() * RECORD_BYTES) as f64 / 1e6;
    let mut wire = Vec::new();
    let t = Instant::now();
    for frame in &frames {
        write_frame(&mut wire, frame).expect("write to a Vec");
    }
    let encode_s = t.elapsed().as_secs_f64();
    let mut cursor = &wire[..];
    let t = Instant::now();
    let mut decoded = 0;
    while let Ok(Some(frame)) = read_frame(&mut cursor) {
        decoded += 1;
        std::hint::black_box(frame);
    }
    let decode_s = t.elapsed().as_secs_f64();
    assert_eq!(decoded, frames.len(), "codec round trip lost frames");
    (volume_mb / encode_s, volume_mb / decode_s)
}
