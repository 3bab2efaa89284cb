//! The four workloads, their scales, and what one rep of any of them yields.

use crate::file::FileWorkload;
use crate::floor::Floors;
use crate::gen::Shape;
use crate::host;
use crate::trace::SpanTree;
use crate::wire::WireWorkload;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Per-layer metrics of one rep or one run, by name.
pub type Layers = BTreeMap<&'static str, f64>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FileRandom,
    FileWobble,
    FileSorted90,
    WireJobs,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FileRandom,
        Workload::FileWobble,
        Workload::FileSorted90,
        Workload::WireJobs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FileRandom => "file_random",
            Workload::FileWobble => "file_wobble",
            Workload::FileSorted90 => "file_sorted90",
            Workload::WireJobs => "wire_jobs",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work a run does. Geometry only: nothing here selects a code path
/// inside the measured crates.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub name: &'static str,
    /// Records in each file workload's input.
    pub file_records: usize,
    /// Page size of the file workloads.
    pub file_page_bytes: usize,
    /// Budget of the file workloads, and the high side of the wobble.
    pub file_mem_pages: usize,
    /// Low side of the wobble.
    pub wobble_low_pages: usize,
    /// Pages of progress between two budget moves.
    pub wobble_period_pages: usize,
    /// Records in one wire job.
    pub wire_records: usize,
    /// Sequential jobs each connection runs in one rep.
    pub wire_jobs_per_rep: usize,
    /// Timed reps to run even when `--seconds` is already used up.
    pub min_reps: usize,
}

impl Scale {
    /// The scale the committed numbers are measured at. 64 MB files against a
    /// 2 MB budget (3 % of the input) keep a rep near half a second, so a
    /// twenty-second run holds some thirty-five reps.
    pub const FULL: Scale = Scale {
        name: "full",
        file_records: 640_000,
        file_page_bytes: 32 * 1024,
        file_mem_pages: 64,
        wobble_low_pages: 16,
        wobble_period_pages: 128,
        wire_records: 100_000,
        wire_jobs_per_rep: 10,
        min_reps: 3,
    };

    /// Seconds-long sanity scale for tests and CI.
    pub const SMOKE: Scale = Scale {
        name: "smoke",
        file_records: 80_000,
        file_page_bytes: 32 * 1024,
        file_mem_pages: 32,
        wobble_low_pages: 8,
        wobble_period_pages: 32,
        wire_records: 20_000,
        wire_jobs_per_rep: 4,
        min_reps: 1,
    };

    pub fn from_name(name: &str) -> Option<Scale> {
        [Scale::FULL, Scale::SMOKE]
            .into_iter()
            .find(|s| s.name == name)
    }
}

/// Wall, CPU and syscall-byte deltas over a timed region.
pub struct Meter {
    started: Instant,
    cpu_s: f64,
    io_bytes: f64,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Used {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub io_bytes: f64,
}

impl Meter {
    pub fn start() -> Result<Meter, String> {
        Ok(Meter {
            cpu_s: host::cpu_seconds()?,
            io_bytes: host::syscall_io_bytes()?,
            started: Instant::now(),
        })
    }

    pub fn stop(self) -> Result<Used, String> {
        let wall_s = self.started.elapsed().as_secs_f64();
        Ok(Used {
            wall_s,
            cpu_s: host::cpu_seconds()? - self.cpu_s,
            io_bytes: host::syscall_io_bytes()? - self.io_bytes,
        })
    }
}

/// What one rep produced.
#[derive(Debug, Default)]
pub struct Rep {
    pub traced: bool,
    pub used: Used,
    /// Record bytes sorted by the jobs that succeeded.
    pub sorted_bytes: f64,
    pub attempted: u64,
    /// One message per job that failed, was refused, or failed verification.
    pub failures: Vec<String>,
    /// Latency of each successful job, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Per-layer numbers of this rep. Time-valued ones only when traced.
    pub layers: Layers,
    /// The spans of this rep when traced.
    pub tree: Option<SpanTree>,
}

impl Rep {
    pub fn succeeded(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }
}

/// A workload after set-up: inputs written, digests taken, server started.
pub enum Prepared {
    File(FileWorkload),
    Wire(WireWorkload),
}

impl Prepared {
    /// One whole set-up: generate the inputs, take their digests, measure the
    /// floor rows on the work filesystem, start the server (wire).
    pub fn set_up(
        workload: Workload,
        scale: &Scale,
        seed: u64,
        work: &Path,
    ) -> Result<(Prepared, Floors), String> {
        match workload {
            Workload::FileRandom => FileWorkload::set_up(scale, seed, work, Shape::Random, false),
            Workload::FileWobble => FileWorkload::set_up(scale, seed, work, Shape::Random, true),
            Workload::FileSorted90 => {
                FileWorkload::set_up(scale, seed, work, Shape::Sorted90, false)
            }
            Workload::WireJobs => WireWorkload::set_up(scale, seed, work),
        }
    }

    /// Run and verify one rep.
    pub fn rep(&mut self, traced: bool) -> Result<Rep, String> {
        match self {
            Prepared::File(w) => w.rep(traced),
            Prepared::Wire(w) => w.rep(traced),
        }
    }

    /// Whether an untraced rep already records every span a traced one would
    /// (the wire client reads the clock six times per job either way).
    pub fn traces_for_free(&self) -> bool {
        matches!(self, Prepared::Wire(_))
    }

    /// Tear down and report run-level per-layer numbers and failures that
    /// only show once the workload is over (leaked broker pages).
    pub fn finish(self, reps: &[Rep]) -> (Layers, Vec<String>) {
        match self {
            Prepared::File(w) => (w.finish(reps), Vec::new()),
            Prepared::Wire(w) => w.finish(reps),
        }
    }
}
