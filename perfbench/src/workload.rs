//! The three traffic mixes and the inputs each one replays.
//!
//! Every input is generated from the benchmark's `--seed`; the program
//! under test only ever sees the generated records.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::net::{IpAddr, Ipv4Addr};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ldp_replay::ReplayMode;
use ldp_trace::stream::{StreamReader, StreamWriter};
use ldp_trace::{Mutation, Protocol, QueryMutator, TraceError, TraceRecord};
use ldp_wire::{Name, RrType};
use ldp_workload::zones::{synthetic_root_zone, wildcard_example_zone};
use ldp_workload::BRootConfig;
use ldp_zone::ZoneSet;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 9's query (`www.example.com A`) over UDP in `ReplayMode::Fast`.
    HotFast,
    /// A B-Root-like trace replayed in `ReplayMode::Timed`.
    BrootTimed,
    /// The same trace with every query moved to TCP (§5's what-if).
    BrootTcp,
}

/// Mean rate the B-Root trace is generated at. Steps replay it at other
/// rates by scaling `speed`, so every broot step sends the same records.
pub const TRACE_QPS: f64 = 20_000.0;

/// Trace time every workload's input covers: 80,000 records at
/// [`TRACE_QPS`]. The input is fixed in size, so set-up does the same work
/// whatever `--seconds` is; a step that needs more records goes round the
/// input again.
pub const TRACE_S: f64 = 4.0;

/// Distinct clients in the B-Root trace (Zipf-ranked).
const BROOT_CLIENTS: usize = 20_000;

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HotFast, Workload::BrootTimed, Workload::BrootTcp];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotFast => "hot_fast",
            Workload::BrootTimed => "broot_timed",
            Workload::BrootTcp => "broot_tcp",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Offered rate of the reference step (q/s), well under capacity.
    pub fn reference_qps(self) -> f64 {
        match self {
            Workload::HotFast => 50_000.0,
            Workload::BrootTimed => 20_000.0,
            Workload::BrootTcp => 10_000.0,
        }
    }

    /// Highest rate the capacity search offers (q/s).
    pub fn max_qps(self) -> f64 {
        match self {
            Workload::HotFast => 400_000.0,
            Workload::BrootTimed | Workload::BrootTcp => 160_000.0,
        }
    }

    /// Records per pipeline batch. Fast mode flushes a batch only when it
    /// is full, so batch fill is part of its lateness: small batches keep
    /// that wait near a millisecond at the reference rate.
    pub fn batch_size(self) -> usize {
        match self {
            Workload::HotFast => 32,
            Workload::BrootTimed | Workload::BrootTcp => 256,
        }
    }

    /// Replay mode for a step offered at `rate` q/s.
    pub fn mode(self, rate: f64) -> ReplayMode {
        match self {
            Workload::HotFast => ReplayMode::Fast,
            // `speed` scales delays: smaller is faster.
            Workload::BrootTimed | Workload::BrootTcp => ReplayMode::Timed {
                speed: TRACE_QPS / rate,
            },
        }
    }

    /// The zones the server loads for this workload.
    pub fn zones(self) -> ZoneSet {
        let mut set = ZoneSet::new();
        set.insert(wildcard_example_zone());
        if self != Workload::HotFast {
            set.insert(synthetic_root_zone(0));
        }
        set
    }
}

/// Folds a source address onto one of `slots` addresses, so a trace with
/// thousands of TCP clients opens at most `slots` connections while each
/// original client keeps one connection.
fn fold_source(src: IpAddr, slots: usize) -> IpAddr {
    let h = match src {
        IpAddr::V4(a) => fnv1a64(&a.octets()),
        IpAddr::V6(a) => fnv1a64(&a.octets()),
    };
    let slot = (h % slots.max(1) as u64) as u8;
    IpAddr::V4(Ipv4Addr::new(172, 16, 0, 1 + slot))
}

/// FNV-1a: a hash that is stable across runs and platforms.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `hot_fast`'s records, as fig09 generates them: [`TRACE_S`] of
/// `www.example.com A` at [`TRACE_QPS`]. Record `i` comes from source
/// `i mod queriers`, so sticky round-robin routing gives every querier
/// exactly one source.
fn hot_trace(seed: u64, queriers: usize) -> impl Iterator<Item = TraceRecord> {
    let name = Name::parse("www.example.com").expect("valid name");
    let queriers = queriers.max(1);
    (0..(TRACE_S * TRACE_QPS) as usize).map(move |i| {
        let q = i % queriers;
        let src = IpAddr::V4(Ipv4Addr::new(10, (seed % 250) as u8, 0, 1 + q as u8));
        let time_us = (i as f64 * 1e6 / TRACE_QPS) as u64;
        TraceRecord::udp_query(time_us, src, 1024 + q as u16, name.clone(), RrType::A)
    })
}

/// The B-Root-like trace, [`TRACE_S`] at [`TRACE_QPS`]: Poisson arrivals
/// at a flat mean rate, Zipf clients, referrals plus NXDOMAIN junk, 72.3%
/// DO and 3% TCP. TCP sources are folded onto `slots` addresses;
/// `broot_tcp` moves every query to TCP first.
pub fn broot_trace(workload: Workload, seed: u64, slots: usize) -> Vec<TraceRecord> {
    let mut records = BRootConfig {
        duration_s: TRACE_S,
        mean_rate_qps: TRACE_QPS,
        clients: BROOT_CLIENTS,
        // A flat mean rate: a step's offered rate must not depend on
        // where in the trace a sinusoid happens to be.
        rate_swing: 0.0,
        seed,
        ..BRootConfig::default()
    }
    .generate();
    if workload == Workload::BrootTcp {
        QueryMutator::new(seed)
            .push(Mutation::SetProtocol(Protocol::Tcp))
            .apply_all(&mut records);
    }
    for rec in &mut records {
        if rec.protocol != Protocol::Udp {
            rec.src = fold_source(rec.src, slots);
        }
    }
    records
}

/// Generates the workload's input and writes it to `path` as `.ldps`.
pub fn write_inputs(
    workload: Workload,
    seed: u64,
    queriers: usize,
    path: &Path,
) -> Result<(), TraceError> {
    let mut writer = StreamWriter::new(BufWriter::new(File::create(path)?))?;
    match workload {
        // Written as it is generated: the whole trace is never in memory.
        Workload::HotFast => hot_trace(seed, queriers).try_for_each(|rec| writer.write(&rec))?,
        Workload::BrootTimed | Workload::BrootTcp => broot_trace(workload, seed, queriers)
            .iter()
            .try_for_each(|rec| writer.write(rec))?,
    }
    writer.finish()?;
    Ok(())
}

fn open(path: &Path) -> Result<StreamReader<BufReader<File>>, TraceError> {
    StreamReader::new(BufReader::new(File::open(path)?))
}

/// Reads every record of an `.ldps` file.
pub fn read_inputs(path: &Path) -> Result<Vec<TraceRecord>, TraceError> {
    let mut reader = open(path)?;
    let mut out = Vec::new();
    while let Some(rec) = reader.read()? {
        out.push(rec);
    }
    Ok(out)
}

/// The record stream one step hands the replay.
pub type Records = Box<dyn Iterator<Item = Result<TraceRecord, TraceError>> + Send>;

/// What a step's record stream handed over: records, and read errors (the
/// replay stops at the first one, so it must be counted here).
#[derive(Debug, Default)]
pub struct Fed {
    pub records: AtomicU64,
    pub errors: AtomicU64,
}

/// The record stream of one step at `rate` q/s for `seconds`, counting
/// into `fed`.
pub fn step_records(
    workload: Workload,
    inputs: &Path,
    rate: f64,
    seconds: f64,
    fed: Arc<Fed>,
) -> Result<Records, TraceError> {
    let count = move |r: Result<TraceRecord, TraceError>| {
        let counter = if r.is_ok() { &fed.records } else { &fed.errors };
        counter.fetch_add(1, Ordering::Relaxed);
        r
    };
    let laps = |span_us| -> Result<Laps, TraceError> {
        Ok(Laps {
            reader: open(inputs)?,
            path: inputs.to_path_buf(),
            lap: 0,
            span_us,
        })
    };
    Ok(match workload {
        Workload::HotFast => Box::new(
            Paced {
                records: laps(u64::MAX)?,
                gap_us: 1e6 / rate,
                total: (rate * seconds) as u64,
                next: 0,
                start: None,
            }
            .map(count),
        ),
        Workload::BrootTimed | Workload::BrootTcp => Box::new(
            // The trace time that replays in `seconds` at `rate`.
            laps((seconds * rate / TRACE_QPS * 1e6) as u64)?.map(count),
        ),
    })
}

/// `hot_fast`'s open-loop source: record `i` is due `i × gap_us` after the
/// first one is taken, is stamped with that due time, and is released no
/// earlier. A replay that falls behind finds the next records already due,
/// and their lateness counts the stall.
struct Paced {
    records: Laps,
    gap_us: f64,
    total: u64,
    next: u64,
    start: Option<Instant>,
}

impl Iterator for Paced {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.total {
            return None;
        }
        let mut rec = match self.records.next()? {
            Ok(rec) => rec,
            Err(e) => return Some(Err(e)),
        };
        let start = *self.start.get_or_insert_with(Instant::now);
        let due_us = (self.next as f64 * self.gap_us) as u64;
        let now_us = start.elapsed().as_micros() as u64;
        if due_us > now_us {
            std::thread::sleep(Duration::from_micros(due_us - now_us));
        }
        rec.time_us = due_us;
        self.next += 1;
        Some(Ok(rec))
    }
}

/// The first `span_us` of trace time from an `.ldps` trace of [`TRACE_S`],
/// read from the start again whenever it ends, each lap's records shifted
/// by the trace's length.
struct Laps {
    reader: StreamReader<BufReader<File>>,
    path: PathBuf,
    lap: u64,
    span_us: u64,
}

impl Iterator for Laps {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        let lap_us = (TRACE_S * 1e6) as u64;
        loop {
            match self.reader.read() {
                Err(e) => return Some(Err(e)),
                Ok(Some(mut rec)) => {
                    rec.time_us += self.lap * lap_us;
                    return (rec.time_us < self.span_us).then_some(Ok(rec));
                }
                Ok(None) => {
                    self.lap += 1;
                    if self.lap * lap_us >= self.span_us {
                        return None;
                    }
                    match open(&self.path) {
                        Ok(reader) => self.reader = reader,
                        Err(e) => return Some(Err(e)),
                    }
                }
            }
        }
    }
}
