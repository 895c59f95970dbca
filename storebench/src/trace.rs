//! What the traced run adds: spans the benchmark records around its calls
//! into the store path, a register-counting [`SharedMemory`], and CPU time
//! per thread read from procfs by thread name.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mc_model::Probability;
use mc_runtime::{AtomicMemory, AtomicRegister, SharedMemory, SharedRegister};
use rand::Rng;

/// Register operations, in the order [`register_counts`] reports them.
const READ: usize = 0;
const WRITE: usize = 1;
const PROB_WRITE: usize = 2;
const PROB_WRITE_LANDED: usize = 3;

/// One thread's register-operation counts. Only the owning thread writes
/// them, so a relaxed load-then-store is a complete update; readers sum
/// them after joining the writers.
#[derive(Default)]
struct ThreadCounts([AtomicU64; 4]);

static REGISTRY: Mutex<Vec<Arc<ThreadCounts>>> = Mutex::new(Vec::new());

thread_local! {
    static MINE: Arc<ThreadCounts> = {
        let counts = Arc::new(ThreadCounts::default());
        REGISTRY
            .lock()
            .expect("register-count registry poisoned")
            .push(Arc::clone(&counts));
        counts
    };
}

fn bump(op: usize) {
    MINE.with(|counts| {
        let cell = &counts.0[op];
        cell.store(cell.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    });
}

/// Register operations so far, summed over every thread that touched a
/// [`CountingMemory`] register: reads, writes, probabilistic writes
/// attempted, and probabilistic writes that landed. Exact once the threads
/// that made them have been joined.
pub fn register_counts() -> [u64; 4] {
    let registry = REGISTRY.lock().expect("register-count registry poisoned");
    let mut total = [0u64; 4];
    for counts in registry.iter() {
        for (sum, cell) in total.iter_mut().zip(&counts.0) {
            *sum += cell.load(Ordering::Relaxed);
        }
    }
    total
}

/// [`AtomicMemory`] with every register operation counted per thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingMemory;

/// An [`AtomicRegister`] that counts its operations.
pub struct CountingRegister(AtomicRegister);

impl SharedMemory for CountingMemory {
    type Reg = CountingRegister;

    fn alloc_in_generation(&self, generation: u64) -> CountingRegister {
        CountingRegister(AtomicMemory.alloc_in_generation(generation))
    }
}

impl SharedRegister for CountingRegister {
    fn read(&self) -> Option<u64> {
        bump(READ);
        SharedRegister::read(&self.0)
    }

    fn write(&self, value: u64) {
        bump(WRITE);
        SharedRegister::write(&self.0, value);
    }

    fn prob_write(&self, value: u64, prob: Probability, rng: &mut dyn Rng) -> bool {
        bump(PROB_WRITE);
        let landed = self.0.prob_write(value, prob, rng);
        if landed {
            bump(PROB_WRITE_LANDED);
        }
        landed
    }

    fn generation(&self) -> u64 {
        self.0.generation()
    }

    fn retire_to(&mut self, generation: u64) {
        self.0.retire_to(generation);
    }
}

/// The calls the benchmark wraps in spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    Call,
    Submit,
    Wait,
    Read,
    Append,
}

const SPAN_NAMES: [SpanName; 5] = [
    SpanName::Call,
    SpanName::Submit,
    SpanName::Wait,
    SpanName::Read,
    SpanName::Append,
];

impl SpanName {
    fn as_str(self) -> &'static str {
        match self {
            SpanName::Call => "StoreClient::call",
            SpanName::Submit => "StoreClient::submit",
            SpanName::Wait => "CommandHandle::wait_timeout",
            SpanName::Read => "StoreClient::read",
            SpanName::Append => "ReplicatedLog::append",
        }
    }
}

/// One recorded span. Spans of one request share `request`; `parent`
/// names the span of the same request that caused this one.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: SpanName,
    parent: Option<SpanName>,
    request: u64,
    thread: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept per recorder, and in all once merged. Beyond this, spans
/// still count in the totals but are not kept, so neither memory nor the
/// span file grows with the length of a run.
const KEPT_SPANS: usize = 100_000;

/// One thread's spans, held in memory until the run ends. A disabled
/// recorder records nothing, so untraced rounds pay one branch per call.
pub struct Spans {
    enabled: bool,
    thread: u32,
    epoch: Instant,
    kept: Vec<Span>,
    /// Per [`SPAN_NAMES`] entry: spans recorded and their summed duration.
    totals: [(u64, u64); 6],
}

impl Spans {
    pub fn new(enabled: bool, thread: u32, epoch: Instant) -> Spans {
        Spans {
            enabled,
            thread,
            epoch,
            kept: Vec::new(),
            totals: [(0, 0); 6],
        }
    }

    /// Records a span from `start` to now and returns now, so consecutive
    /// spans can share one clock read.
    pub fn record(
        &mut self,
        name: SpanName,
        parent: Option<SpanName>,
        request: u64,
        start: Instant,
    ) -> Instant {
        let end = Instant::now();
        if !self.enabled {
            return end;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        let slot = &mut self.totals[name as usize];
        slot.0 += 1;
        slot.1 += end_ns - start_ns;
        if self.kept.len() < KEPT_SPANS {
            self.kept.push(Span {
                name,
                parent,
                request,
                thread: self.thread,
                start_ns,
                end_ns,
            });
        }
        end
    }

    /// Spans recorded under `name` and their total duration in ns.
    pub fn total(&self, name: SpanName) -> (u64, u64) {
        self.totals[name as usize]
    }

    /// Folds another recorder's spans into this one.
    pub fn absorb(&mut self, other: Spans) {
        for (mine, theirs) in self.totals.iter_mut().zip(other.totals) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
        let room = KEPT_SPANS.saturating_sub(self.kept.len());
        self.kept.extend(other.kept.into_iter().take(room));
    }

    /// Writes the kept spans as JSON lines, one span per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for span in &self.kept {
            let parent = span
                .parent
                .map_or("null".to_string(), |p| format!("\"{}\"", p.as_str()));
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"parent\":{parent},\"request\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                span.name.as_str(),
                span.request,
                span.thread,
                span.start_ns,
                span.end_ns
            );
        }
        for name in SPAN_NAMES {
            let (count, ns) = self.total(name);
            let _ = writeln!(
                out,
                "{{\"total\":\"{}\",\"count\":{count},\"ns\":{ns}}}",
                name.as_str()
            );
        }
        std::fs::write(path, out)
    }
}

/// Time (ns) a thread has spent on a CPU, the first field of a procfs
/// `schedstat` file. Unlike `stat`'s utime and stime, which count 10 ms
/// ticks, it is exact, so one round's share of a thread shows.
fn parse_schedstat(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// CPU time (ns) of the calling thread.
pub fn own_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| parse_schedstat(&s))
        .unwrap_or(0)
}

/// CPU time (ns) of every live thread of this process, by thread id, with
/// the thread's name.
pub fn thread_cpu() -> Vec<(u64, String, u64)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut threads = Vec::new();
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let read = |file| std::fs::read_to_string(entry.path().join(file)).ok();
        if let (Some(name), Some(ns)) = (
            read("comm"),
            read("schedstat").and_then(|s| parse_schedstat(&s)),
        ) {
            threads.push((tid, name.trim_end().to_string(), ns));
        }
    }
    threads
}

/// CPU time (ns) that threads whose name starts with `prefix` spent
/// between two [`thread_cpu`] readings.
pub fn cpu_between(
    before: &[(u64, String, u64)],
    after: &[(u64, String, u64)],
    prefix: &str,
) -> u64 {
    after
        .iter()
        .filter(|(_, name, _)| name.starts_with(prefix))
        .map(|(tid, _, ns)| {
            let earlier = before
                .iter()
                .find(|(t, _, _)| t == tid)
                .map_or(0, |(_, _, ns)| *ns);
            ns.saturating_sub(earlier)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_parsing_takes_the_run_time() {
        assert_eq!(parse_schedstat("977356 26468 3\n"), Some(977_356));
        assert_eq!(parse_schedstat(""), None);
    }
}
