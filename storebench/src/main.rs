//! End-to-end benchmark of the replicated store path.
//!
//! ```text
//! storebench --workload <kv_closed|log_contended> [--seed <n>]
//!            [--seconds <s>] [--trace <0|1>] [--span-dir <dir>]
//! ```
//!
//! A run pins itself to one CPU (see `pin.rs`), repeats whole rounds of
//! one workload until `--seconds` have passed (and at least [`MIN_ROUNDS`]
//! rounds), checks every round's outputs, and prints one JSON object as its
//! last line of output. With `--trace 0` the metrics are the end-to-end
//! figures: medians over the run's timed rounds, and over its heap rounds
//! (every fourth round). With `--trace 1` untraced and traced rounds alternate;
//! the metrics are the per-layer figures of the traced rounds, and
//! `trace.overhead_pct` compares the two kinds of round. See README.md.

mod check;
mod gen;
mod kv;
mod log;
mod mem;
mod pin;
mod round;
mod trace;

/// Counts heap bytes for the `peak_heap_mb` metric.
#[global_allocator]
static ALLOC: mem::CountingAlloc = mem::CountingAlloc;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mc_runtime::{AtomicMemory, SharedMemory};

use round::{median, RoundResult, RoundSpec, Tally};
use trace::{CountingMemory, Spans};

/// Rounds a run completes however short `--seconds` is.
const MIN_ROUNDS: u64 = 4;
/// An untraced run makes every `HEAP_EVERY`-th round a heap round.
const HEAP_EVERY: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    KvClosed,
    LogContended,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "kv_closed" => Some(Workload::KvClosed),
            "log_contended" => Some(Workload::LogContended),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::KvClosed => "kv_closed",
            Workload::LogContended => "log_contended",
        }
    }

    fn round<M: SharedMemory>(self, memory: M, spec: RoundSpec) -> Result<RoundResult, String> {
        match self {
            Workload::KvClosed => kv::closed_round(memory, spec),
            Workload::LogContended => log::log_round(memory, spec),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    span_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut span_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--span-dir" => span_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        span_dir,
    })
}

/// Everything a run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// The end-to-end figures: medians over the run's timed rounds, and over
/// its heap rounds for the peak heap.
fn end_to_end(
    rounds: &[RoundResult],
    heap_rounds: &[RoundResult],
) -> Vec<(&'static str, f64, &'static str)> {
    let med = |f: fn(&RoundResult) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let heap = median(
        &heap_rounds
            .iter()
            .map(|r| r.peak_heap_mb)
            .collect::<Vec<_>>(),
    );
    vec![
        ("ops_per_s", med(|r| r.ops_per_s), "ops/s"),
        ("op_p50_us", med(|r| r.op_p50_us), "us"),
        ("op_p99_us", med(|r| r.op_p99_us), "us"),
        ("read_mean_ns", med(|r| r.read_mean_ns), "ns"),
        ("setup_s", med(|r| r.setup_s), "s"),
        ("peak_heap_mb", heap, "MB"),
    ]
}

/// The per-layer figures from the traced rounds' summed tallies. A layer
/// the workload does not pass through reads 0.
fn per_layer(t: &Tally, overhead_pct: f64) -> Vec<(&'static str, f64, &'static str)> {
    let decides = "decide_calls";
    vec![
        (
            "store.submit_ns_per_cmd",
            t.ratio("span.submit_ns", "span.submitted"),
            "ns",
        ),
        (
            "store.wait_us_per_cmd",
            t.ratio("span.wait_ns", "span.waited") / 1e3,
            "us",
        ),
        (
            "store.cmds_per_slot",
            t.ratio("store.applied", "store.slots"),
            "count",
        ),
        (
            "store.apply_cpu_ns_per_cmd",
            t.ratio("cpu.apply_ns", "store.applied"),
            "ns",
        ),
        (
            "store.sequencer_cpu_ns_per_slot",
            t.ratio("cpu.sequencer_ns", "store.slots"),
            "ns",
        ),
        (
            "store.lease_grants_per_read",
            t.ratio("store.lease_grants", "store.fast_reads"),
            "ratio",
        ),
        (
            "store.sessions_created",
            t.ratio("store.sessions_created", "rounds"),
            "count",
        ),
        (
            "store.snapshots",
            t.ratio("store.snapshots", "rounds"),
            "count",
        ),
        (
            "store.resends_per_round",
            t.ratio("store.resends", "rounds"),
            "count",
        ),
        (
            "store.stranded_per_round",
            t.ratio("store.stranded", "rounds"),
            "count",
        ),
        (
            "store.parked_call_p50_us",
            t.ratio("parked.call_p50_ns", "rounds") / 1e3,
            "us",
        ),
        (
            "service.proposals_per_drain",
            t.ratio("service.enqueued", "service.drains"),
            "count",
        ),
        (
            "service.wait_mean_us",
            t.ratio("service.wait_ns", "service.waits") / 1e3,
            "us",
        ),
        (
            "service.worker_cpu_ns_per_slot",
            t.ratio("cpu.service_ns", "store.slots"),
            "ns",
        ),
        (
            "service.max_queue_depth",
            t.get("max.service.queue_depth"),
            "count",
        ),
        ("engine.pool_hit_rate", pool_hit_rate(t, "engine"), "ratio"),
        (
            "engine.pool_misses",
            t.ratio("engine.pool_misses", "rounds"),
            "count",
        ),
        (
            "log.append_ns",
            t.ratio("span.append_ns", "span.appends"),
            "ns",
        ),
        (
            "log.decides_per_append",
            t.ratio(decides, "log.appends"),
            "ratio",
        ),
        (
            "log.slot_conflicts_per_append",
            t.ratio("log.slot_conflicts", "log.appends"),
            "ratio",
        ),
        ("log.pool_hit_rate", pool_hit_rate(t, "log"), "ratio"),
        (
            "consensus.decide_mean_ns",
            t.ratio("decide_ns", "decide_samples"),
            "ns",
        ),
        (
            "consensus.fast_path_rate",
            t.ratio("fast_path_hits", "decisions"),
            "ratio",
        ),
        (
            "consensus.stages_per_decide",
            t.ratio("stage_entries", decides),
            "count",
        ),
        (
            "conciliator.rounds_per_decide",
            t.ratio("conciliator_rounds", decides),
            "count",
        ),
        (
            "register.reads_per_decide",
            t.ratio("reg.reads", decides),
            "count",
        ),
        (
            "register.writes_per_decide",
            t.ratio("reg.writes", decides),
            "count",
        ),
        (
            "register.prob_writes_per_decide",
            t.ratio("reg.prob_writes", decides),
            "count",
        ),
        (
            "register.prob_writes_landed_per_decide",
            t.ratio("reg.prob_writes_landed", decides),
            "count",
        ),
        (
            "client.cpu_ns_per_op",
            t.ratio("cpu.client_ns", "client.ops"),
            "ns",
        ),
        ("trace.overhead_pct", overhead_pct, "%"),
    ]
}

fn pool_hit_rate(t: &Tally, layer: &str) -> f64 {
    let hits = t.get(&format!("{layer}.pool_hits"));
    let total = hits + t.get(&format!("{layer}.pool_misses"));
    if total == 0.0 {
        0.0
    } else {
        hits / total
    }
}

/// How much worse the traced rounds' headline figure is than the untraced
/// rounds', in percent of the untraced median: call p50 for the closed
/// loop, throughput for the log workload.
fn overhead_pct(workload: Workload, plain: &[RoundResult], traced: &[RoundResult]) -> f64 {
    let med = |rs: &[RoundResult], f: fn(&RoundResult) -> f64| {
        median(&rs.iter().map(f).collect::<Vec<_>>())
    };
    match workload {
        Workload::KvClosed => {
            let (p, t) = (med(plain, |r| r.op_p50_us), med(traced, |r| r.op_p50_us));
            (t / p - 1.0) * 100.0
        }
        Workload::LogContended => {
            let (p, t) = (med(plain, |r| r.ops_per_s), med(traced, |r| r.ops_per_s));
            (p / t - 1.0) * 100.0
        }
    }
}

fn run(args: &Args, cpu: usize) -> Outcome {
    let steal_start = pin::steal_ns(cpu);
    let epoch = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut heap_rounds = Vec::new();
    let mut spans = Spans::new(args.trace, 0, epoch);
    let mut tally = Tally::default();
    let (mut attempted, mut failed) = (0, 0);
    let (mut resends, mut stranded) = (0, 0);
    let mut round = 0u64;
    let mut correct = true;
    while round < MIN_ROUNDS || epoch.elapsed() < budget {
        // A traced run alternates untraced and traced rounds, so the
        // overhead is a same-run comparison.
        let trace_this = args.trace && round % 2 == 1;
        let heap_this = !args.trace && round % HEAP_EVERY == HEAP_EVERY - 1;
        let spec = RoundSpec {
            seed: args.seed,
            round,
            traced: trace_this,
            epoch,
            control: round == 0,
            heap: heap_this,
        };
        let result = if trace_this {
            args.workload.round(CountingMemory, spec)
        } else {
            args.workload.round(AtomicMemory, spec)
        };
        match result {
            Ok(mut r) => {
                eprintln!(
                    "round {round}{}: setup {:.6}s, {:.0} ops/s, p50 {:.3}us, p99 {:.3}us, \
                     read mean {:.0}ns, heap {:.3}MB, {} resent, {} stranded, {} failed",
                    match (trace_this, heap_this) {
                        (true, _) => " (traced)",
                        (_, true) => " (heap)",
                        _ => "",
                    },
                    r.setup_s,
                    r.ops_per_s,
                    r.op_p50_us,
                    r.op_p99_us,
                    r.read_mean_ns,
                    r.peak_heap_mb,
                    r.resends,
                    r.stranded,
                    r.failed
                );
                attempted += r.attempted;
                failed += r.failed;
                resends += r.resends;
                stranded += r.stranded;
                if trace_this {
                    tally.absorb(std::mem::take(&mut r.tally));
                    spans.absorb(std::mem::replace(&mut r.spans, Spans::new(false, 0, epoch)));
                    traced.push(r);
                } else if heap_this {
                    heap_rounds.push(r);
                } else {
                    plain.push(r);
                }
            }
            Err(e) => {
                eprintln!("{} round {round}: check failed: {e}", args.workload.name());
                correct = false;
                break;
            }
        }
        round += 1;
    }
    let elapsed = epoch.elapsed().as_secs_f64();
    let steal = match (steal_start, pin::steal_ns(cpu)) {
        (Some(a), Some(b)) => format!("{:.2}s", b.saturating_sub(a) as f64 / 1e9),
        _ => "unknown".into(),
    };
    eprintln!(
        "{}: {} untraced, {} traced and {} heap rounds in {elapsed:.1}s on CPU {cpu} \
         (steal {steal}); {resends} submissions re-submitted after their deadline, \
         {stranded} of them never answered",
        args.workload.name(),
        plain.len(),
        traced.len(),
        heap_rounds.len(),
    );
    let metrics = if args.trace {
        if let Some(dir) = &args.span_dir {
            let path = dir.join(format!(
                "spans-{}-seed{}.jsonl",
                args.workload.name(),
                args.seed
            ));
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| spans.write_jsonl(&path)) {
                eprintln!("writing spans to {}: {e}", path.display());
            }
        }
        per_layer(&tally, overhead_pct(args.workload, &plain, &traced))
    } else {
        end_to_end(&plain, &heap_rounds)
    };
    Outcome {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("storebench: {e}");
            eprintln!(
                "usage: storebench --workload <kv_closed|log_contended> \
                 [--seed <n>] [--seconds <s>] [--trace <0|1>] [--span-dir <dir>]"
            );
            return ExitCode::from(2);
        }
    };
    let cpu = match pin::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("storebench: cannot pin to one CPU: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = run(&args, cpu);
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
