//! The `log_contended` workload: two threads append to one
//! [`ReplicatedLog`] with no store, service or engine in between, so the
//! time goes to per-slot consensus, the slot table and instance recycling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use mc_runtime::{ReplicatedLog, SharedMemory};
use rand::RngExt;

use crate::check::{check_slots, log_negative_control};
use crate::gen;
use crate::mem;
use crate::round::{
    quantile, tally_registers, trimmed_mean, ConsensusCounters, RoundResult, RoundSpec, Tally,
};
use crate::trace::{self, SpanName, Spans};

/// Appending threads; also the log's `n`.
const THREADS: usize = 2;
/// The store's value space: 1,024 batch codes plus the no-op.
const CODES: u64 = 1025;
/// Appends each thread makes per round.
const APPENDS: usize = 5_000;
/// Appends the set-up makes from one thread before the contended part.
const PRELOAD: usize = 1024;
/// Each thread compacts the log after this many of its own appends.
const COMPACT_EVERY: usize = 1024;

/// Thread `t` appends codes from its own half of `1..CODES`, so the two
/// threads never append the same command and a slot's winner is known.
fn code_range(t: usize) -> std::ops::Range<u64> {
    let half = (CODES - 1) / THREADS as u64;
    1 + t as u64 * half..1 + (t as u64 + 1) * half
}

/// What one appending thread brings back. The buffers are allocated before
/// set-up, so that they do not count as the log's memory.
struct ThreadRun {
    slots: Vec<usize>,
    append_ns: Vec<u64>,
    get_ns: Vec<u64>,
    mismatches: u64,
    cpu_ns: u64,
    spans: Spans,
}

impl ThreadRun {
    fn new(appends: usize, spans: Spans) -> ThreadRun {
        ThreadRun {
            slots: Vec::with_capacity(appends),
            append_ns: Vec::with_capacity(appends),
            get_ns: Vec::with_capacity(appends),
            mismatches: 0,
            cpu_ns: 0,
            spans,
        }
    }
}

/// Appends `codes` in order, checking after each append that the log holds
/// the command at the returned slot. `floors` publishes, per thread, a
/// slot below which the thread will read nothing more; every thread
/// compacts below the lowest floor.
fn append_all<M: SharedMemory>(
    log: &ReplicatedLog<M>,
    t: usize,
    codes: &[u64],
    mut rng: rand::rngs::SmallRng,
    floors: &[AtomicUsize],
    barrier: &Barrier,
    mut run: ThreadRun,
) -> ThreadRun {
    barrier.wait();
    let cpu_start = trace::own_cpu_ns();
    for (i, &code) in codes.iter().enumerate() {
        let start = Instant::now();
        let slot = log.append(code, &mut rng);
        let end = run
            .spans
            .record(SpanName::Append, None, ((t as u64) << 32) | i as u64, start);
        let held = log.get(slot);
        let got = Instant::now();
        run.append_ns
            .push(end.duration_since(start).as_nanos() as u64);
        run.get_ns.push(got.duration_since(end).as_nanos() as u64);
        if held != Some(code) {
            run.mismatches += 1;
        }
        run.slots.push(slot);
        // Every later append of this thread lands above `slot`.
        floors[t].store(slot + 1, Ordering::Release);
        if (i + 1) % COMPACT_EVERY == 0 {
            let floor = floors.iter().map(|f| f.load(Ordering::Acquire)).min();
            log.compact_below(floor.unwrap_or(0));
        }
    }
    run.cpu_ns = trace::own_cpu_ns().saturating_sub(cpu_start);
    run
}

/// One `log_contended` round: set-up builds the log and appends
/// [`PRELOAD`] commands from one thread; then [`THREADS`] threads each
/// append [`APPENDS`] commands at once.
pub fn log_round<M: SharedMemory>(memory: M, spec: RoundSpec) -> Result<RoundResult, String> {
    let scripts: Vec<(Vec<u64>, rand::rngs::SmallRng)> = (0..THREADS)
        .map(|t| {
            let mut rng = gen::rng(spec.seed, spec.round, 20 + t as u64);
            let codes = (0..APPENDS)
                .map(|_| rng.random_range(code_range(t)))
                .collect();
            (codes, rng)
        })
        .collect();
    let mut preload_rng = gen::rng(spec.seed, spec.round, 19);
    let runs: Vec<ThreadRun> = (0..THREADS)
        .map(|t| ThreadRun::new(APPENDS, spec.spans(t as u32 + 1)))
        .collect();

    if spec.heap {
        mem::start();
    }
    let setup_start = Instant::now();
    let log = ReplicatedLog::new_in(memory, THREADS, CODES);
    let mut slots: Vec<usize> = (0..PRELOAD)
        .map(|i| log.append(1 + (i as u64 % (CODES - 1)), &mut preload_rng))
        .collect();
    let setup_s = setup_start.elapsed().as_secs_f64();

    let counters = ConsensusCounters::read(log.telemetry());
    let (appends, conflicts) = (log.telemetry().appends(), log.telemetry().slot_conflicts());
    let registers = trace::register_counts();
    let floors: Vec<AtomicUsize> = (0..THREADS).map(|_| AtomicUsize::new(PRELOAD)).collect();
    let barrier = Barrier::new(THREADS + 1);
    let (runs, elapsed) = std::thread::scope(|scope| {
        let threads: Vec<_> = scripts
            .into_iter()
            .zip(runs)
            .enumerate()
            .map(|(t, ((codes, rng), run))| {
                let (log, floors, barrier) = (&log, &floors, &barrier);
                std::thread::Builder::new()
                    .name(format!("bench-client-{t}"))
                    .spawn_scoped(scope, move || {
                        append_all(log, t, &codes, rng, floors, barrier, run)
                    })
                    .expect("spawn appending thread")
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let runs: Vec<ThreadRun> = threads
            .into_iter()
            .map(|t| t.join().expect("appending thread panicked"))
            .collect();
        (runs, start.elapsed().as_secs_f64())
    });
    let peak_heap_mb = if spec.heap { mem::stop() } else { 0.0 };

    let mut spans = spec.spans(0);
    let mut append_ns = Vec::with_capacity(THREADS * APPENDS);
    let mut get_ns = Vec::with_capacity(THREADS * APPENDS);
    let mut mismatches = 0;
    let mut tally = Tally::default();
    for run in runs {
        slots.extend(run.slots);
        append_ns.extend(run.append_ns);
        get_ns.extend(run.get_ns);
        mismatches += run.mismatches;
        tally.add("cpu.client_ns", run.cpu_ns as f64);
        spans.absorb(run.spans);
    }
    if mismatches > 0 {
        return Err(format!(
            "{mismatches} appends were not readable at their slot on return"
        ));
    }
    if spec.control && log_negative_control(&slots) {
        return Err("the checker accepted a slot returned twice".into());
    }
    check_slots(&mut slots, log.learned_prefix())?;
    if spec.traced {
        let telemetry = log.telemetry();
        ConsensusCounters::read(telemetry).tally_since(
            &counters,
            ["log.pool_hits", "log.pool_misses"],
            &mut tally,
        );
        tally_registers(registers, trace::register_counts(), &mut tally);
        let (count, ns) = spans.total(SpanName::Append);
        tally.add("span.append_ns", ns as f64);
        tally.add("span.appends", count as f64);
        tally.add(
            "log.appends",
            telemetry.appends().saturating_sub(appends) as f64,
        );
        tally.add(
            "log.slot_conflicts",
            telemetry.slot_conflicts().saturating_sub(conflicts) as f64,
        );
        tally.add("client.ops", (THREADS * APPENDS) as f64);
        tally.add("rounds", 1.0);
    }
    let total = (THREADS * APPENDS) as u64;
    Ok(RoundResult {
        setup_s,
        ops_per_s: total as f64 / elapsed,
        op_p50_us: quantile(&mut append_ns, 0.50) / 1e3,
        op_p99_us: quantile(&mut append_ns, 0.99) / 1e3,
        read_mean_ns: trimmed_mean(&mut get_ns),
        peak_heap_mb,
        attempted: total,
        failed: 0,
        resends: 0,
        stranded: 0,
        tally,
        spans,
    })
}
