//! The store workload, `kv_closed`. Each round builds a store with its
//! default builder options, preloads every key, runs a fixed amount of
//! work, and checks every response.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use mc_runtime::SharedMemory;
use mc_store::{CommandHandle, KvCommand, KvResponse, KvStore, ReplicatedStore, StoreError};
use rand::rngs::SmallRng;

use crate::check::{check_kv, kv_negative_control, KvHistory};
use crate::gen::{self, Mix, Values, KEYS};
use crate::mem;
use crate::round::{
    quantile, tally_registers, trimmed_mean, ConsensusCounters, RoundResult, RoundSpec, Tally,
};
use crate::trace::{self, SpanName, Spans};

/// Calls each `kv_closed` client makes per round, each followed by a read.
const CLOSED_CALLS: usize = 1_000;
/// Calls each parking client makes per traced `kv_closed` round.
const PARKED_CALLS: usize = 1_000;
/// Clients in `kv_closed`.
const CLOSED_CLIENTS: u64 = 2;
/// How long one wait for a response may take before the command is
/// re-submitted under the same session and sequence number: far above a
/// call's p99 (about 0.6 ms), so only a command that will never be
/// answered pays it.
const DEADLINE: Duration = Duration::from_millis(20);
/// How long a `kv_closed` client polls its handle before parking on it.
/// A parked client lets the vCPU halt when every thread waits, and on a
/// virtual machine waking a halted vCPU costs the host's scheduling delay;
/// polling keeps the figures the store's own.
const POLL: Duration = Duration::from_millis(1);
/// Submissions of one command before it counts as failed.
const ATTEMPTS: u32 = 10;
/// Client id of the lease reads that are not tied to a session.
const READER: u64 = 0;
/// Client ids of the `kv_closed` sessions start here (the preload uses
/// 1..=KEYS).
const CLOSED_CLIENT_BASE: u64 = 1 << 32;

type Store<M> = ReplicatedStore<KvStore, M>;

fn build<M: SharedMemory>(memory: M) -> Store<M> {
    ReplicatedStore::<KvStore>::builder().memory(memory).build()
}

/// Waits for `handle`, polling for up to `poll` and then parking until
/// [`DEADLINE`]; past the deadline it re-submits through `resend`, at most
/// [`ATTEMPTS`] submissions in all, and keeps each overtaken handle in
/// `overtaken` for [`count_stranded`].
fn settle(
    mut handle: CommandHandle<KvResponse>,
    mut resend: impl FnMut() -> CommandHandle<KvResponse>,
    poll: Duration,
    spans: &mut Spans,
    request: u64,
    overtaken: &mut Vec<CommandHandle<KvResponse>>,
) -> Result<KvResponse, StoreError> {
    let mut attempt = 1;
    loop {
        let start = Instant::now();
        let result = loop {
            if let Some(result) = handle.poll() {
                break result;
            }
            let waited = start.elapsed();
            if waited >= poll {
                break handle.wait_timeout(DEADLINE.saturating_sub(waited));
            }
            std::thread::yield_now();
        };
        spans.record(SpanName::Wait, Some(SpanName::Call), request, start);
        match result {
            Err(StoreError::Timeout) if attempt < ATTEMPTS => {
                attempt += 1;
                overtaken.push(std::mem::replace(&mut handle, resend()));
            }
            other => return other,
        }
    }
}

/// Submissions overtaken by a re-submission that were never answered: the
/// store dropped them. One that was only slow is answered by the time its
/// re-submission is — applied, or served from the session cache, or
/// refused as stale — so the one [`DEADLINE`] shared by the waits here
/// only covers a submission still in flight when the round ends.
fn count_stranded(overtaken: &[CommandHandle<KvResponse>]) -> u64 {
    let deadline = Instant::now() + DEADLINE;
    overtaken
        .iter()
        .filter(|h| {
            let left = deadline.saturating_duration_since(Instant::now());
            matches!(h.wait_timeout(left), Err(StoreError::Timeout))
        })
        .count() as u64
}

/// Builds a store and writes every key once, each from its own session,
/// waiting until all are applied. Returns the store and the preload's part
/// of the history.
fn set_up<M: SharedMemory>(
    memory: M,
    overtaken: &mut Vec<CommandHandle<KvResponse>>,
) -> Result<(Store<M>, KvHistory), String> {
    let store = build(memory);
    let items: Vec<(u64, u64, KvCommand)> = (0..KEYS)
        .map(|key| {
            let value = gen::preload_value(key);
            (1 + key, 1, KvCommand::Put { key, value })
        })
        .collect();
    let handles = store.submit_batch(items.iter().copied());
    let mut history = KvHistory::default();
    let mut off = Spans::new(false, 0, Instant::now());
    for (&(client, seq, command), handle) in items.iter().zip(handles) {
        let response = settle(
            handle,
            || store.submit(client, seq, command),
            POLL,
            &mut off,
            0,
            overtaken,
        )
        .map_err(|e| format!("preload of {command:?} failed: {e}"))?;
        history.ops.push((command, Some(response)));
    }
    Ok((store, history))
}

/// Store-side readings taken just before the timed work, so the traced
/// figures leave the preload out.
struct Before {
    consensus: ConsensusCounters,
    registers: [u64; 4],
    threads: Vec<(u64, String, u64)>,
    enqueued: u64,
    drained: u64,
    service_wait_ns: u64,
    service_waits: u64,
    applied: u64,
    slots: u64,
    leases: u64,
    fast_reads: u64,
}

impl Before {
    fn read<M: SharedMemory>(store: &Store<M>) -> Before {
        let t = store.telemetry();
        Before {
            consensus: ConsensusCounters::read(t),
            registers: trace::register_counts(),
            threads: trace::thread_cpu(),
            enqueued: t.proposals_enqueued(),
            drained: t.batches_drained(),
            service_wait_ns: t.service_wait_ns().sum(),
            service_waits: t.service_wait_ns().count(),
            applied: t.commands_applied(),
            slots: store.learned_slots() as u64,
            leases: t.lease_grants(),
            fast_reads: t.fast_reads(),
        }
    }
}

/// Ends a round: reads every key's final value, counts the stranded
/// submissions among `overtaken`, shuts the store down, and checks the
/// ledger and the history. When `before` is given (a traced round), also
/// adds the store's per-layer sums to `tally`. Returns the stranded count.
fn finish<M: SharedMemory>(
    mut store: Store<M>,
    history: &mut KvHistory,
    sessions: u64,
    overtaken: &[CommandHandle<KvResponse>],
    before: Option<Before>,
    tally: &mut Tally,
    control: bool,
) -> Result<u64, String> {
    let threads = before.as_ref().map(|_| trace::thread_cpu());
    history.finals = store.read_with(READER, |kv| (0..KEYS).map(|k| (k, kv.get(k))).collect());
    let stranded = count_stranded(overtaken);
    store.shutdown();
    let t = store.telemetry();
    let answered = history.ops.iter().filter(|(_, r)| r.is_some()).count() as u64;
    if t.commands_applied() != answered {
        return Err(format!(
            "the store applied {} commands but answered {answered}",
            t.commands_applied()
        ));
    }
    if t.sessions_created() != sessions {
        return Err(format!(
            "the store created {} sessions for {sessions} distinct clients",
            t.sessions_created()
        ));
    }
    if let (Some(before), Some(after)) = (before, threads) {
        let d = |now: u64, then: u64| now.saturating_sub(then) as f64;
        ConsensusCounters::read(t).tally_since(
            &before.consensus,
            ["engine.pool_hits", "engine.pool_misses"],
            tally,
        );
        tally_registers(before.registers, trace::register_counts(), tally);
        tally.add("store.applied", d(t.commands_applied(), before.applied));
        tally.add("store.slots", d(store.learned_slots() as u64, before.slots));
        tally.add("store.lease_grants", d(t.lease_grants(), before.leases));
        tally.add("store.fast_reads", d(t.fast_reads(), before.fast_reads));
        tally.add("store.sessions_created", t.sessions_created() as f64);
        tally.add("store.snapshots", t.store_snapshots() as f64);
        tally.add("store.resends", overtaken.len() as f64);
        tally.add("store.stranded", stranded as f64);
        tally.add(
            "service.enqueued",
            d(t.proposals_enqueued(), before.enqueued),
        );
        tally.add("service.drains", d(t.batches_drained(), before.drained));
        tally.add(
            "service.wait_ns",
            d(t.service_wait_ns().sum(), before.service_wait_ns),
        );
        tally.add(
            "service.waits",
            d(t.service_wait_ns().count(), before.service_waits),
        );
        tally.max("max.service.queue_depth", t.max_queue_depth_seen() as f64);
        let cpu = |prefix| trace::cpu_between(&before.threads, &after, prefix) as f64;
        tally.add("cpu.apply_ns", cpu("mc-store-apply"));
        tally.add("cpu.sequencer_ns", cpu("mc-store-seq-"));
        tally.add("cpu.service_ns", cpu("mc-service-"));
        tally.add("rounds", 1.0);
    }
    // The checker's tables are large too; free the store first.
    drop(store);
    check_kv(history)?;
    if control {
        if let Some(accepted) = kv_negative_control(history) {
            return Err(format!(
                "the checker accepted a corrupted history: {accepted}"
            ));
        }
    }
    Ok(stranded)
}

/// What one `kv_closed` client brings back. The buffers are allocated
/// before set-up, so that they do not count as the store's memory.
struct ClientRun {
    ops: Vec<(KvCommand, Option<KvResponse>)>,
    reads: Vec<(u64, Option<u64>)>,
    call_ns: Vec<u64>,
    read_ns: Vec<u64>,
    failed: u64,
    overtaken: Vec<CommandHandle<KvResponse>>,
    cpu_ns: u64,
    spans: Spans,
}

impl ClientRun {
    fn new(calls: usize, spans: Spans) -> ClientRun {
        ClientRun {
            ops: Vec::with_capacity(calls),
            reads: Vec::with_capacity(calls),
            call_ns: Vec::with_capacity(calls),
            read_ns: Vec::with_capacity(calls),
            failed: 0,
            overtaken: Vec::new(),
            cpu_ns: 0,
            spans,
        }
    }
}

/// One client's calls, each a command and the key of the lease read after
/// it, drawn from `stream`.
fn closed_script(seed: u64, round: u64, stream: u64, calls: usize) -> Vec<(KvCommand, u64)> {
    let mut rng: SmallRng = gen::rng(seed, round, stream);
    let mut mix = Mix::new();
    let mut values = Values::new(stream);
    (0..calls)
        .map(|_| {
            let command = mix.command(&mut rng, &mut values);
            (command, mix.key(&mut rng))
        })
        .collect()
}

/// Runs `script` through session `id`, each call followed by a lease read,
/// polling each response for up to `poll` before parking on it.
fn closed_client<M: SharedMemory>(
    store: &Store<M>,
    id: u64,
    script: &[(KvCommand, u64)],
    poll: Duration,
    barrier: &Barrier,
    mut run: ClientRun,
) -> ClientRun {
    let mut session = store.client_with_id(id);
    let c = id - CLOSED_CLIENT_BASE;
    barrier.wait();
    let cpu_start = trace::own_cpu_ns();
    for (i, &(command, key)) in script.iter().enumerate() {
        let request = (c << 32) | i as u64;
        let start = Instant::now();
        let handle = session.submit(command);
        run.spans
            .record(SpanName::Submit, Some(SpanName::Call), request, start);
        let seq = session.last_seq();
        let result = settle(
            handle,
            || session.resend(seq, command),
            poll,
            &mut run.spans,
            request,
            &mut run.overtaken,
        );
        let end = run.spans.record(SpanName::Call, None, request, start);
        match result {
            Ok(response) => {
                run.call_ns
                    .push(end.duration_since(start).as_nanos() as u64);
                run.ops.push((command, Some(response)));
            }
            Err(e) => {
                eprintln!("kv_closed: client {c} call {i} failed: {e}");
                run.failed += 1;
                run.ops.push((command, None));
            }
        }
        let value = session.read(|kv| kv.get(key));
        let done = run.spans.record(SpanName::Read, None, request, end);
        run.read_ns.push(done.duration_since(end).as_nanos() as u64);
        run.reads.push((key, value));
    }
    run.cpu_ns = trace::own_cpu_ns().saturating_sub(cpu_start);
    run
}

/// Runs one client thread per script at once, script `c` through session
/// `first_id + c`. Returns the clients' runs and the wall time from their
/// common start to the last one's end.
fn run_clients<M: SharedMemory>(
    store: &Store<M>,
    scripts: &[Vec<(KvCommand, u64)>],
    runs: Vec<ClientRun>,
    first_id: u64,
    poll: Duration,
) -> (Vec<ClientRun>, f64) {
    let barrier = Barrier::new(scripts.len() + 1);
    std::thread::scope(|scope| {
        let threads: Vec<_> = scripts
            .iter()
            .zip(runs)
            .enumerate()
            .map(|(c, (script, run))| {
                let barrier = &barrier;
                std::thread::Builder::new()
                    .name(format!("bench-client-{c}"))
                    .spawn_scoped(scope, move || {
                        closed_client(store, first_id + c as u64, script, poll, barrier, run)
                    })
                    .expect("spawn client thread")
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let runs: Vec<ClientRun> = threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect();
        (runs, start.elapsed().as_secs_f64())
    })
}

/// One `kv_closed` round: [`CLOSED_CLIENTS`] synchronous sessions, each
/// making [`CLOSED_CALLS`] calls, every call followed by a lease read. A
/// traced round first runs [`PARKED_CALLS`] calls per client from other
/// sessions whose clients park at once, as `StoreClient::call` does, so the
/// response cell's wake-up path is measured too.
pub fn closed_round<M: SharedMemory>(memory: M, spec: RoundSpec) -> Result<RoundResult, String> {
    let (seed, round, traced) = (spec.seed, spec.round, spec.traced);
    let mut spans = spec.spans(0);
    let scripts: Vec<_> = (0..CLOSED_CLIENTS)
        .map(|c| closed_script(seed, round, 3 + c, CLOSED_CALLS))
        .collect();
    let runs: Vec<ClientRun> = (0..CLOSED_CLIENTS)
        .map(|c| ClientRun::new(CLOSED_CALLS, spec.spans(c as u32 + 1)))
        .collect();

    let mut overtaken = Vec::new();
    if spec.heap {
        mem::start();
    }
    let setup_start = Instant::now();
    let (store, mut history) = set_up(memory, &mut overtaken)?;
    let setup_s = setup_start.elapsed().as_secs_f64();
    let mut sessions = KEYS + CLOSED_CLIENTS;
    let mut tally = Tally::default();
    if traced {
        let parked_scripts: Vec<_> = (0..CLOSED_CLIENTS)
            .map(|c| closed_script(seed, round, 3 + CLOSED_CLIENTS + c, PARKED_CALLS))
            .collect();
        let parked_runs = (0..CLOSED_CLIENTS)
            .map(|_| ClientRun::new(PARKED_CALLS, Spans::new(false, 0, spec.epoch)))
            .collect();
        let first_id = CLOSED_CLIENT_BASE + CLOSED_CLIENTS;
        let (parked, _) = run_clients(
            &store,
            &parked_scripts,
            parked_runs,
            first_id,
            Duration::ZERO,
        );
        sessions += CLOSED_CLIENTS;
        let mut call_ns = Vec::new();
        for run in parked {
            history.ops.extend(run.ops);
            history.reads.extend(run.reads);
            call_ns.extend(run.call_ns);
            overtaken.extend(run.overtaken);
            if run.failed > 0 {
                return Err(format!("{} parked calls were never answered", run.failed));
            }
        }
        tally.add("parked.call_p50_ns", quantile(&mut call_ns, 0.50));
    }
    let before = traced.then(|| Before::read(&store));

    let (runs, elapsed) = run_clients(&store, &scripts, runs, CLOSED_CLIENT_BASE, POLL);
    let peak_heap_mb = if spec.heap { mem::stop() } else { 0.0 };

    let mut call_ns = Vec::new();
    let mut read_ns = Vec::new();
    let mut failed = 0;
    for run in runs {
        history.ops.extend(run.ops);
        history.reads.extend(run.reads);
        call_ns.extend(run.call_ns);
        read_ns.extend(run.read_ns);
        failed += run.failed;
        overtaken.extend(run.overtaken);
        tally.add("cpu.client_ns", run.cpu_ns as f64);
        spans.absorb(run.spans);
    }
    if traced {
        let (calls, submit_ns) = spans.total(SpanName::Submit);
        tally.add("span.submit_ns", submit_ns as f64);
        tally.add("span.submitted", calls as f64);
        tally.add("span.wait_ns", spans.total(SpanName::Wait).1 as f64);
        tally.add("span.waited", calls as f64);
        tally.add(
            "client.ops",
            (2 * CLOSED_CALLS as u64 * CLOSED_CLIENTS) as f64,
        );
    }
    let stranded = finish(
        store,
        &mut history,
        sessions,
        &overtaken,
        before,
        &mut tally,
        spec.control,
    )?;
    let calls = CLOSED_CALLS as u64 * CLOSED_CLIENTS;
    Ok(RoundResult {
        setup_s,
        ops_per_s: calls as f64 / elapsed,
        op_p50_us: quantile(&mut call_ns, 0.50) / 1e3,
        op_p99_us: quantile(&mut call_ns, 0.99) / 1e3,
        read_mean_ns: trimmed_mean(&mut read_ns),
        peak_heap_mb,
        attempted: 2 * calls,
        failed,
        resends: overtaken.len() as u64,
        stranded,
        tally,
        spans,
    })
}
