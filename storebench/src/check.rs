//! Output checks computed apart from the program: per-key write chains for
//! the KV workloads and slot coverage for the log workload.

use std::collections::{HashMap, HashSet};

use mc_store::{KvCommand, KvResponse};

/// What the benchmark saw of one KV round, in submission order per stream.
/// Every write carries a value no other write in the round uses.
#[derive(Debug, Default, Clone)]
pub struct KvHistory {
    /// Logged commands with their responses (`None`: never answered).
    pub ops: Vec<(KvCommand, Option<KvResponse>)>,
    /// Lease reads: key and value returned.
    pub reads: Vec<(u64, Option<u64>)>,
    /// Every key's value at the end of the round, read from the store.
    pub finals: Vec<(u64, Option<u64>)>,
}

/// A key's history as the checker links it.
#[derive(Default)]
struct KeyChain {
    /// Values installed by writes that took effect.
    written: Vec<u64>,
    /// Installed values whose previous value was ⊥.
    starts: Vec<u64>,
    /// Deletes that removed a value.
    removals: usize,
}

/// Checks a KV history against the sequential KV semantics:
///
/// - every response has its command's kind, and a `Cas` applied exactly
///   when the value it found equalled the one it expected;
/// - write values are distinct, so each value has one writer, and each
///   value is replaced by at most one later write or delete;
/// - per key, the writes link into chains that leave ⊥ and, except for at
///   most one, return to it through a delete; the open one ends at the
///   final value, and every write lies on a chain;
/// - every value a command or read returns (the value a write replaced, a
///   `Get`, a failed `Cas`, a lease read, a final value) is ⊥ or a value
///   some answered write to that key installed — not one of a `Cas` that
///   did not apply.
pub fn check_kv(history: &KvHistory) -> Result<(), String> {
    // Every write command's value must be distinct, whether or not it took
    // effect; a repeated value would make the history uncheckable.
    let mut values: HashSet<u64> = HashSet::new();
    // value -> key for the writes that took effect.
    let mut installed: HashMap<u64, u64> = HashMap::new();
    for (command, response) in &history.ops {
        if let KvCommand::Put { key, value } | KvCommand::Cas { key, value, .. } = *command {
            if !values.insert(value) {
                return Err(format!("write value {value} is not distinct"));
            }
            if let Some(KvResponse::Stored(_) | KvResponse::Swapped { applied: true, .. }) =
                response
            {
                installed.insert(value, key);
            }
        }
    }
    let written_to = |key: u64, value: Option<u64>| match value {
        None => true,
        Some(v) => installed.get(&v) == Some(&key),
    };
    let mut chains: HashMap<u64, KeyChain> = HashMap::new();
    // value -> the value that replaced it (None: a delete).
    let mut successor: HashMap<u64, Option<u64>> = HashMap::new();
    let mut replace = |old: u64, new: Option<u64>| -> Result<(), String> {
        match successor.insert(old, new) {
            Some(_) => Err(format!("value {old} was replaced twice")),
            None => Ok(()),
        }
    };
    for (command, response) in &history.ops {
        let Some(response) = response else { continue };
        let (key, prev, installed) = match (*command, *response) {
            (KvCommand::Get { key }, KvResponse::Value(v)) => (key, v, None),
            (KvCommand::Put { key, value }, KvResponse::Stored(prev)) => (key, prev, Some(value)),
            (KvCommand::Cas { key, expect, value }, KvResponse::Swapped { applied, actual }) => {
                if applied != (actual == expect) {
                    return Err(format!(
                        "Cas on key {key} expecting {expect:?} found {actual:?} but applied={applied}"
                    ));
                }
                (key, actual, applied.then_some(value))
            }
            (KvCommand::Delete { key }, KvResponse::Removed(prev)) => {
                if let Some(old) = prev {
                    replace(old, None)?;
                    chains.entry(key).or_default().removals += 1;
                }
                (key, prev, None)
            }
            (command, response) => {
                return Err(format!("{command:?} answered with {response:?}"));
            }
        };
        if !written_to(key, prev) {
            return Err(format!(
                "key {key} returned {prev:?}, which no write to it installed"
            ));
        }
        if let Some(value) = installed {
            let chain = chains.entry(key).or_default();
            chain.written.push(value);
            match prev {
                None => chain.starts.push(value),
                Some(old) => replace(old, Some(value))?,
            }
        }
    }
    for &(key, value) in &history.reads {
        if !written_to(key, value) {
            return Err(format!(
                "lease read of key {key} returned {value:?}, which no write to it installed"
            ));
        }
    }
    let finals: HashMap<u64, Option<u64>> = history.finals.iter().copied().collect();
    for (key, chain) in &chains {
        let last = finals.get(key).copied().flatten();
        if !written_to(*key, last) {
            return Err(format!(
                "key {key} ends at {last:?}, which no write to it installed"
            ));
        }
        let open = usize::from(last.is_some());
        if chain.starts.len() != chain.removals + open {
            return Err(format!(
                "key {key}: {} writes left ⊥ but {} deletes returned to it and the final value is {last:?}",
                chain.starts.len(),
                chain.removals
            ));
        }
        let mut linked = 0usize;
        let mut open_ends = Vec::new();
        for &start in &chain.starts {
            let mut value = start;
            linked += 1;
            loop {
                match successor.get(&value) {
                    Some(Some(next)) => {
                        value = *next;
                        linked += 1;
                        if linked > chain.written.len() {
                            return Err(format!("key {key}: write chain loops"));
                        }
                    }
                    Some(None) => break,
                    None => {
                        open_ends.push(value);
                        break;
                    }
                }
            }
        }
        if linked != chain.written.len() {
            return Err(format!(
                "key {key}: {linked} of {} writes lie on a chain from ⊥",
                chain.written.len()
            ));
        }
        if open_ends[..] != *last.as_slice() {
            return Err(format!(
                "key {key}: chains end at {open_ends:?} but the final value is {last:?}"
            ));
        }
    }
    for (key, last) in &finals {
        if last.is_some() && !chains.contains_key(key) {
            return Err(format!("key {key} holds {last:?} but was never written"));
        }
    }
    Ok(())
}

/// Checks the log workload's slots: the slots `append` returned are
/// distinct and cover exactly `0..total`, and the log's learned prefix is
/// `total`.
pub fn check_slots(slots: &mut [usize], learned_prefix: usize) -> Result<(), String> {
    slots.sort_unstable();
    for (expected, &slot) in slots.iter().enumerate() {
        if slot != expected {
            return Err(format!(
                "append slots are not exactly 0..{}: found {slot} at position {expected}",
                slots.len()
            ));
        }
    }
    if learned_prefix != slots.len() {
        return Err(format!(
            "learned prefix {learned_prefix} after {} appends",
            slots.len()
        ));
    }
    Ok(())
}

/// Corrupts a checked-good KV history in ways that must be rejected: a read
/// of a value never written, a read of the value of a `Cas` that did not
/// apply (when the history has one with a `Get` on its key), a write
/// claiming to replace nothing, and two writes on different keys each
/// claiming the other's replaced value. Each corruption is undone before
/// the next. Returns the name of a corruption the checker accepted, if any.
pub fn kv_negative_control(history: &mut KvHistory) -> Option<&'static str> {
    let ops = &history.ops;
    let replacing_put = |ix: usize| match ops[ix] {
        (KvCommand::Put { key, .. }, Some(KvResponse::Stored(Some(_)))) => Some(key),
        _ => None,
    };
    // Each corruption: a name, and the responses to overwrite by index.
    type Edits = Vec<(usize, Option<KvResponse>)>;
    let mut corruptions: Vec<(&'static str, Edits)> = Vec::new();
    if let Some(get) =
        (0..ops.len()).find(|&ix| matches!(ops[ix], (KvCommand::Get { .. }, Some(_))))
    {
        let phantom = Some(KvResponse::Value(Some(u64::MAX - 1)));
        corruptions.push(("Get of a value never written", vec![(get, phantom)]));
    }
    let failed_cas = ops.iter().find_map(|op| match *op {
        (KvCommand::Cas { key, value, .. }, Some(KvResponse::Swapped { applied: false, .. })) => {
            Some((key, value))
        }
        _ => None,
    });
    if let Some((key, value)) = failed_cas {
        if let Some(get) = (0..ops.len())
            .find(|&ix| matches!(ops[ix], (KvCommand::Get { key: k }, Some(_)) if k == key))
        {
            let unapplied = Some(KvResponse::Value(Some(value)));
            corruptions.push(("Get of a failed Cas's value", vec![(get, unapplied)]));
        }
    }
    if let Some(a) = (0..ops.len()).find(|&ix| replacing_put(ix).is_some()) {
        let unlinked = Some(KvResponse::Stored(None));
        corruptions.push(("Put claiming the key was empty", vec![(a, unlinked)]));
        if let Some(b) = (0..ops.len())
            .find(|&ix| replacing_put(ix).is_some_and(|k| Some(k) != replacing_put(a)))
        {
            let swapped = vec![(a, ops[b].1), (b, ops[a].1)];
            corruptions.push(("Puts on two keys with swapped replaced values", swapped));
        }
    }
    for (name, edits) in corruptions {
        let originals: Vec<(usize, Option<KvResponse>)> = edits
            .iter()
            .map(|&(ix, _)| (ix, history.ops[ix].1))
            .collect();
        for (ix, response) in edits {
            history.ops[ix].1 = response;
        }
        let accepted = check_kv(history).is_ok();
        for (ix, response) in originals {
            history.ops[ix].1 = response;
        }
        if accepted {
            return Some(name);
        }
    }
    None
}

/// Corrupts checked-good log slots (one slot returned twice) and returns
/// whether the checker wrongly accepted them.
pub fn log_negative_control(good: &[usize]) -> bool {
    let mut slots = good.to_vec();
    if slots.len() < 2 {
        return false;
    }
    slots[1] = slots[0];
    check_slots(&mut slots, good.len()).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_store::{KvStore, StateMachine};

    /// Applies `commands` in order to the reference machine.
    fn sequential(commands: &[KvCommand]) -> KvHistory {
        let mut kv = KvStore::new();
        let ops = commands.iter().map(|c| (*c, Some(kv.apply(c)))).collect();
        let finals = (0..4).map(|k| (k, kv.get(k))).collect();
        KvHistory {
            ops,
            reads: vec![(1, kv.get(1))],
            finals,
        }
    }

    fn sample() -> Vec<KvCommand> {
        vec![
            KvCommand::Put { key: 1, value: 10 },
            KvCommand::Get { key: 1 },
            KvCommand::Put { key: 1, value: 11 },
            KvCommand::Delete { key: 1 },
            KvCommand::Delete { key: 1 },
            KvCommand::Cas {
                key: 1,
                expect: None,
                value: 12,
            },
            KvCommand::Cas {
                key: 1,
                expect: Some(99),
                value: 13,
            },
            KvCommand::Put { key: 2, value: 20 },
            KvCommand::Put { key: 2, value: 21 },
            KvCommand::Get { key: 3 },
        ]
    }

    #[test]
    fn sequential_histories_pass() {
        assert_eq!(check_kv(&sequential(&sample())), Ok(()));
    }

    #[test]
    fn corrupted_histories_are_rejected() {
        let mut good = sequential(&sample());
        assert_eq!(kv_negative_control(&mut good), None);
        assert_eq!(check_kv(&good), Ok(()), "the control restores the history");
        let mut lost = sequential(&sample());
        lost.finals[2].1 = Some(20);
        assert!(
            check_kv(&lost).is_err(),
            "final value behind the last write"
        );
        let mut unapplied = sequential(&sample());
        unapplied.ops[1].1 = Some(KvResponse::Value(Some(13)));
        assert!(
            check_kv(&unapplied).is_err(),
            "Get of the value of the Cas that did not apply"
        );
    }

    #[test]
    fn slot_checks() {
        let mut slots = vec![2, 0, 1];
        assert_eq!(check_slots(&mut slots, 3), Ok(()));
        assert!(check_slots(&mut [0, 2], 3).is_err());
        assert!(check_slots(&mut [0, 1], 3).is_err());
        assert!(!log_negative_control(&[0, 1, 2]));
    }
}
