//! Seeded inputs. Every round draws from its own stream, a pure function
//! of the run's `--seed`, the round number and the stream number, so the
//! same seed gives the same inputs however many rounds a run completes.

use mc_store::KvCommand;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Keys in the KV workloads; the set-up writes each one once.
pub const KEYS: u64 = 1024;
/// Exponent of the zipf distribution keys are drawn from.
pub const ZIPF_EXPONENT: f64 = 1.0;

/// The generator for `stream` of `round` under `seed`.
pub fn rng(seed: u64, round: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(
        seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ stream.wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
    )
}

/// Zipfian sampler over `0..keys` from a precomputed CDF; key 0 is the
/// hottest.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(keys: u64, exponent: f64) -> Zipf {
        let mut cdf: Vec<f64> = (1..=keys)
            .scan(0.0, |total, i| {
                *total += 1.0 / (i as f64).powf(exponent);
                Some(*total)
            })
            .collect();
        let total = *cdf.last().expect("at least one key");
        cdf.iter_mut().for_each(|c| *c /= total);
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        let u = rng.random_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64
    }
}

/// The value the set-up writes to `key`: stream 0 of [`Values`].
pub fn preload_value(key: u64) -> u64 {
    key + 1
}

/// Write values unique within a round: the stream number in the high bits,
/// a per-stream counter below.
pub struct Values {
    next: u64,
}

impl Values {
    pub fn new(stream: u64) -> Values {
        Values { next: stream << 40 }
    }

    pub fn next(&mut self) -> u64 {
        self.next += 1;
        self.next
    }
}

/// One command of the mix: 50% Get, 35% Put, 10% Cas, 5% Delete, on a
/// zipfian key. A `Cas` expects the value this stream last wrote to the key
/// (`seen`, starting from the set-up's values), so it succeeds unless
/// another write came in between.
pub struct Mix {
    zipf: Zipf,
    seen: Vec<Option<u64>>,
}

impl Mix {
    pub fn new() -> Mix {
        Mix {
            zipf: Zipf::new(KEYS, ZIPF_EXPONENT),
            seen: (0..KEYS).map(|k| Some(preload_value(k))).collect(),
        }
    }

    pub fn key(&self, rng: &mut SmallRng) -> u64 {
        self.zipf.sample(rng)
    }

    pub fn command(&mut self, rng: &mut SmallRng, values: &mut Values) -> KvCommand {
        let key = self.key(rng);
        let seen = &mut self.seen[key as usize];
        match rng.random_range(0u32..100) {
            0..=49 => KvCommand::Get { key },
            50..=84 => {
                let value = values.next();
                *seen = Some(value);
                KvCommand::Put { key, value }
            }
            85..=94 => {
                let value = values.next();
                let expect = seen.replace(value);
                KvCommand::Cas { key, expect, value }
            }
            _ => {
                *seen = None;
                KvCommand::Delete { key }
            }
        }
    }
}
