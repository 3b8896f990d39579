//! The four workloads. Each drives the cluster only through public
//! client calls, from at most two load threads that each own one
//! client, and checks what the cluster returns.

pub mod dag_tasks;
pub mod kv_ingest;
pub mod kv_state;
pub mod shuffle;

use std::time::{Duration, Instant};

use jiffy_client::JiffyClient;
use jiffy_proto::Envelope;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::env::{Env, Shape};
use crate::tally::Tally;

/// Load threads: the two cores of the host the benchmark was sized on.
pub const LOAD_THREADS: usize = 2;

pub trait Workload: Sync {
    fn shape(&self) -> Shape;

    /// Loads what the timed phase starts from into a freshly booted
    /// cluster. Part of set-up, so it runs once per set-up.
    fn prepare(&mut self, env: &Env) -> Result<(), String>;

    /// The clients the load threads use, one each; `prepare` makes them.
    fn clients(&self) -> Vec<JiffyClient>;

    /// Runs jobs until `stop`, finishing the job in hand.
    fn run(&self, env: &Env, stop: Stop) -> Outcome;

    /// Runs before the first timed op, as the last part of set-up, so
    /// connections, caches and allocations are warm when timing starts.
    fn warm_up(&self, env: &Env) {
        self.run(env, Stop::Jobs(1));
    }

    /// The latency compared between traced and untraced stretches to
    /// estimate tracing overhead.
    fn primary(&self) -> Primary;

    /// The envelope that dominates the workload's traffic, for the
    /// codec probe.
    fn envelope(&self) -> Envelope;
}

/// When a load thread stops starting jobs.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    At(Instant),
    /// After this many jobs per load thread.
    Jobs(u64),
}

impl Stop {
    pub fn more(self, done: u64) -> bool {
        match self {
            Self::At(t) => Instant::now() < t,
            Self::Jobs(n) => done < n,
        }
    }
}

/// Which latency samples estimate tracing overhead.
#[derive(Debug, Clone, Copy)]
pub enum Primary {
    Reads,
    Writes,
    Tasks,
}

/// What the timed phase did.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub elapsed: Duration,
    /// Jobs finished, and tasks within them (one per job, except in
    /// `dag_tasks`).
    pub jobs: u64,
    pub tasks: u64,
    /// Peak bytes of allocated blocks over peak live user bytes.
    pub alloc_per_live: f64,
    pub peak_blocks: u64,
    /// Blocks still allocated at the workload's low point.
    pub idle_blocks: f64,
    /// Per-job details for the readable report.
    pub notes: Vec<String>,
}

pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "kv_state" => Box::new(kv_state::KvState::new(seed)),
        "kv_ingest" => Box::new(kv_ingest::KvIngest::new(seed)),
        "shuffle" => Box::new(shuffle::Shuffle::new(seed)),
        "dag_tasks" => Box::new(dag_tasks::DagTasks::new(seed)),
        _ => return None,
    })
}

/// SplitMix64 finalizer: mixes a seed and coordinates into one word.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seeded random bytes from which every payload is cut, so a reader
/// can recompute what a writer sent from a few coordinates.
pub struct Pool(Vec<u8>);

impl Pool {
    const LEN: usize = 1 << 20;

    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self((0..Self::LEN).map(|_| rng.random::<u8>()).collect())
    }

    /// `len` bytes at an offset chosen by `key`.
    pub fn slice(&self, key: u64, len: usize) -> &[u8] {
        assert!(len < Self::LEN, "payload larger than the pool");
        let at = (mix(key) % (Self::LEN - len) as u64) as usize;
        &self.0[at..at + len]
    }
}

/// Median of per-job ratios, or of whatever samples a workload keeps.
pub fn median_of(mut v: Vec<f64>) -> f64 {
    crate::stats::median(&mut v).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_slices_repeat_per_seed_and_key() {
        let (a, b) = (Pool::new(1), Pool::new(1));
        assert_eq!(a.slice(9, 4096), b.slice(9, 4096));
        assert_ne!(a.slice(9, 4096), a.slice(10, 4096));
        assert_ne!(a.slice(9, 64), Pool::new(2).slice(9, 64));
    }
}
