//! `kv_ingest`: replicated, elastic writes. One closed-loop writer on
//! chain length 2 with 2 MiB blocks puts 8192 fresh 1 KiB values into a
//! KV that starts at one block, reading back a key stored earlier after
//! every fourth put and a sample once the store has grown, then deletes
//! every key, so the store splits (moving data) and merges every cycle.
//! It is the only workload with chain fan-down and data-moving
//! repartitioning while timed.
//!
//! Calls that return `Err` are counted and the cycle goes on; the
//! blocks the store holds at its peak and after the deletes are recorded
//! as measured.

use std::time::Instant;

use jiffy::{JiffyClient, KvClient};
use jiffy_common::{BlockId, ServerId, TenantId};
use jiffy_proto::{Blob, DataRequest, DsOp, Envelope, Replica, CLIENT_RID_BASE};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::{median_of, mix, Outcome, Pool, Primary, Stop, Workload};
use crate::env::{Env, Shape};
use crate::tally::{Class, Tally};

const BLOCK_SIZE: usize = 2 << 20;
const VALUE_LEN: usize = 1024;
const KEYS_PER_CYCLE: usize = 8192;
/// Puts per get of a key stored earlier in the cycle, so reads meet the
/// store while it splits and are spread over the whole timed phase.
const READ_EVERY: usize = 4;
/// Gets after each grow phase, on keys whose put succeeded.
const SAMPLE_GETS: usize = 256;
/// Puts between two samples of the allocated block count.
const SAMPLE_EVERY: usize = 256;
/// Seconds of the timed phase that buy one cycle. Each cycle leaves
/// more blocks behind than the last, so the block metrics depend on how
/// many cycles ran; a fixed count per `--seconds` keeps them comparable
/// between runs.
const SECONDS_PER_CYCLE: f64 = 3.3;
/// Keys put, read and deleted by the warm-up, each deleted before the
/// next is put. Set-up lasts a few hundred milliseconds, long enough
/// that a hiccup of the host does not decide `setup_s`.
const WARM_UP_KEYS: usize = 2048;

pub struct KvIngest {
    seed: u64,
    pool: Pool,
    state: Option<(JiffyClient, KvClient)>,
}

fn key(cycle: usize, i: usize) -> Vec<u8> {
    format!("c{cycle:05}-{i:05}").into_bytes()
}

impl KvIngest {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            pool: Pool::new(mix(seed ^ 0x1A6E_5700)),
            state: None,
        }
    }

    fn value(&self, cycle: usize, i: usize) -> &[u8] {
        self.pool
            .slice(((cycle as u64) << 32) | i as u64, VALUE_LEN)
    }
}

/// Per-cycle measurements.
struct Cycle {
    alloc_per_live: f64,
    peak_blocks: u64,
    idle_blocks: u64,
    failed: u64,
    splits: u64,
    merges: u64,
}

impl KvIngest {
    fn cycle(&self, env: &Env, kv: &KvClient, c: usize, t: &mut Tally) -> Cycle {
        let mut rng = StdRng::seed_from_u64(mix(self.seed ^ c as u64));
        let entry = (key(c, 0).len() + VALUE_LEN) as u64;
        let mut stored = vec![false; KEYS_PER_CYCLE];
        let (mut live, mut peak_live, mut peak_blocks) = (0u64, 0u64, 0u64);
        let mut bytes = 0u64;
        let failed = t.failed;
        let before = env.cluster.controller().stats();
        t.job("kv_ingest.cycle", |t| {
            // Gets a random key among those stored so far and checks it.
            let mut get = |t: &mut Tally, ok: &[usize], phase: &str| {
                let i = ok[rng.random_range(0..ok.len())];
                if let Some(got) = t.call("client.get", Class::Read, || kv.get(&key(c, i))) {
                    t.check(got.as_deref() == Some(self.value(c, i)), || {
                        format!(
                            "get c{c}-{i} {phase} returned {} bytes",
                            got.as_ref().map_or(0, Vec::len)
                        )
                    });
                    VALUE_LEN as u64
                } else {
                    0
                }
            };
            let mut ok = Vec::with_capacity(KEYS_PER_CYCLE);
            for i in 0..KEYS_PER_CYCLE {
                let v = self.value(c, i);
                if let Some(prev) = t.call("client.put", Class::Write, || kv.put(&key(c, i), v)) {
                    t.check(prev.is_none(), || {
                        format!("fresh key c{c}-{i} replaced {prev:?}")
                    });
                    stored[i] = true;
                    ok.push(i);
                    live += entry;
                    bytes += VALUE_LEN as u64;
                }
                if (i + 1) % READ_EVERY == 0 && !ok.is_empty() {
                    bytes += get(t, &ok, "while the store grew");
                }
                if (i + 1) % SAMPLE_EVERY == 0 {
                    peak_blocks = peak_blocks.max(env.allocated_blocks());
                    peak_live = peak_live.max(live);
                }
            }
            for _ in 0..SAMPLE_GETS.min(ok.len()) {
                bytes += get(t, &ok, "after the grow phase");
            }
            for (i, &stored) in stored.iter().enumerate() {
                if let Some(prev) = t.call("client.delete", Class::Other, || kv.delete(&key(c, i)))
                {
                    // A key whose put returned `Err` may or may not have
                    // been stored; one whose put succeeded must be there.
                    if stored {
                        t.check(prev.as_deref() == Some(self.value(c, i)), || {
                            format!(
                                "delete c{c}-{i} of a stored key returned {}",
                                if prev.is_some() {
                                    "a wrong value"
                                } else {
                                    "None"
                                }
                            )
                        });
                    }
                }
            }
            bytes
        });
        let after = env.cluster.controller().stats();
        Cycle {
            alloc_per_live: (peak_blocks as usize * BLOCK_SIZE) as f64 / peak_live.max(1) as f64,
            peak_blocks,
            idle_blocks: env.allocated_blocks(),
            failed: t.failed - failed,
            splits: after.splits - before.splits,
            merges: after.merges - before.merges,
        }
    }
}

impl Workload for KvIngest {
    fn shape(&self) -> Shape {
        Shape {
            block_size: BLOCK_SIZE,
            blocks_per_server: 512,
            chain_length: 2,
            value_len: VALUE_LEN,
        }
    }

    fn prepare(&mut self, env: &Env) -> Result<(), String> {
        let client = env.client();
        let job = client
            .register_job("kv_ingest")
            .map_err(|e| format!("register: {e}"))?;
        let kv = job
            .open_kv("ingest", &[], 1)
            .map_err(|e| format!("open_kv: {e}"))?;
        self.state = Some((client, kv));
        Ok(())
    }

    fn clients(&self) -> Vec<JiffyClient> {
        self.state.iter().map(|(c, _)| c.clone()).collect()
    }

    fn run(&self, env: &Env, stop: Stop) -> Outcome {
        let (_, kv) = self.state.as_ref().expect("prepared");
        let start = Instant::now();
        let mut t = Tally::default();
        let n = match stop {
            Stop::At(until) => {
                let budget = until.saturating_duration_since(start).as_secs_f64();
                ((budget / SECONDS_PER_CYCLE).round() as usize).max(1)
            }
            Stop::Jobs(n) => n as usize,
        };
        let cycles: Vec<Cycle> = (0..n).map(|c| self.cycle(env, kv, c, &mut t)).collect();
        crate::trace::flush();
        let jobs = cycles.len() as u64;
        let notes = cycles
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    "cycle {i}: failed calls {}, controller splits {} merges {}, peak blocks {}, blocks after deletes {}, alloc/live {:.2}",
                    c.failed, c.splits, c.merges, c.peak_blocks, c.idle_blocks, c.alloc_per_live
                )
            })
            .collect();
        Outcome {
            notes,
            tally: t,
            elapsed: start.elapsed(),
            jobs,
            tasks: jobs,
            alloc_per_live: median_of(cycles.iter().map(|c| c.alloc_per_live).collect()),
            peak_blocks: cycles.iter().map(|c| c.peak_blocks).max().unwrap_or(0),
            idle_blocks: median_of(cycles.iter().map(|c| c.idle_blocks as f64).collect()),
        }
    }

    /// A whole cycle takes seconds, so the warm-up is a short cycle's
    /// worth of calls on one block, which neither splits nor merges.
    fn warm_up(&self, _env: &Env) {
        let (_, kv) = self.state.as_ref().expect("prepared");
        let mut t = Tally::default();
        for i in 0..WARM_UP_KEYS {
            let key = format!("warm-{i}").into_bytes();
            t.call("client.put", Class::Write, || {
                kv.put(&key, self.value(0, i))
            });
            t.call("client.get", Class::Read, || kv.get(&key));
            t.call("client.delete", Class::Other, || kv.delete(&key));
        }
    }

    fn primary(&self) -> Primary {
        Primary::Writes
    }

    /// A 1 KiB put entering a two-replica chain at its head.
    fn envelope(&self) -> Envelope {
        Envelope::DataReq {
            id: CLIENT_RID_BASE,
            req: DataRequest::Replicate {
                block: BlockId(1),
                op: DsOp::Put {
                    key: Blob::new(key(0, 0)),
                    value: Blob::new(self.value(0, 0).to_vec()),
                },
                downstream: vec![Replica {
                    block: BlockId(2),
                    server: ServerId(2),
                    addr: "127.0.0.1:40000".into(),
                }],
                rid: CLIENT_RID_BASE,
            },
            tenant: TenantId::ANONYMOUS,
        }
    }
}
