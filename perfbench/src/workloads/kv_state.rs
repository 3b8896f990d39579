//! `kv_state`: Piccolo-style shared state. Two closed-loop clients on
//! chain length 1 draw 64Ki keys with Zipf 0.99 skew: 80% `get`, 10%
//! `put` and 10% `multi_get` of 32 keys, over 256 B values. The store is
//! pre-partitioned so it spans at least four blocks on each server and
//! never repartitions while timed: this is the small-op hot path with
//! the controller reduced to cache hits.

use std::collections::HashMap;
use std::time::Instant;

use jiffy::{JiffyClient, JobClient, KvClient};
use jiffy_common::{BlockId, TenantId};
use jiffy_proto::{Blob, DataRequest, DsOp, Envelope, PartitionView, CLIENT_RID_BASE};
use jiffy_workloads::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::{mix, Outcome, Pool, Primary, Stop, Workload, LOAD_THREADS};
use crate::env::{Env, Shape, SERVERS};
use crate::tally::{Class, Tally};

const KEYS: usize = 1 << 16;
const VALUE_LEN: usize = 256;
const BATCH: usize = 32;
const ZIPF: f64 = 0.99;
/// Calls per job: one client's round of closed-loop calls.
const ROUND: usize = 256;
/// The store is created on 64 blocks of 1 MiB. The controller hands out
/// one server's blocks before the next one's, so with 36 blocks a server
/// the store starts on both. Every empty block reports underload on its
/// first write, and half of them merge away during the preload; the 32
/// that remain hold the ~17 MB store about half full, inside both
/// repartition thresholds.
const BLOCK_SIZE: usize = 1 << 20;
const INITIAL_BLOCKS: u32 = 64;
const BLOCKS_PER_SERVER: u32 = 36;
const MIN_BLOCKS_PER_SERVER: usize = 4;
const PRELOAD_BATCH: usize = 256;

pub struct KvState {
    seed: u64,
    pool: Pool,
    zipf: Zipf,
    /// One client and store handle per load thread.
    handles: Vec<(JiffyClient, KvClient)>,
    /// Blocks of the store on each server after the preload.
    layout: Vec<usize>,
}

fn key(i: usize) -> Vec<u8> {
    format!("k{i:07}").into_bytes()
}

impl KvState {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            pool: Pool::new(mix(seed ^ 0x57A7E)),
            zipf: Zipf::new(KEYS, ZIPF),
            handles: Vec::new(),
            layout: Vec::new(),
        }
    }

    /// The value stored under key `i`: every put writes it, so every
    /// read can check it.
    fn value(&self, i: usize) -> &[u8] {
        self.pool.slice(i as u64, VALUE_LEN)
    }

    fn client_loop(&self, kv: &KvClient, thread: usize, stop: Stop) -> Tally {
        let mut rng = StdRng::seed_from_u64(mix(self.seed ^ 0x5157_0000 ^ thread as u64));
        let mut t = Tally::default();
        while stop.more(t.jobs.len() as u64) {
            t.job("kv_state.round", |t| {
                let mut bytes = 0u64;
                for _ in 0..ROUND {
                    let dice = rng.random_range(0..10u32);
                    if dice < 8 {
                        let i = self.zipf.sample(&mut rng);
                        if let Some(got) = t.call("client.get", Class::Read, || kv.get(&key(i))) {
                            let ok = got.as_deref() == Some(self.value(i));
                            t.check(ok, || format!("get k{i} returned {got:?}"));
                            bytes += VALUE_LEN as u64;
                        }
                    } else if dice < 9 {
                        let i = self.zipf.sample(&mut rng);
                        let v = self.value(i);
                        if let Some(prev) =
                            t.call("client.put", Class::Write, || kv.put(&key(i), v))
                        {
                            let ok = prev.as_deref() == Some(v);
                            t.check(ok, || format!("put k{i} replaced {prev:?}"));
                            bytes += VALUE_LEN as u64;
                        }
                    } else {
                        let ids: Vec<usize> =
                            (0..BATCH).map(|_| self.zipf.sample(&mut rng)).collect();
                        let keys: Vec<Vec<u8>> = ids.iter().map(|&i| key(i)).collect();
                        if let Some(got) =
                            t.call("client.multi_get", Class::Other, || kv.multi_get(&keys))
                        {
                            let ok = got.len() == BATCH
                                && ids
                                    .iter()
                                    .zip(&got)
                                    .all(|(&i, g)| g.as_deref() == Some(self.value(i)));
                            t.check(ok, || format!("multi_get {ids:?} returned wrong values"));
                            bytes += (BATCH * VALUE_LEN) as u64;
                        }
                    }
                }
                bytes
            });
        }
        t
    }
}

impl Workload for KvState {
    fn shape(&self) -> Shape {
        Shape {
            block_size: BLOCK_SIZE,
            blocks_per_server: BLOCKS_PER_SERVER,
            chain_length: 1,
            value_len: VALUE_LEN,
        }
    }

    fn prepare(&mut self, env: &Env) -> Result<(), String> {
        let client = env.client();
        let job = client
            .register_job("kv_state")
            .map_err(|e| format!("register: {e}"))?;
        let kv = job
            .open_kv("state", &[], INITIAL_BLOCKS)
            .map_err(|e| format!("open_kv: {e}"))?;
        for lo in (0..KEYS).step_by(PRELOAD_BATCH) {
            let pairs: Vec<(Vec<u8>, &[u8])> = (lo..lo + PRELOAD_BATCH)
                .map(|i| (key(i), self.value(i)))
                .collect();
            kv.multi_put(&pairs).map_err(|e| format!("preload: {e}"))?;
        }
        let view = job
            .resolve_fresh("state")
            .map_err(|e| format!("resolve: {e}"))?;
        let Some(PartitionView::Kv { slots, .. }) = view.partition else {
            return Err("the store did not resolve to a KV".into());
        };
        let mut per_server: HashMap<String, std::collections::BTreeSet<u64>> = HashMap::new();
        for r in &slots {
            let head = r.location.head();
            per_server
                .entry(head.addr.clone())
                .or_default()
                .insert(head.block.raw());
        }
        let spread = per_server.len() == SERVERS
            && per_server
                .values()
                .all(|b| b.len() >= MIN_BLOCKS_PER_SERVER);
        if !spread {
            return Err(format!(
                "store spans too few blocks per server: {per_server:?}"
            ));
        }
        self.handles = (0..LOAD_THREADS)
            .map(|_| {
                let client = env.client();
                let kv = JobClient::attach(client.clone(), job.id())
                    .open_kv("state", &[], INITIAL_BLOCKS)
                    .map_err(|e| format!("open_kv: {e}"))?;
                Ok((client, kv))
            })
            .collect::<Result<_, String>>()?;
        self.layout = per_server.values().map(|b| b.len()).collect();
        Ok(())
    }

    fn clients(&self) -> Vec<JiffyClient> {
        self.handles.iter().map(|(c, _)| c.clone()).collect()
    }

    fn run(&self, env: &Env, stop: Stop) -> Outcome {
        let before = env.cluster.controller().stats();
        let start = Instant::now();
        let tallies: Vec<Tally> = std::thread::scope(|s| {
            let threads: Vec<_> = self
                .handles
                .iter()
                .enumerate()
                .map(|(thread, (_, kv))| {
                    s.spawn(move || {
                        let t = self.client_loop(kv, thread, stop);
                        crate::trace::flush();
                        t
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|h| h.join().expect("load thread"))
                .collect()
        });
        let elapsed = start.elapsed();
        let after = env.cluster.controller().stats();
        let mut tally = Tally::default();
        for t in tallies {
            tally.absorb(t);
        }
        let (splits, merges) = (after.splits - before.splits, after.merges - before.merges);
        tally.check(splits == 0 && merges == 0, || {
            format!("the store repartitioned while timed: {splits} splits, {merges} merges")
        });
        let blocks = env.allocated_blocks();
        let live = (KEYS * (key(0).len() + VALUE_LEN)) as f64;
        let jobs = tally.jobs.len() as u64;
        Outcome {
            tally,
            elapsed,
            jobs,
            tasks: jobs,
            alloc_per_live: (blocks as usize * BLOCK_SIZE) as f64 / live,
            peak_blocks: blocks,
            idle_blocks: blocks as f64,
            notes: vec![format!(
                "store blocks per server after the preload: {:?}",
                self.layout
            )],
        }
    }

    fn primary(&self) -> Primary {
        Primary::Reads
    }

    /// A 256 B put.
    fn envelope(&self) -> Envelope {
        Envelope::DataReq {
            id: CLIENT_RID_BASE,
            req: DataRequest::Op {
                block: BlockId(1),
                op: DsOp::Put {
                    key: Blob::new(key(0)),
                    value: Blob::new(self.value(0).to_vec()),
                },
            },
            tenant: TenantId::ANONYMOUS,
        }
    }
}
