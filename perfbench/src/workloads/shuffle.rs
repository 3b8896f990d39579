//! `shuffle`: a MapReduce shuffle. Each round registers a job, creates
//! `map-stage` and opens 8 shuffle files under it on 4 MiB blocks. Two
//! mapper threads append seeded records of 16–24 KiB, 32 MiB per round
//! in all; the same two threads then `read_all` four files each as
//! reducers and check them, and the job deregisters. This is bandwidth
//! through large frames, file chunk growth, and block allocation and
//! free at the controller, with no cuckoo map, replication or skew.
//!
//! `jiffy_models::mapreduce` is not called: it spawns a thread per task,
//! above the two-thread cap. This reproduces its file access pattern.

use std::time::Instant;

use jiffy::{FileClient, JiffyClient, JobClient};
use jiffy_common::JobId;
use jiffy_proto::{Blob, DataResponse, DsResult, Envelope, CLIENT_RID_BASE};
use jiffy_sync::{Barrier, Mutex};

use super::{median_of, mix, Outcome, Pool, Primary, Stop, Workload, LOAD_THREADS};
use crate::env::{Env, Shape};
use crate::tally::{Class, Tally};

const BLOCK_SIZE: usize = 4 << 20;
const FILES: usize = 8;
const BYTES_PER_MAPPER: usize = 16 << 20;
const MIN_BODY: usize = 16 << 10;
const MAX_BODY: usize = 24 << 10;
/// Record header: mapper, index, body length and round, little-endian
/// `u32`s.
const HEADER: usize = 16;

/// One record a mapper appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Record {
    mapper: u32,
    idx: u32,
    len: u32,
    file: usize,
}

pub struct Shuffle {
    seed: u64,
    pool: Pool,
    clients: Vec<JiffyClient>,
}

/// What the two threads share within a round.
struct Round {
    job: Option<JobId>,
    go: bool,
    /// Payload bytes the other thread moved.
    bytes: u64,
}

impl Shuffle {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            pool: Pool::new(mix(seed ^ 0x0054_FF1E)),
            clients: Vec::new(),
        }
    }

    fn coord(&self, round: u32, r: &Record) -> u64 {
        mix(self.seed ^ (u64::from(round) << 40) ^ (u64::from(r.mapper) << 32) ^ u64::from(r.idx))
    }

    /// The records mapper `m` appends in `round`, in order.
    fn plan(&self, round: u32, mapper: u32) -> Vec<Record> {
        let mut out = Vec::new();
        let mut total = 0;
        while total < BYTES_PER_MAPPER {
            let idx = out.len() as u32;
            let h = mix(self.seed
                ^ (u64::from(round) << 40)
                ^ (u64::from(mapper) << 32)
                ^ u64::from(idx)
                ^ 0xF11E);
            let len = MIN_BODY + (h % (MAX_BODY - MIN_BODY + 1) as u64) as usize;
            let file = ((h >> 32) % FILES as u64) as usize;
            out.push(Record {
                mapper,
                idx,
                len: len as u32,
                file,
            });
            total += HEADER + len;
        }
        out
    }

    fn encode(&self, round: u32, r: &Record) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER + r.len as usize);
        for x in [r.mapper, r.idx, r.len, round] {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out.extend_from_slice(self.pool.slice(self.coord(round, r), r.len as usize));
        out
    }

    /// Checks that `bytes` hold exactly the records of `want`, in any
    /// order, each intact.
    fn verify(&self, round: u32, file: usize, bytes: &[u8], want: &[Record]) -> Result<(), String> {
        let mut got = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let word = |i: usize| -> Option<u32> {
                let b = bytes.get(at + 4 * i..at + 4 * i + 4)?;
                Some(u32::from_le_bytes(b.try_into().ok()?))
            };
            let (Some(mapper), Some(idx), Some(len), Some(r)) =
                (word(0), word(1), word(2), word(3))
            else {
                return Err(format!("file {file}: torn header at byte {at}"));
            };
            let rec = Record {
                mapper,
                idx,
                len,
                file,
            };
            let body = bytes
                .get(at + HEADER..at + HEADER + len as usize)
                .ok_or_else(|| format!("file {file}: torn record at byte {at}"))?;
            if r != round || body != self.pool.slice(self.coord(round, &rec), len as usize) {
                return Err(format!("file {file}: record {mapper}/{idx} is corrupt"));
            }
            got.push(rec);
            at += HEADER + len as usize;
        }
        got.sort_unstable();
        let mut want = want.to_vec();
        want.sort_unstable();
        if got != want {
            return Err(format!(
                "file {file}: {} records read, {} appended",
                got.len(),
                want.len()
            ));
        }
        Ok(())
    }

    /// One load thread's part in every round until `until`. Thread 0
    /// coordinates: it registers and deregisters each round's job and
    /// times the round.
    fn worker(
        &self,
        env: &Env,
        me: usize,
        stop: Stop,
        barrier: &Barrier,
        shared: &Mutex<Round>,
    ) -> (Tally, Vec<(u64, u64)>) {
        let client = &self.clients[me];
        let mut t = Tally::default();
        let mut blocks = Vec::new();
        for round in 0u32.. {
            if me == 0 {
                shared.lock().go = stop.more(u64::from(round));
            }
            barrier.wait();
            if !shared.lock().go {
                break;
            }
            if me == 0 {
                t.job("shuffle.round", |t| {
                    let mine = self.round(env, client, me, round, t, barrier, shared, &mut blocks);
                    let (job, theirs) = {
                        let mut state = shared.lock();
                        (state.job.take(), std::mem::take(&mut state.bytes))
                    };
                    if let Some(job) = job {
                        let job = JobClient::attach(client.clone(), job);
                        t.call("client.deregister", Class::Other, || job.deregister());
                    }
                    blocks.last_mut().expect("sampled").1 = env.allocated_blocks();
                    mine + theirs
                });
            } else {
                self.round(env, client, me, round, &mut t, barrier, shared, &mut blocks);
            }
        }
        crate::trace::flush();
        (t, blocks)
    }

    /// Open, map, reduce. Returns the payload bytes this thread moved;
    /// the other thread also adds its bytes to the shared state.
    #[allow(clippy::too_many_arguments)]
    fn round(
        &self,
        env: &Env,
        client: &JiffyClient,
        me: usize,
        round: u32,
        t: &mut Tally,
        barrier: &Barrier,
        shared: &Mutex<Round>,
        blocks: &mut Vec<(u64, u64)>,
    ) -> u64 {
        if me == 0 {
            let job = t.call("client.register_job", Class::Other, || {
                client.register_job(&format!("shuffle-{round}"))
            });
            if let Some(job) = &job {
                t.call("client.create_prefix", Class::Other, || {
                    job.create_addr_prefix("map-stage", &[])
                });
            }
            shared.lock().job = job.map(|j| j.id());
        }
        barrier.wait();
        let job = shared.lock().job;
        let files: Vec<Option<FileClient>> = match job {
            Some(job) => {
                let job = JobClient::attach(client.clone(), job);
                (0..FILES)
                    .map(|f| {
                        t.call("client.open_file", Class::Other, || {
                            job.open_file(&format!("part-{f}"), &["map-stage"])
                        })
                    })
                    .collect()
            }
            None => Vec::new(),
        };
        let mut bytes = 0;
        for r in self.plan(round, me as u32) {
            let Some(Some(file)) = files.get(r.file) else {
                continue;
            };
            let rec = self.encode(round, &r);
            if t.call("client.append", Class::Write, || file.append(&rec))
                .is_some()
            {
                bytes += rec.len() as u64;
            }
        }
        barrier.wait();
        if me == 0 {
            blocks.push((env.allocated_blocks(), 0));
        }
        let plans: Vec<Record> = (0..LOAD_THREADS as u32)
            .flat_map(|m| self.plan(round, m))
            .collect();
        for f in (me..FILES).step_by(LOAD_THREADS) {
            let Some(Some(file)) = files.get(f) else {
                continue;
            };
            if let Some(data) = t.call("client.read_all", Class::Read, || file.read_all()) {
                bytes += data.len() as u64;
                let want: Vec<Record> = plans.iter().filter(|r| r.file == f).copied().collect();
                if let Err(e) = self.verify(round, f, &data, &want) {
                    t.violation(|| format!("round {round}: {e}"));
                }
            }
        }
        if me != 0 {
            shared.lock().bytes += bytes;
        }
        barrier.wait();
        bytes
    }
}

impl Workload for Shuffle {
    fn shape(&self) -> Shape {
        Shape {
            block_size: BLOCK_SIZE,
            blocks_per_server: 48,
            chain_length: 1,
            value_len: (MIN_BODY + MAX_BODY) / 2,
        }
    }

    fn prepare(&mut self, env: &Env) -> Result<(), String> {
        self.clients = (0..LOAD_THREADS).map(|_| env.client()).collect();
        Ok(())
    }

    fn clients(&self) -> Vec<JiffyClient> {
        self.clients.clone()
    }

    fn run(&self, env: &Env, stop: Stop) -> Outcome {
        let barrier = Barrier::new(LOAD_THREADS);
        let shared = Mutex::new(Round {
            job: None,
            go: false,
            bytes: 0,
        });
        let start = Instant::now();
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..LOAD_THREADS)
                .map(|me| {
                    let (barrier, shared) = (&barrier, &shared);
                    s.spawn(move || self.worker(env, me, stop, barrier, shared))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread"))
                .collect()
        });
        let elapsed = start.elapsed();
        let mut tally = Tally::default();
        let mut samples = Vec::new();
        for (t, s) in results {
            tally.absorb(t);
            samples.extend(s);
        }
        let live = (LOAD_THREADS * BYTES_PER_MAPPER) as f64;
        let jobs = tally.jobs.len() as u64;
        Outcome {
            tally,
            elapsed,
            jobs,
            tasks: jobs,
            alloc_per_live: median_of(
                samples
                    .iter()
                    .map(|&(peak, _)| (peak as usize * BLOCK_SIZE) as f64 / live)
                    .collect(),
            ),
            peak_blocks: samples.iter().map(|&(peak, _)| peak).max().unwrap_or(0),
            idle_blocks: median_of(samples.iter().map(|(_, idle)| *idle as f64).collect()),
            notes: Vec::new(),
        }
    }

    fn primary(&self) -> Primary {
        Primary::Writes
    }

    /// A reply carrying one whole 4 MiB chunk, as `read_all` receives.
    fn envelope(&self) -> Envelope {
        Envelope::DataResp {
            id: CLIENT_RID_BASE,
            resp: Ok(DataResponse::OpResult(DsResult::Data(Blob::new(
                self.pool.slice(0, BLOCK_SIZE / 8).repeat(8),
            )))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_fill_each_mapper_share_with_seeded_sizes() {
        let s = Shuffle::new(3);
        let plan = s.plan(0, 1);
        let bytes: usize = plan.iter().map(|r| HEADER + r.len as usize).sum();
        assert!((BYTES_PER_MAPPER..BYTES_PER_MAPPER + HEADER + MAX_BODY).contains(&bytes));
        assert!(plan
            .iter()
            .all(|r| (MIN_BODY..=MAX_BODY).contains(&(r.len as usize))));
        assert_eq!(plan, Shuffle::new(3).plan(0, 1));
        assert_ne!(plan, s.plan(1, 1));
    }

    #[test]
    fn verify_accepts_any_order_and_rejects_loss_or_damage() {
        let s = Shuffle::new(5);
        let want: Vec<Record> = s
            .plan(2, 0)
            .into_iter()
            .filter(|r| r.file == 3)
            .take(3)
            .collect();
        let mut bytes: Vec<u8> = want.iter().rev().flat_map(|r| s.encode(2, r)).collect();
        assert_eq!(s.verify(2, 3, &bytes, &want), Ok(()));
        assert!(s.verify(2, 3, &bytes, &want[..2]).is_err());
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert!(s.verify(2, 3, &bytes, &want).is_err());
        assert!(s.verify(2, 3, &bytes[..bytes.len() - 5], &want).is_err());
    }
}
