//! `dag_tasks`: a serverless DAG. Two driver threads each run 16-task
//! jobs, 4 stages of 4 tasks, one after another. Each task creates its
//! prefix with a queue, its parents being every task of the stage
//! before; it dequeues one 4 KiB item from each parent, enqueues one item
//! per child, renews its lease, and prefixes are removed once consumed.
//! Each job is registered and then deregistered. Control-plane work per
//! task dominates here and data volume is small; it is the only
//! workload that uses queues.

use std::time::Instant;

use jiffy::{JiffyClient, JobClient, QueueClient};
use jiffy_common::{BlockId, TenantId};
use jiffy_proto::{Blob, DataRequest, DsOp, Envelope, CLIENT_RID_BASE};
use jiffy_sync::atomic::{AtomicU64, Ordering};

use super::{mix, Outcome, Pool, Primary, Stop, Workload, LOAD_THREADS};
use crate::env::{Env, Shape};
use crate::tally::{Class, Tally};

const BLOCK_SIZE: usize = 256 << 10;
const STAGES: usize = 4;
const WIDTH: usize = 4;
const ITEM: usize = 4 << 10;
/// Jobs per driver in the warm-up: a few hundred milliseconds, long
/// enough that a hiccup of the host does not decide `setup_s`.
const WARM_UP_JOBS: u64 = 16;

pub struct DagTasks {
    pool: Pool,
    clients: Vec<JiffyClient>,
}

fn task_name(stage: usize, i: usize) -> String {
    format!("s{stage}t{i}")
}

/// Peak allocated blocks and peak live queue bytes seen by one driver.
#[derive(Default)]
struct Peaks {
    blocks: u64,
    live: u64,
}

impl DagTasks {
    pub fn new(seed: u64) -> Self {
        Self {
            pool: Pool::new(mix(seed ^ 0xDA6)),
            clients: Vec::new(),
        }
    }

    /// The item task `(stage, i)` of job `job` sends to its child `j`.
    fn item(&self, job: u64, stage: usize, i: usize, j: usize) -> &[u8] {
        self.pool
            .slice(job << 16 | (stage << 8 | i << 4 | j) as u64, ITEM)
    }

    #[allow(clippy::too_many_arguments)]
    fn task(
        &self,
        env: &Env,
        job: &JobClient,
        tag: u64,
        stage: usize,
        i: usize,
        queues: &mut [Vec<Option<QueueClient>>],
        t: &mut Tally,
        live: &AtomicU64,
        peaks: &mut Peaks,
    ) {
        let name = task_name(stage, i);
        let parents: Vec<String> = match stage {
            0 => Vec::new(),
            s => (0..WIDTH).map(|u| task_name(s - 1, u)).collect(),
        };
        let parent_refs: Vec<&str> = parents.iter().map(String::as_str).collect();
        let q = t.call("client.open_queue", Class::Other, || {
            job.open_queue(&name, &parent_refs)
        });
        if stage > 0 {
            for (u, up) in queues[stage - 1].iter().enumerate() {
                let Some(up) = up else { continue };
                if let Some(got) = t.call("client.dequeue", Class::Read, || up.dequeue()) {
                    live.fetch_sub(ITEM as u64, Ordering::Relaxed);
                    let want = self.item(tag, stage - 1, u, i);
                    t.check(got.as_deref() == Some(want), || {
                        format!("job {tag}: edge s{}t{u}->{name} delivered {:?} bytes out of order or wrong", stage - 1, got.map(|g| g.len()))
                    });
                }
            }
        }
        if let Some(q) = &q {
            if stage + 1 < STAGES {
                for j in 0..WIDTH {
                    let item = self.item(tag, stage, i, j);
                    if t.call("client.enqueue", Class::Write, || q.enqueue(item))
                        .is_some()
                    {
                        live.fetch_add(ITEM as u64, Ordering::Relaxed);
                    }
                }
            }
        }
        t.call("client.renew_lease", Class::Other, || {
            job.renew_lease(&name)
        });
        if stage + 1 == STAGES {
            t.call("client.remove_prefix", Class::Other, || {
                job.remove_addr_prefix(&name)
            });
        }
        // The last child of a stage removes its parents' prefixes.
        if stage > 0 && i + 1 == WIDTH {
            for p in &parents {
                t.call("client.remove_prefix", Class::Other, || {
                    job.remove_addr_prefix(p)
                });
            }
        }
        queues[stage][i] = q;
        peaks.blocks = peaks.blocks.max(env.allocated_blocks());
        peaks.live = peaks.live.max(live.load(Ordering::Relaxed));
    }

    fn driver(&self, env: &Env, d: usize, stop: Stop, live: &AtomicU64) -> (Tally, Peaks) {
        let client = &self.clients[d];
        let mut t = Tally::default();
        let mut peaks = Peaks::default();
        for n in 0u64.. {
            if !stop.more(n) {
                break;
            }
            let tag = n << 1 | d as u64;
            t.job("dag.job", |t| {
                let Some(job) = t.call("client.register_job", Class::Other, || {
                    client.register_job(&format!("dag-{d}-{n}"))
                }) else {
                    return 0;
                };
                let mut queues: Vec<Vec<Option<QueueClient>>> = (0..STAGES)
                    .map(|_| (0..WIDTH).map(|_| None).collect())
                    .collect();
                for stage in 0..STAGES {
                    for i in 0..WIDTH {
                        t.task("dag.task", |t| {
                            self.task(env, &job, tag, stage, i, &mut queues, t, live, &mut peaks)
                        });
                    }
                }
                t.call("client.deregister", Class::Other, || job.deregister());
                // Every edge's item is written once and read once.
                (2 * (STAGES - 1) * WIDTH * WIDTH * ITEM) as u64
            });
        }
        crate::trace::flush();
        (t, peaks)
    }
}

impl Workload for DagTasks {
    fn shape(&self) -> Shape {
        Shape {
            block_size: BLOCK_SIZE,
            blocks_per_server: 64,
            chain_length: 1,
            value_len: ITEM,
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
        let live = AtomicU64::new(0);
        let start = Instant::now();
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..LOAD_THREADS)
                .map(|d| {
                    let live = &live;
                    s.spawn(move || self.driver(env, d, stop, live))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("driver thread"))
                .collect()
        });
        let elapsed = start.elapsed();
        let mut tally = Tally::default();
        let mut peaks = Peaks::default();
        for (t, p) in results {
            tally.absorb(t);
            peaks.blocks = peaks.blocks.max(p.blocks);
            peaks.live = peaks.live.max(p.live);
        }
        let jobs = tally.jobs.len() as u64;
        Outcome {
            tally,
            elapsed,
            jobs,
            tasks: jobs * (STAGES * WIDTH) as u64,
            alloc_per_live: (peaks.blocks as usize * BLOCK_SIZE) as f64 / peaks.live.max(1) as f64,
            peak_blocks: peaks.blocks,
            idle_blocks: env.allocated_blocks() as f64,
            notes: Vec::new(),
        }
    }

    fn primary(&self) -> Primary {
        Primary::Tasks
    }

    /// One job takes milliseconds, so the warm-up runs a few.
    fn warm_up(&self, env: &Env) {
        self.run(env, Stop::Jobs(WARM_UP_JOBS));
    }

    /// A 4 KiB enqueue.
    fn envelope(&self) -> Envelope {
        Envelope::DataReq {
            id: CLIENT_RID_BASE,
            req: DataRequest::Op {
                block: BlockId(1),
                op: DsOp::Enqueue {
                    item: Blob::new(self.item(0, 0, 0, 0).to_vec()),
                },
            },
            tenant: TenantId::ANONYMOUS,
        }
    }
}
