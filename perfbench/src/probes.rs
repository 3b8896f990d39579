//! Per-layer probes, run after the timed phase of a traced run. Each
//! probe records spans named after the layer it isolates; the per-layer
//! metrics are read back from those spans.

use std::hint::black_box;

use jiffy::{JiffyConfig, JobClient};
use jiffy_block::{Block, Partition};
use jiffy_client::rid::next_request_id;
use jiffy_common::{BlockId, TenantId};
use jiffy_ds::{kv_slot, FilePartition, KvParams, KvPartition, QueuePartition};
use jiffy_proto::{
    from_bytes, to_bytes, Blob, BlockLocation, ControlRequest, DataRequest, DataResponse, DsOp,
    DsResult, DsType, Envelope, PartitionView,
};
use jiffy_rpc::ClientConn;

use crate::env::{Env, Shape};
use crate::trace::timed;

/// Rounds of each network probe.
const NET_ROUNDS: usize = 1000;
/// Distinct keys the network probes cycle through.
const PROBE_KEYS: usize = 16;
/// Iterations of the control-plane probe.
const CONTROL_ROUNDS: usize = 300;
/// Timed batches of the in-process probes; each batch is one span.
const BATCHES: usize = 60;

type Probe = Result<(), String>;

fn data(conn: &ClientConn, req: DataRequest) -> Result<DsResult, String> {
    match conn.call(Envelope::DataReq {
        id: next_request_id(),
        req,
        tenant: TenantId::ANONYMOUS,
    }) {
        Ok(Envelope::DataResp {
            resp: Ok(DataResponse::OpResult(r)),
            ..
        }) => Ok(r),
        other => Err(format!("raw data call answered {other:?}")),
    }
}

fn probe_key(i: usize) -> Vec<u8> {
    format!("probe-{:04}", i % PROBE_KEYS).into_bytes()
}

/// Where `key` lives in the KV named `name`.
fn route(job: &JobClient, name: &str, key: &[u8]) -> Result<BlockLocation, String> {
    let view = job
        .resolve_fresh(name)
        .map_err(|e| format!("resolve {name}: {e}"))?;
    let Some(PartitionView::Kv { num_slots, slots }) = view.partition else {
        return Err(format!("{name} is not a KV"));
    };
    let slot = kv_slot(key, num_slots);
    slots
        .into_iter()
        .find(|r| r.contains(slot))
        .map(|r| r.location)
        .ok_or_else(|| format!("slot {slot} of {name} has no block"))
}

/// A client call against the same call pre-routed and sent raw, on the
/// workload's own cluster. Spans: `probe.client_get`, `raw.get` (to the
/// tail), `raw.ping` (to the tail, on the same connection),
/// `probe.client_put`, `raw.put_same` (what the client sends for a put:
/// `Op`, or `Replicate` on a chain) and `raw.put` (an unreplicated `Op`
/// to the head).
pub fn data_plane(env: &Env) -> Probe {
    let job = env
        .client()
        .register_job("probe-data")
        .map_err(|e| e.to_string())?;
    let kv = job.open_kv("probe", &[], 1).map_err(|e| e.to_string())?;
    let value = vec![0x5Au8; env.shape.value_len];
    for i in 0..PROBE_KEYS {
        kv.put(&probe_key(i), &value).map_err(|e| e.to_string())?;
    }
    // One block holds every probe key, so one route serves them all.
    let loc = route(&job, "probe", &probe_key(0))?;
    for i in 1..PROBE_KEYS {
        if route(&job, "probe", &probe_key(i))? != loc {
            return Err("probe keys span more than one block".into());
        }
    }
    let fabric = env.cluster.fabric();
    let connect = |addr: &str| fabric.connect(addr).map_err(|e| e.to_string());
    let (head, tail) = (loc.head(), loc.tail());
    let (head_conn, tail_conn) = (connect(&head.addr)?, connect(&tail.addr)?);
    let put = |i: usize| DsOp::Put {
        key: Blob::new(probe_key(i)),
        value: Blob::new(value.clone()),
    };
    for i in 0..NET_ROUNDS {
        let key = probe_key(i);
        timed("probe.client_get", || kv.get(&key))
            .0
            .map_err(|e| e.to_string())?;
        let get = DataRequest::Op {
            block: tail.block,
            op: DsOp::Get {
                key: Blob::new(key.clone()),
            },
        };
        timed("raw.get", || data(&tail_conn, get)).0?;
        timed("raw.ping", || crate::env::ping(&tail_conn));
        timed("probe.client_put", || kv.put(&key, &value))
            .0
            .map_err(|e| e.to_string())?;
        let same = if loc.chain.len() > 1 {
            DataRequest::Replicate {
                block: head.block,
                op: put(i),
                downstream: loc.chain[1..].to_vec(),
                rid: next_request_id(),
            }
        } else {
            DataRequest::Op {
                block: head.block,
                op: put(i),
            }
        };
        timed("raw.put_same", || data(&head_conn, same)).0?;
        let raw = DataRequest::Op {
            block: head.block,
            op: put(i),
        };
        timed("raw.put", || data(&head_conn, raw)).0?;
    }
    job.deregister().map_err(|e| e.to_string())
}

/// A raw `Replicate` to the head of a two-replica chain against a raw
/// unreplicated put to the same head block, on a separate small cluster
/// shaped like the workload's. Spans: `raw.replicate`, `raw.put_head`.
pub fn replication(shape: Shape) -> Probe {
    let env = Env::boot(Shape {
        blocks_per_server: 4,
        chain_length: 2,
        ..shape
    })?;
    let job = env
        .client()
        .register_job("probe-chain")
        .map_err(|e| e.to_string())?;
    let kv = job.open_kv("chain", &[], 1).map_err(|e| e.to_string())?;
    let value = vec![0xC3u8; shape.value_len];
    kv.put(&probe_key(0), &value).map_err(|e| e.to_string())?;
    let loc = route(&job, "chain", &probe_key(0))?;
    if loc.chain.len() != 2 {
        return Err(format!("expected a two-replica chain, got {loc:?}"));
    }
    let head = loc.head();
    let conn = env
        .cluster
        .fabric()
        .connect(&head.addr)
        .map_err(|e| e.to_string())?;
    let put = || DsOp::Put {
        key: Blob::new(probe_key(0)),
        value: Blob::new(value.clone()),
    };
    for _ in 0..NET_ROUNDS {
        let rep = DataRequest::Replicate {
            block: head.block,
            op: put(),
            downstream: loc.chain[1..].to_vec(),
            rid: next_request_id(),
        };
        timed("raw.replicate", || data(&conn, rep)).0?;
        let raw = DataRequest::Op {
            block: head.block,
            op: put(),
        };
        timed("raw.put_head", || data(&conn, raw)).0?;
    }
    Ok(())
}

/// One job's life at the controller, one call per span:
/// `controller.{register,create,resolve,renew,remove,deregister}`.
pub fn control_plane(env: &Env) -> Probe {
    let client = env.client();
    let err = |e: jiffy::JiffyError| e.to_string();
    for i in 0..CONTROL_ROUNDS {
        let job = timed("controller.register", || {
            client.register_job(&format!("probe-{i}"))
        })
        .0
        .map_err(err)?;
        let create = ControlRequest::CreatePrefix {
            job: job.id(),
            name: "p".into(),
            parents: Vec::new(),
            ds: Some(DsType::Queue),
            initial_blocks: 1,
        };
        timed("controller.create", || client.control(create))
            .0
            .map_err(err)?;
        timed("controller.resolve", || job.resolve_fresh("p"))
            .0
            .map_err(err)?;
        timed("controller.renew", || job.renew_lease("p"))
            .0
            .map_err(err)?;
        timed("controller.remove", || job.remove_addr_prefix("p"))
            .0
            .map_err(err)?;
        timed("controller.deregister", || job.deregister())
            .0
            .map_err(err)?;
    }
    Ok(())
}

/// Codec calls per span: enough for a span to last well above the
/// clock's resolution.
fn reps_for(bytes: usize) -> usize {
    ((1 << 20) / bytes.max(1)).clamp(1, 256)
}

/// `to_bytes` / `from_bytes` of the workload's dominant envelope.
/// Spans: `proto.encode`, `proto.decode`, each over the returned number
/// of calls.
pub fn codec(envelope: &Envelope) -> Result<usize, String> {
    let bytes = to_bytes(envelope).map_err(|e| e.to_string())?;
    let reps = reps_for(bytes.len());
    for _ in 0..BATCHES {
        timed("proto.encode", || {
            for _ in 0..reps {
                black_box(to_bytes(black_box(envelope)).expect("encodable"));
            }
        });
        timed("proto.decode", || {
            for _ in 0..reps {
                let back: Envelope = from_bytes(black_box(&bytes)).expect("decodable");
                black_box(back);
            }
        });
    }
    let back: Envelope = from_bytes(&bytes).map_err(|e| e.to_string())?;
    if &back != envelope {
        return Err("the envelope did not survive a round trip".into());
    }
    Ok(reps)
}

fn block(shape: Shape, partition: Box<dyn Partition>) -> Block {
    let cfg = JiffyConfig::default().with_block_size(shape.block_size);
    let mut b = Block::new(
        BlockId(1),
        shape.block_size,
        cfg.low_watermark(),
        cfg.high_watermark(),
    );
    b.install(partition)
        .expect("a fresh block takes a partition");
    b
}

fn exec(b: &mut Block, op: &DsOp) -> DsResult {
    b.execute(op).expect("in-process op succeeds").0
}

/// `Block::execute` and `replay_record` in process, on blocks of the
/// workload's size holding values of its size. Spans: `block.get`,
/// `block.put`, `block.append`, `block.enqueue`, `block.replay_record`;
/// [`block_reps`] gives the operations each covers.
pub fn blocks(shape: Shape) -> Probe {
    let len = shape.value_len;
    let reps = block_reps(shape);
    let value = Blob::new(vec![0x3Cu8; len]);
    let kv = KvPartition::new(
        shape.block_size,
        KvParams {
            ranges: vec![(0, 1023)],
            num_slots: 1024,
        },
    )
    .map_err(|e| e.to_string())?;
    let mut b = block(shape, Box::new(kv));
    // Fill the partition to about 40% of the block, as a store between
    // its repartition thresholds is.
    let keys = (shape.block_size * 2 / 5 / (len + 32)).max(1);
    let key = |i: usize| Blob::new(format!("bk{:08}", i % keys).into_bytes());
    for i in 0..keys {
        exec(
            &mut b,
            &DsOp::Put {
                key: key(i),
                value: value.clone(),
            },
        );
    }
    let mut i = 0;
    for _ in 0..BATCHES {
        let gets: Vec<DsOp> = (0..reps).map(|j| DsOp::Get { key: key(i + j) }).collect();
        let puts: Vec<DsOp> = (0..reps)
            .map(|j| DsOp::Put {
                key: key(i + j),
                value: value.clone(),
            })
            .collect();
        i += reps;
        timed("block.get", || {
            for op in &gets {
                black_box(exec(&mut b, op));
            }
        });
        timed("block.put", || {
            for op in &puts {
                black_box(exec(&mut b, op));
            }
        });
    }
    let recorded = DsResult::Replaced(Some(value.clone()));
    let mut rid = jiffy_proto::CLIENT_RID_BASE;
    for _ in 0..BATCHES {
        timed("block.replay_record", || {
            for _ in 0..reps {
                rid += 1;
                b.replay_record(rid, &recorded);
            }
        });
    }
    let append = DsOp::FileAppend {
        data: value.clone(),
    };
    for _ in 0..BATCHES {
        let mut f = block(shape, Box::new(FilePartition::new(shape.block_size, 0)));
        timed("block.append", || {
            for _ in 0..reps {
                black_box(exec(&mut f, &append));
            }
        });
    }
    let mut q = block(shape, Box::new(QueuePartition::new(shape.block_size, 0)));
    let enqueue = DsOp::Enqueue { item: value };
    for _ in 0..BATCHES {
        timed("block.enqueue", || {
            for _ in 0..reps {
                black_box(exec(&mut q, &enqueue));
            }
        });
        for _ in 0..reps {
            exec(&mut q, &DsOp::Dequeue);
        }
    }
    Ok(())
}

/// Operations per block-probe span: a quarter of what one block holds,
/// at most 256.
pub fn block_reps(shape: Shape) -> usize {
    (shape.block_size / 4 / (shape.value_len + 32)).clamp(1, 256)
}
