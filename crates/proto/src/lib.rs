//! Wire protocol for Jiffy.
//!
//! The paper implements its RPC layer on Apache Thrift with two
//! optimizations: asynchronous *framed* IO and thin client wrappers over
//! the C serialization core (§4.2.2). This crate is the equivalent
//! substrate built from scratch:
//!
//! - [`wire`] — a compact, non-self-describing binary serde format
//!   (little-endian fixed-width scalars, `u32` length prefixes, enum
//!   variant indices). Plays the role of Thrift's binary protocol.
//! - [`frame`] — `u32` length-prefixed framing over any `Read`/`Write`
//!   pair, with a sanity cap on frame size.
//! - [`messages`] — every request/response exchanged between clients,
//!   memory servers and the controller.
//! - [`journal`] — the controller's write-ahead metadata journal and
//!   snapshot record types (crash recovery, DESIGN.md §11).

pub mod frame;
pub mod journal;
pub mod messages;
pub mod wire;

pub use frame::{
    encode_frame, read_frame, read_frame_into, write_frame, FrameAssembler, MAX_FRAME_LEN,
};
pub use journal::{JournalBatch, JournalOp, JournalRecord, JournalSnapshot};
pub use messages::{
    Blob, BlockLocation, ControlRequest, ControlResponse, ControllerStats, DagNodeSpec,
    DataRequest, DataResponse, DsOp, DsResult, DsType, Endpoint, Envelope, MergeSpec, Notification,
    OpKind, PartitionView, PrefixView, Replica, ServerInfo, ShardMap, SlotRange, SplitSpec,
    TenantLimit, TenantLoad, TenantStatsEntry, CLIENT_RID_BASE, INTERNAL_RID,
};
pub use wire::{encoded_len, from_bytes, to_bytes, to_bytes_into};
