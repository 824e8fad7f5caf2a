//! # pie-store — versioned binary snapshots for sketches and reports
//!
//! Mergeable-summary systems earn their keep through a compact, versioned
//! wire format: a sketch that only lives in one process's heap dies with
//! that process.  This crate is the persistence substrate of the workspace —
//! pure `std`, no dependencies — providing:
//!
//! * [`Encode`] / [`Decode`] — little-endian, bit-exact binary codec traits
//!   (floats round-trip through their IEEE-754 bit patterns), with
//!   primitive, tuple, `Option`, `Vec`, and `String` implementations
//!   ([`codec`]);
//! * [`frame`] — the shared self-describing frame layer (magic, version,
//!   payload length, FNV-1a checksum) over any [`std::io::Write`] /
//!   [`std::io::Read`], with a size-bounded reader for untrusted streams;
//!   snapshot files and the `pie-serve` wire protocol are both instances
//!   of it;
//! * [`SnapshotWriter`] / [`SnapshotReader`] — one frame per snapshot,
//!   validated fully before any payload byte reaches a decoder
//!   ([`snapshot`]);
//! * [`StoreError`] — typed failures for every corruption mode: truncation,
//!   bad magic, unsupported version, checksum mismatch, invalid tags and
//!   values, manifest mismatches ([`error`]).  Malformed input never
//!   panics.
//!
//! The concrete codecs live next to the types they serialize: every sketch
//! family in `pie-sampling` (oblivious Poisson, PPS Poisson, bottom-k) plus
//! `InstanceSample` and `SeedAssignment` implement
//! [`Encode`]/[`Decode`] there, `RunningStats` and `Evaluation` in
//! `pie-analysis`, and pipeline reports, checkpoint manifests, and the
//! cross-process shard-merge path in the umbrella crate.
//!
//! # Determinism contract
//!
//! Encoding is canonical: the same logical value always produces the same
//! bytes, and `decode(encode(x))` reproduces `x` *bitwise* — which is what
//! lets checkpoint → resume and cross-process shard merges yield reports
//! bit-identical to an uninterrupted single-process run.
//!
//! ```
//! use pie_store::{snapshot_from_slice, snapshot_to_vec};
//!
//! let stats = vec![(1u64, 2.5f64), (7, -0.0)];
//! let bytes = snapshot_to_vec(&stats).unwrap();
//! let back: Vec<(u64, f64)> = snapshot_from_slice(&bytes).unwrap();
//! assert_eq!(back, stats);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod codec;
pub mod error;
pub mod frame;
pub mod snapshot;

pub use codec::{decode_from_slice, encode_to_vec, Decode, Encode};
pub use error::StoreError;
pub use frame::Checksum;
pub use snapshot::{
    read_snapshot_file, snapshot_from_slice, snapshot_to_vec, write_snapshot_file, SnapshotReader,
    SnapshotWriter, FORMAT_VERSION, MAGIC,
};
