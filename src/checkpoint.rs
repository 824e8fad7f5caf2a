//! Checkpoint/restore and cross-process sharded merge for
//! [`StreamPipeline`] runs, built on the `pie-store` snapshot codec.
//!
//! PR 2/PR 3 made sampling outcomes mergeable and deterministic *within* a
//! process; this module extends both guarantees across the serialization
//! boundary:
//!
//! * **Checkpoint / resume** — [`StreamPipeline::ingest_session`] opens an
//!   incremental [`StreamIngestSession`] that replays the record stream in a
//!   canonical order and can [`checkpoint`](StreamIngestSession::checkpoint)
//!   its per-`(instance, shard)` sketch state (one snapshot file per part,
//!   plus a [`SnapshotManifest`] recording the format version, scheme, seed
//!   state, and record watermark) at any point.  A fresh process configures
//!   an identical pipeline and calls [`StreamPipeline::resume`]; after the
//!   remaining records are ingested, [`StreamIngestSession::finish`]
//!   produces a report **bit-identical** to the uninterrupted
//!   [`StreamPipeline::run`].
//! * **Cross-process sharded merge** — independent processes each own one
//!   key-partitioned shard: [`StreamPipeline::write_shard_snapshots`]
//!   ingests only that shard's records and writes its sketch snapshots; a
//!   coordinating process calls [`StreamPipeline::run_from_shard_snapshots`]
//!   to load every shard's files, feed them through the same binary merge
//!   tree as in-process ingestion ([`merge_finalize`]), and estimate —
//!   again bit-identical to the single-process run.
//!
//! Both paths work because the hash-seeded sketches are pure functions of
//! `(records, seeds)` and the codec round-trips their state bitwise; no
//! statistical property depends on *where* a sketch was built.
//!
//! ```
//! use partial_info_estimators::{Scheme, Statistic, StreamPipeline};
//! use partial_info_estimators::core::suite::max_weighted_suite;
//! use partial_info_estimators::datagen::{generate_two_hours, TrafficConfig};
//! use std::sync::Arc;
//!
//! let data = Arc::new(generate_two_hours(&TrafficConfig::small(3)));
//! let configure = || StreamPipeline::new()
//!     .dataset(Arc::clone(&data))
//!     .scheme(Scheme::pps(200.0))
//!     .shards(2)
//!     .estimators(max_weighted_suite())
//!     .statistic(Statistic::max_dominance())
//!     .trials(5);
//!
//! let dir = std::env::temp_dir().join(format!("pie-ckpt-doc-{}", std::process::id()));
//!
//! // Ingest half the stream, checkpoint, and drop the session.
//! let mut session = configure().ingest_session().unwrap();
//! let half = session.total_records() / 2;
//! session.ingest_records(half);
//! session.checkpoint(&dir).unwrap();
//! drop(session);
//!
//! // A fresh, identically configured pipeline resumes and finishes.
//! let mut resumed = configure().resume(&dir).unwrap();
//! resumed.ingest_all();
//! let report = resumed.finish().unwrap();
//!
//! // Bit-identical to the uninterrupted run.
//! assert_eq!(report, configure().run().unwrap());
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use pie_datagen::ShardedStream;
use pie_sampling::{InstanceSample, PoissonSketch, SamplingScheme, SeedAssignment, Sketch};
use pie_store::{Decode, Encode, SnapshotReader, SnapshotWriter, StoreError};

use crate::pipeline::{PipelineError, PipelineReport, Scheme, Stages};
use crate::stream::{merge_finalize, sketch_pools, StreamPipeline};

/// The checkpoint manifest's file name inside a snapshot directory.
pub const MANIFEST_FILE: &str = "manifest.pies";

/// The snapshot file holding one `(instance, shard)` part's per-trial
/// sketches.
fn part_file_name(instance: usize, shard: usize) -> String {
    format!("part_i{instance}_s{shard}.pies")
}

/// The manifest written by one shard-export process (named per shard so
/// independent writers never collide in a shared directory).
fn shard_manifest_name(shard: usize) -> String {
    format!("manifest_s{shard}.pies")
}

/// Why a checkpoint, resume, or cross-process merge failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The pipeline configuration itself is invalid (missing stage, bad
    /// scheme parameter, regime mismatch).
    Pipeline(PipelineError),
    /// Reading or writing snapshot files failed (I/O, corruption, version
    /// or manifest mismatch — see the wrapped [`StoreError`]).
    Store(StoreError),
    /// [`StreamIngestSession::finish`] was called before every record was
    /// ingested.
    Incomplete {
        /// Records ingested so far.
        ingested: u64,
        /// Records in the full stream.
        total: u64,
    },
    /// A shard index at or beyond the configured shard count.
    ShardOutOfRange {
        /// The requested shard.
        shard: usize,
        /// The configured shard count.
        shards: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Pipeline(e) => write!(f, "{e}"),
            Self::Store(e) => write!(f, "{e}"),
            Self::Incomplete { ingested, total } => write!(
                f,
                "cannot finish: only {ingested} of {total} records ingested (checkpoint and resume, or keep ingesting)"
            ),
            Self::ShardOutOfRange { shard, shards } => {
                write!(f, "shard {shard} out of range: pipeline has {shards} shards")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Pipeline(e) => Some(e),
            Self::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PipelineError> for CheckpointError {
    fn from(e: PipelineError) -> Self {
        Self::Pipeline(e)
    }
}

impl From<StoreError> for CheckpointError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

/// What a snapshot directory holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// A mid-stream checkpoint of a full (all-shard) ingest session.
    Checkpoint {
        /// Records ingested before the checkpoint, in the canonical
        /// (instance-major, shard-major, part-order) record order.
        watermark: u64,
    },
    /// A completed single-shard export written by one worker process.
    ShardExport {
        /// The shard this export covers.
        shard: u64,
    },
}

impl Encode for SnapshotKind {
    fn encode(&self, w: &mut dyn Write) -> Result<(), StoreError> {
        match *self {
            Self::Checkpoint { watermark } => {
                0u32.encode(w)?;
                watermark.encode(w)
            }
            Self::ShardExport { shard } => {
                1u32.encode(w)?;
                shard.encode(w)
            }
        }
    }
}

impl Decode for SnapshotKind {
    fn decode(r: &mut dyn Read) -> Result<Self, StoreError> {
        match u32::decode(r)? {
            0 => Ok(Self::Checkpoint {
                watermark: u64::decode(r)?,
            }),
            1 => Ok(Self::ShardExport {
                shard: u64::decode(r)?,
            }),
            tag => Err(StoreError::InvalidTag {
                what: "SnapshotKind",
                tag,
            }),
        }
    }
}

/// The manifest accompanying every snapshot directory: enough configuration
/// to refuse resuming or merging under a different setup.
///
/// The format version itself lives in every snapshot file's frame header
/// ([`pie_store::FORMAT_VERSION`]); the manifest pins the *experiment*
/// parameters — scheme, shard count, trial count, seed state (base salt),
/// stream shape — plus the [`SnapshotKind`] with its watermark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotManifest {
    /// Checkpoint or single-shard export, with the kind-specific cursor.
    pub kind: SnapshotKind,
    /// The sampling scheme the sketches were opened under.
    pub scheme: Scheme,
    /// Number of key-partitioned shards per instance.
    pub shards: u64,
    /// Number of Monte-Carlo trials (one sketch set per trial).
    pub trials: u64,
    /// The base hash salt; trial `t` derives its seeds from `base_salt + t`.
    pub base_salt: u64,
    /// Number of instances in the stream.
    pub num_instances: u64,
    /// Total records in the full (all-shard) stream — a cheap fingerprint of
    /// the dataset the snapshots were built from.
    pub num_records: u64,
}

impl Encode for SnapshotManifest {
    fn encode(&self, w: &mut dyn Write) -> Result<(), StoreError> {
        self.kind.encode(w)?;
        self.scheme.encode(w)?;
        self.shards.encode(w)?;
        self.trials.encode(w)?;
        self.base_salt.encode(w)?;
        self.num_instances.encode(w)?;
        self.num_records.encode(w)
    }
}

impl Decode for SnapshotManifest {
    fn decode(r: &mut dyn Read) -> Result<Self, StoreError> {
        Ok(Self {
            kind: SnapshotKind::decode(r)?,
            scheme: Scheme::decode(r)?,
            shards: u64::decode(r)?,
            trials: u64::decode(r)?,
            base_salt: u64::decode(r)?,
            num_instances: u64::decode(r)?,
            num_records: u64::decode(r)?,
        })
    }
}

impl SnapshotManifest {
    /// Checks every experiment parameter against a validated configuration,
    /// returning a [`StoreError::ManifestMismatch`] naming the first field
    /// that disagrees.
    fn check_against(&self, config: &Stages, stream: &ShardedStream) -> Result<(), StoreError> {
        let mismatch = |field: &'static str, expected: String, found: String| {
            Err(StoreError::ManifestMismatch {
                field,
                expected,
                found,
            })
        };
        if self.scheme != config.scheme {
            return mismatch(
                "scheme",
                format!("{:?}", config.scheme),
                format!("{:?}", self.scheme),
            );
        }
        if self.shards != stream.shards() as u64 {
            return mismatch(
                "shards",
                stream.shards().to_string(),
                self.shards.to_string(),
            );
        }
        if self.trials != config.trials {
            return mismatch("trials", config.trials.to_string(), self.trials.to_string());
        }
        if self.base_salt != config.base_salt {
            return mismatch(
                "base_salt",
                config.base_salt.to_string(),
                self.base_salt.to_string(),
            );
        }
        if self.num_instances != stream.num_instances() as u64 {
            return mismatch(
                "num_instances",
                stream.num_instances().to_string(),
                self.num_instances.to_string(),
            );
        }
        if self.num_records != stream.num_records() as u64 {
            return mismatch(
                "num_records",
                stream.num_records().to_string(),
                self.num_records.to_string(),
            );
        }
        Ok(())
    }
}

impl Stages {
    fn manifest(&self, kind: SnapshotKind, stream: &ShardedStream) -> SnapshotManifest {
        SnapshotManifest {
            kind,
            scheme: self.scheme,
            shards: stream.shards() as u64,
            trials: self.trials,
            base_salt: self.base_salt,
            num_instances: stream.num_instances() as u64,
            num_records: stream.num_records() as u64,
        }
    }

    /// The seeds of trial `t`: the live trial loop's `base_salt + t`.
    fn trial_seeds(&self, t: u64) -> SeedAssignment {
        SeedAssignment::independent_known(self.base_salt.wrapping_add(t))
    }

    /// Runs the shared estimation stage over precomputed per-trial samples —
    /// the same core (and the same parallel trial engine) the live pipelines
    /// use, so downstream numbers cannot drift between the paths.
    fn estimate_from(
        &self,
        samples: &[Vec<InstanceSample>],
    ) -> Result<PipelineReport, PipelineError> {
        self.estimate(|_worker| move |t, _seeds: &SeedAssignment| samples[t as usize].as_slice())
    }
}

/// Writes one `(instance, shard)` part file: a frame holding the trial
/// count, the writer's `stamp`, and that part's sketch for every trial.
///
/// The stamp binds the part file to its manifest (the checkpoint watermark,
/// or the shard index for exports): a checkpoint torn between the manifest
/// and some part files leaves stamps that disagree with the manifest, which
/// [`read_part_file`] turns into a typed error instead of a silently wrong
/// resume.
fn write_part_file<'a>(
    path: &Path,
    stamp: u64,
    sketches: impl ExactSizeIterator<Item = &'a PoissonSketch>,
) -> Result<(), StoreError> {
    let mut writer = SnapshotWriter::new(BufWriter::new(File::create(path)?));
    writer.write(&(sketches.len() as u64))?;
    writer.write(&stamp)?;
    for sketch in sketches {
        writer.write(sketch)?;
    }
    writer.finish()?;
    Ok(())
}

/// Reads instance `instance`'s part file back, validating the per-file
/// trial count and stamp, and that every sketch was opened for its slot:
/// this configuration's scheme, the instance, and its trial's seeds.  A
/// part file copied in from another run is a typed error, never a sketch
/// that panics the merge or silently skews it.
fn read_part_file(
    path: &Path,
    config: &Stages,
    instance: usize,
    stamp: u64,
) -> Result<Vec<PoissonSketch>, StoreError> {
    let trials = config.trials;
    let mut reader = SnapshotReader::new(BufReader::new(File::open(path)?))?;
    let found: u64 = reader.read()?;
    if found != trials {
        return Err(StoreError::ManifestMismatch {
            field: "trials in part file",
            expected: trials.to_string(),
            found: found.to_string(),
        });
    }
    let found_stamp: u64 = reader.read()?;
    if found_stamp != stamp {
        return Err(StoreError::ManifestMismatch {
            field: "part-file stamp (torn or mixed snapshot directory)",
            expected: stamp.to_string(),
            found: found_stamp.to_string(),
        });
    }
    let mut sketches = Vec::with_capacity(usize::try_from(trials).unwrap_or(0).min(1 << 16));
    for t in 0..trials {
        let sketch: PoissonSketch = reader.read()?;
        let slot = config
            .scheme
            .sketch(&config.trial_seeds(t), instance as u64)
            .slot();
        if sketch.slot() != slot {
            return Err(StoreError::ManifestMismatch {
                field: "sketch slot (scheme, instance, seeds) in part file",
                expected: format!("{slot:?}"),
                found: format!("{:?}", sketch.slot()),
            });
        }
        sketches.push(sketch);
    }
    reader.finish()?;
    Ok(sketches)
}

/// Writes every part file of the full `[trial][shard][instance]` layout.
fn write_parts(
    dir: &Path,
    stamp: u64,
    pools: &[Vec<Vec<PoissonSketch>>],
    stream: &ShardedStream,
) -> Result<(), StoreError> {
    for s in 0..stream.shards() {
        for i in 0..stream.num_instances() {
            write_part_file(
                &dir.join(part_file_name(i, s)),
                stamp,
                pools.iter().map(|trial| &trial[s][i]),
            )?;
        }
    }
    Ok(())
}

/// Loads the full `[trial][shard][instance]` sketch layout from a snapshot
/// directory containing every `(instance, shard)` part file; `stamp_of`
/// gives the stamp each shard's files must carry.
fn load_trial_pools(
    dir: &Path,
    config: &Stages,
    stream: &ShardedStream,
    stamp_of: impl Fn(usize) -> u64,
) -> Result<Vec<Vec<Vec<PoissonSketch>>>, StoreError> {
    let trial_count = usize::try_from(config.trials).map_err(|_| StoreError::InvalidValue {
        what: "trial count does not fit in usize",
    })?;
    let mut pools: Vec<Vec<Vec<PoissonSketch>>> = (0..trial_count)
        .map(|_| {
            (0..stream.shards())
                .map(|_| Vec::with_capacity(stream.num_instances()))
                .collect()
        })
        .collect();
    for i in 0..stream.num_instances() {
        // `s` names both the file and the pool column, so a range loop is
        // the clearest shape here.
        #[allow(clippy::needless_range_loop)]
        for s in 0..stream.shards() {
            let path = dir.join(part_file_name(i, s));
            for (t, sketch) in read_part_file(&path, config, i, stamp_of(s))?
                .into_iter()
                .enumerate()
            {
                pools[t][s].push(sketch);
            }
        }
    }
    Ok(pools)
}

/// Merges and finalizes each trial's sketches into its per-instance samples.
fn samples_per_trial(mut pools: Vec<Vec<Vec<PoissonSketch>>>) -> Vec<Vec<InstanceSample>> {
    pools
        .iter_mut()
        .map(|trial| merge_finalize(trial))
        .collect()
}

/// An incremental, checkpointable ingest pass over a [`StreamPipeline`]'s
/// record stream.
///
/// The session replays records in a canonical order — instance-major, then
/// shard-major, then each part's key-ascending record order — so a single
/// `watermark` (count of records ingested) fully describes the resume
/// position.  Each record is routed into one sketch per Monte-Carlo trial;
/// per-`(instance, shard)` sketch sequences are identical to what
/// [`StreamPipeline::run`] feeds its pooled sketches, which is why
/// [`finish`](Self::finish) reproduces the live report bit for bit.
#[must_use = "an ingest session does nothing until records are ingested"]
pub struct StreamIngestSession {
    config: Stages,
    stream: ShardedStream,
    /// One sketch per `(trial, shard, instance)`, laid out `[trial][shard]
    /// [instance]` so each trial's slice is exactly the
    /// `pools[shard][instance]` shape [`merge_finalize`] consumes.
    sketches: Vec<Vec<Vec<PoissonSketch>>>,
    watermark: u64,
    total: u64,
}

impl fmt::Debug for StreamIngestSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamIngestSession")
            .field("scheme", &self.config.scheme)
            .field("shards", &self.stream.shards())
            .field("trials", &self.config.trials)
            .field("watermark", &self.watermark)
            .field("total", &self.total)
            .finish_non_exhaustive()
    }
}

impl StreamIngestSession {
    /// Records ingested so far (the checkpoint watermark).
    #[must_use]
    pub fn ingested(&self) -> u64 {
        self.watermark
    }

    /// Records in the complete stream.
    #[must_use]
    pub fn total_records(&self) -> u64 {
        self.total
    }

    /// Records still to ingest before [`finish`](Self::finish) can run.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.total - self.watermark
    }

    /// Whether every record has been ingested.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.watermark == self.total
    }

    /// Ingests up to `max_records` further records in canonical order,
    /// returning how many were actually ingested (less than `max_records`
    /// only at end of stream).
    pub fn ingest_records(&mut self, max_records: u64) -> u64 {
        let target = self.watermark.saturating_add(max_records).min(self.total);
        let mut cursor = 0u64; // canonical index of the current part's start
        for i in 0..self.stream.num_instances() {
            for s in 0..self.stream.shards() {
                let part = self.stream.part(i, s);
                let part_end = cursor + part.len() as u64;
                if part_end > self.watermark && cursor < target {
                    let from = self.watermark.max(cursor) - cursor;
                    let to = target.min(part_end) - cursor;
                    for &(key, value) in &part[from as usize..to as usize] {
                        for trial in &mut self.sketches {
                            trial[s][i].ingest(key, value);
                        }
                    }
                }
                cursor = part_end;
                if cursor >= target {
                    let ingested = target - self.watermark;
                    self.watermark = target;
                    return ingested;
                }
            }
        }
        let ingested = target - self.watermark;
        self.watermark = target;
        ingested
    }

    /// Ingests every remaining record.
    pub fn ingest_all(&mut self) {
        let remaining = self.remaining();
        self.ingest_records(remaining);
    }

    /// Writes the session's full state into `dir` (created if absent): the
    /// [`SnapshotManifest`] plus one versioned, checksummed snapshot file
    /// per `(instance, shard)` part holding that part's sketch for every
    /// trial.
    ///
    /// The session stays usable — checkpoints can be taken periodically
    /// while ingestion continues.
    ///
    /// # Errors
    /// Propagates file I/O and encoding failures.
    pub fn checkpoint(&self, dir: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(StoreError::Io)?;
        // Part files first, each stamped with this checkpoint's watermark;
        // the manifest (carrying the same watermark) goes last.  A crash
        // anywhere in between leaves stamps that disagree with whichever
        // manifest survives, so a torn checkpoint over an older one fails
        // resume with a typed stamp mismatch instead of silently mixing two
        // states.
        write_parts(dir, self.watermark, &self.sketches, &self.stream)?;
        let manifest = self.config.manifest(
            SnapshotKind::Checkpoint {
                watermark: self.watermark,
            },
            &self.stream,
        );
        pie_store::write_snapshot_file(dir.join(MANIFEST_FILE), &manifest)?;
        Ok(())
    }

    /// Merges each trial's shard sketches, finalizes the per-instance
    /// samples, and runs the shared estimation stage — producing a report
    /// bit-identical to [`StreamPipeline::run`] on the same configuration.
    ///
    /// # Errors
    /// [`CheckpointError::Incomplete`] if records remain; estimation itself
    /// cannot fail once the configuration validated.
    pub fn finish(self) -> Result<PipelineReport, CheckpointError> {
        let (config, samples) = self.into_samples()?;
        Ok(config.estimate_from(&samples)?)
    }

    /// Merges and finalizes the per-trial samples into a servable
    /// [`CatalogEntry`](crate::CatalogEntry) instead of estimating — the
    /// bridge from checkpointed (PR 4) snapshot state to `pie-serve`'s
    /// sketch catalog: ingest, checkpoint, resume in a serving process,
    /// finish into the catalog, answer queries.
    ///
    /// # Errors
    /// [`CheckpointError::Incomplete`] if records remain.
    pub fn finish_into_catalog(self) -> Result<crate::CatalogEntry, CheckpointError> {
        let shards = self.stream.shards();
        let (config, samples) = self.into_samples()?;
        Ok(crate::CatalogEntry::from_parts(
            config.dataset,
            config.scheme,
            shards,
            config.trials,
            config.base_salt,
            samples,
        ))
    }

    /// Merges each trial's shard sketches and finalizes the per-instance
    /// samples, once every record is ingested.
    fn into_samples(self) -> Result<(Stages, Vec<Vec<InstanceSample>>), CheckpointError> {
        if !self.is_complete() {
            return Err(CheckpointError::Incomplete {
                ingested: self.watermark,
                total: self.total,
            });
        }
        Ok((self.config, samples_per_trial(self.sketches)))
    }
}

impl StreamPipeline {
    /// Opens an incremental, checkpointable ingest session over this
    /// pipeline's record stream (all stages must be configured, exactly as
    /// for [`run`](Self::run)).
    ///
    /// # Errors
    /// Returns a [`PipelineError`] (wrapped) if a stage is missing, a scheme
    /// parameter is out of range, or the estimator regime does not match.
    pub fn ingest_session(self) -> Result<StreamIngestSession, CheckpointError> {
        let (config, stream) = self.validate()?;
        // Trial `t` opens its sketches under the live trial loop's seeds.
        let sketches = (0..config.trials)
            .map(|t| sketch_pools(&config.scheme, &stream, &config.trial_seeds(t)))
            .collect();
        let total = stream.num_records() as u64;
        Ok(StreamIngestSession {
            config,
            stream,
            sketches,
            watermark: 0,
            total,
        })
    }

    /// Restores an ingest session from a checkpoint directory written by
    /// [`StreamIngestSession::checkpoint`].
    ///
    /// The pipeline must be configured identically to the one that wrote the
    /// checkpoint (same dataset, scheme, shards, trials, and base salt); the
    /// manifest is validated field by field and any disagreement is a typed
    /// [`StoreError::ManifestMismatch`].
    ///
    /// # Errors
    /// Configuration, manifest, and snapshot-file failures.
    pub fn resume(self, dir: impl AsRef<Path>) -> Result<StreamIngestSession, CheckpointError> {
        let dir = dir.as_ref();
        let (config, stream) = self.validate()?;
        let manifest: SnapshotManifest = pie_store::read_snapshot_file(dir.join(MANIFEST_FILE))?;
        manifest.check_against(&config, &stream)?;
        let watermark = match manifest.kind {
            SnapshotKind::Checkpoint { watermark } => watermark,
            SnapshotKind::ShardExport { .. } => {
                return Err(StoreError::ManifestMismatch {
                    field: "kind",
                    expected: "checkpoint".to_string(),
                    found: "shard export".to_string(),
                }
                .into())
            }
        };
        if watermark > stream.num_records() as u64 {
            return Err(StoreError::InvalidValue {
                what: "checkpoint watermark exceeds the stream's record count",
            }
            .into());
        }
        let sketches = load_trial_pools(dir, &config, &stream, |_| watermark)?;
        let total = stream.num_records() as u64;
        Ok(StreamIngestSession {
            config,
            stream,
            sketches,
            watermark,
            total,
        })
    }

    /// The shard-worker half of the cross-process merge path: ingests
    /// **only** `shard`'s key-partition of every instance's stream (for
    /// every trial) and writes that column's snapshot files plus a per-shard
    /// manifest into `dir`.
    ///
    /// Independent processes call this for disjoint shards of the same
    /// configuration — file names never collide, so they may share `dir`.
    /// The coordinating process then merges with
    /// [`run_from_shard_snapshots`](Self::run_from_shard_snapshots).
    ///
    /// # Errors
    /// Configuration and file I/O failures, or a `shard` at or beyond the
    /// configured shard count.
    pub fn write_shard_snapshots(
        self,
        shard: usize,
        dir: impl AsRef<Path>,
    ) -> Result<(), CheckpointError> {
        let dir = dir.as_ref();
        let (config, stream) = self.validate()?;
        if shard >= stream.shards() {
            return Err(CheckpointError::ShardOutOfRange {
                shard,
                shards: stream.shards(),
            });
        }
        std::fs::create_dir_all(dir).map_err(StoreError::Io)?;
        // Only this worker's column is allocated — the other shards'
        // sketches belong to other processes.  `column[t][i]` is trial
        // `t`'s sketch of instance `i`.
        let column: Vec<Vec<PoissonSketch>> = (0..config.trials)
            .map(|t| {
                let seeds = config.trial_seeds(t);
                (0..stream.num_instances())
                    .map(|i| {
                        let mut sketch =
                            config
                                .scheme
                                .sketch_for_shard(&seeds, i as u64, shard as u64);
                        for &(key, value) in stream.part(i, shard) {
                            sketch.ingest(key, value);
                        }
                        sketch
                    })
                    .collect()
            })
            .collect();
        for i in 0..stream.num_instances() {
            write_part_file(
                &dir.join(part_file_name(i, shard)),
                shard as u64,
                column.iter().map(|trial| &trial[i]),
            )?;
        }
        // Manifest last: its presence signals the shard's part files are
        // complete, so a torn export is a missing-manifest error for the
        // coordinator rather than a partial read.
        let manifest = config.manifest(
            SnapshotKind::ShardExport {
                shard: shard as u64,
            },
            &stream,
        );
        pie_store::write_snapshot_file(dir.join(shard_manifest_name(shard)), &manifest)?;
        Ok(())
    }

    /// The coordinator half of the cross-process merge path: loads every
    /// shard's snapshot files from `dir` (validating each shard's manifest
    /// against this configuration), feeds them through the same binary merge
    /// tree as in-process ingestion, and runs the shared estimation stage.
    ///
    /// The report is **bit-identical** to [`run`](Self::run) on the same
    /// configuration — sharding across processes, like sharding across
    /// threads, is an execution strategy, not a statistical choice.
    ///
    /// # Errors
    /// Configuration, manifest, and snapshot-file failures (a missing shard
    /// surfaces as the I/O error of its absent manifest or part file).
    pub fn run_from_shard_snapshots(
        self,
        dir: impl AsRef<Path>,
    ) -> Result<PipelineReport, CheckpointError> {
        let dir = dir.as_ref();
        let (config, stream) = self.validate()?;
        for s in 0..stream.shards() {
            let manifest: SnapshotManifest =
                pie_store::read_snapshot_file(dir.join(shard_manifest_name(s)))?;
            manifest.check_against(&config, &stream)?;
            if manifest.kind != (SnapshotKind::ShardExport { shard: s as u64 }) {
                return Err(StoreError::ManifestMismatch {
                    field: "kind",
                    expected: format!("shard export for shard {s}"),
                    found: format!("{:?}", manifest.kind),
                }
                .into());
            }
        }
        let samples = samples_per_trial(load_trial_pools(dir, &config, &stream, |s| s as u64)?);
        Ok(config.estimate_from(&samples)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Statistic;
    use pie_core::suite::{max_oblivious_suite, max_weighted_suite};
    use pie_datagen::{generate_two_hours, paper_example, Dataset, TrafficConfig};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A unique, auto-created temp directory per test call site.
    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("pie-checkpoint-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn pps_pipeline(data: &Arc<Dataset>, shards: usize) -> StreamPipeline {
        StreamPipeline::new()
            .dataset(Arc::clone(data))
            .scheme(Scheme::pps(150.0))
            .shards(shards)
            .estimators(max_weighted_suite())
            .statistic(Statistic::max_dominance())
            .trials(12)
            .base_salt(5)
    }

    fn oblivious_pipeline(data: &Arc<Dataset>, shards: usize) -> StreamPipeline {
        StreamPipeline::new()
            .dataset(Arc::clone(data))
            .scheme(Scheme::oblivious(0.5))
            .shards(shards)
            .estimators(max_oblivious_suite(0.5, 0.5))
            .statistic(Statistic::max_dominance())
            .trials(40)
            .base_salt(2)
    }

    #[test]
    fn session_without_checkpoint_matches_run_bitwise() {
        let data = Arc::new(generate_two_hours(&TrafficConfig::small(4)));
        for shards in [1, 3] {
            let mut session = pps_pipeline(&data, shards).ingest_session().unwrap();
            assert_eq!(session.remaining(), session.total_records());
            session.ingest_all();
            assert!(session.is_complete());
            let report = session.finish().unwrap();
            assert_eq!(report, pps_pipeline(&data, shards).run().unwrap());
        }
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_for_both_regimes() {
        let data = Arc::new(generate_two_hours(&TrafficConfig::small(4)));
        for shards in [2, 3] {
            let dir = temp_dir("pps");
            let mut session = pps_pipeline(&data, shards).ingest_session().unwrap();
            let half = session.total_records() / 2;
            assert_eq!(session.ingest_records(half), half);
            session.checkpoint(&dir).unwrap();
            drop(session);
            let mut resumed = pps_pipeline(&data, shards).resume(&dir).unwrap();
            assert_eq!(resumed.ingested(), half);
            resumed.ingest_all();
            let report = resumed.finish().unwrap();
            assert_eq!(
                report,
                pps_pipeline(&data, shards).run().unwrap(),
                "{shards} shards"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }

        let data = Arc::new(paper_example().take_instances(2));
        let dir = temp_dir("oblivious");
        let mut session = oblivious_pipeline(&data, 2).ingest_session().unwrap();
        let third = session.total_records() / 3;
        session.ingest_records(third);
        session.checkpoint(&dir).unwrap();
        drop(session);
        let mut resumed = oblivious_pipeline(&data, 2).resume(&dir).unwrap();
        resumed.ingest_all();
        assert_eq!(
            resumed.finish().unwrap(),
            oblivious_pipeline(&data, 2).run().unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repeated_checkpoints_keep_the_session_usable() {
        let data = Arc::new(generate_two_hours(&TrafficConfig::small(3)));
        let dir = temp_dir("repeat");
        let mut session = pps_pipeline(&data, 2).ingest_session().unwrap();
        loop {
            let ingested = session.ingest_records(500);
            session.checkpoint(&dir).unwrap();
            if ingested == 0 {
                break;
            }
        }
        let report = session.finish().unwrap();
        // The final checkpoint is a complete-state snapshot: resuming it and
        // finishing immediately reproduces the same report.
        let resumed = pps_pipeline(&data, 2).resume(&dir).unwrap();
        assert!(resumed.is_complete());
        assert_eq!(resumed.finish().unwrap(), report);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_checkpoint_over_an_older_one_is_detected() {
        // Simulate a crash between writing part files and the manifest (or
        // vice versa): an old checkpoint's part files paired with a newer
        // manifest.  The per-file watermark stamp must catch the mix.
        let data = Arc::new(generate_two_hours(&TrafficConfig::small(3)));
        let old_dir = temp_dir("torn-old");
        let new_dir = temp_dir("torn-new");
        let mut session = pps_pipeline(&data, 2).ingest_session().unwrap();
        session.ingest_records(100);
        session.checkpoint(&old_dir).unwrap();
        session.ingest_records(100);
        session.checkpoint(&new_dir).unwrap();
        // Torn state: newer manifest over older part files.
        std::fs::copy(new_dir.join(MANIFEST_FILE), old_dir.join(MANIFEST_FILE)).unwrap();
        let err = pps_pipeline(&data, 2).resume(&old_dir).unwrap_err();
        assert!(
            matches!(
                &err,
                CheckpointError::Store(StoreError::ManifestMismatch { field, .. })
                    if field.contains("stamp")
            ),
            "{err}"
        );
        std::fs::remove_dir_all(&old_dir).unwrap();
        std::fs::remove_dir_all(&new_dir).unwrap();
    }

    /// Copies one part file from a directory written by `other` into one
    /// written by `pps_pipeline(data, 2)` (stamps agree), and checks that
    /// both resume and the shard merge refuse it with a typed error instead
    /// of panicking in the merge.
    fn assert_stale_part_is_rejected(data: &Arc<Dataset>, other: impl Fn() -> StreamPipeline) {
        let stale_part = part_file_name(0, 1);
        let assert_slot_mismatch = |err: CheckpointError| {
            assert!(
                matches!(
                    &err,
                    CheckpointError::Store(StoreError::ManifestMismatch { field, .. })
                        if field.contains("slot")
                ),
                "{err}"
            );
        };

        let (dir, other_dir) = (temp_dir("stale"), temp_dir("stale-other"));
        for (pipeline, dir) in [(pps_pipeline(data, 2), &dir), (other(), &other_dir)] {
            let mut session = pipeline.ingest_session().unwrap();
            session.ingest_records(100);
            session.checkpoint(dir).unwrap();
        }
        std::fs::copy(other_dir.join(&stale_part), dir.join(&stale_part)).unwrap();
        assert_slot_mismatch(pps_pipeline(data, 2).resume(&dir).unwrap_err());
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&other_dir).unwrap();

        let (dir, other_dir) = (temp_dir("stale-export"), temp_dir("stale-export-other"));
        for s in 0..2 {
            pps_pipeline(data, 2)
                .write_shard_snapshots(s, &dir)
                .unwrap();
            other().write_shard_snapshots(s, &other_dir).unwrap();
        }
        std::fs::copy(other_dir.join(&stale_part), dir.join(&stale_part)).unwrap();
        assert_slot_mismatch(
            pps_pipeline(data, 2)
                .run_from_shard_snapshots(&dir)
                .unwrap_err(),
        );
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&other_dir).unwrap();
    }

    #[test]
    fn stale_part_file_with_another_scheme_parameter_is_rejected() {
        let data = Arc::new(generate_two_hours(&TrafficConfig::small(3)));
        assert_stale_part_is_rejected(&data, || pps_pipeline(&data, 2).scheme(Scheme::pps(160.0)));
    }

    #[test]
    fn stale_part_file_from_the_other_regime_is_rejected() {
        let data = Arc::new(generate_two_hours(&TrafficConfig::small(3)));
        assert_stale_part_is_rejected(&data, || {
            pps_pipeline(&data, 2)
                .scheme(Scheme::oblivious(0.5))
                .estimators(max_oblivious_suite(0.5, 0.5))
        });
    }

    #[test]
    fn finish_before_completion_is_a_typed_error() {
        let data = Arc::new(generate_two_hours(&TrafficConfig::small(3)));
        let mut session = pps_pipeline(&data, 2).ingest_session().unwrap();
        session.ingest_records(10);
        let err = session.finish().unwrap_err();
        assert!(
            matches!(err, CheckpointError::Incomplete { ingested: 10, .. }),
            "{err}"
        );
    }

    #[test]
    fn resume_rejects_mismatched_configuration() {
        let data = Arc::new(generate_two_hours(&TrafficConfig::small(3)));
        let dir = temp_dir("mismatch");
        let session = pps_pipeline(&data, 2).ingest_session().unwrap();
        session.checkpoint(&dir).unwrap();
        // Different tau_star.
        let err = pps_pipeline(&data, 2)
            .scheme(Scheme::pps(151.0))
            .resume(&dir)
            .unwrap_err();
        assert!(
            matches!(
                &err,
                CheckpointError::Store(StoreError::ManifestMismatch {
                    field: "scheme",
                    ..
                })
            ),
            "{err}"
        );
        // Different shard count.
        let err = pps_pipeline(&data, 3).resume(&dir).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::Store(StoreError::ManifestMismatch {
                field: "shards",
                ..
            })
        ));
        // Different trial count.
        let err = pps_pipeline(&data, 2).trials(13).resume(&dir).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::Store(StoreError::ManifestMismatch {
                field: "trials",
                ..
            })
        ));
        // Different dataset shape (instance/record-count fingerprint; a
        // same-shape dataset with different values is indistinguishable to
        // the manifest — resuming it is the caller's responsibility).
        let other = Arc::new(paper_example());
        let err = pps_pipeline(&other, 2).resume(&dir).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::Store(StoreError::ManifestMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_shard_export_directories_and_vice_versa() {
        let data = Arc::new(generate_two_hours(&TrafficConfig::small(3)));
        let dir = temp_dir("kind");
        pps_pipeline(&data, 2)
            .write_shard_snapshots(0, &dir)
            .unwrap();
        pps_pipeline(&data, 2)
            .write_shard_snapshots(1, &dir)
            .unwrap();
        let err = pps_pipeline(&data, 2).resume(&dir).unwrap_err();
        assert!(matches!(err, CheckpointError::Store(_)), "{err}");
        // A checkpoint directory is not a shard-export directory either.
        let ckpt = temp_dir("kind-ckpt");
        let session = pps_pipeline(&data, 2).ingest_session().unwrap();
        session.checkpoint(&ckpt).unwrap();
        let err = pps_pipeline(&data, 2)
            .run_from_shard_snapshots(&ckpt)
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Store(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&ckpt).unwrap();
    }

    #[test]
    fn in_process_shard_snapshot_merge_matches_run_bitwise() {
        // The cross-process smoke test (tests/cross_process.rs) exercises
        // real child processes; this covers the same path in-process at two
        // shard counts for both regimes.
        let data = Arc::new(generate_two_hours(&TrafficConfig::small(4)));
        for shards in [2, 4] {
            let dir = temp_dir("merge");
            for s in 0..shards {
                pps_pipeline(&data, shards)
                    .write_shard_snapshots(s, &dir)
                    .unwrap();
            }
            let merged = pps_pipeline(&data, shards)
                .run_from_shard_snapshots(&dir)
                .unwrap();
            assert_eq!(
                merged,
                pps_pipeline(&data, shards).run().unwrap(),
                "{shards} shards"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }

        let data = Arc::new(paper_example().take_instances(2));
        let dir = temp_dir("merge-oblivious");
        for s in 0..2 {
            oblivious_pipeline(&data, 2)
                .write_shard_snapshots(s, &dir)
                .unwrap();
        }
        let merged = oblivious_pipeline(&data, 2)
            .run_from_shard_snapshots(&dir)
            .unwrap();
        assert_eq!(merged, oblivious_pipeline(&data, 2).run().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ingest_session_rejects_zero_trials() {
        let data = Arc::new(paper_example().take_instances(2));
        let err = pps_pipeline(&data, 2)
            .trials(0)
            .ingest_session()
            .unwrap_err();
        assert!(
            matches!(err, CheckpointError::Pipeline(PipelineError::ZeroTrials)),
            "{err}"
        );
    }

    #[test]
    fn shard_out_of_range_is_a_typed_error() {
        let data = Arc::new(generate_two_hours(&TrafficConfig::small(3)));
        let dir = temp_dir("range");
        let err = pps_pipeline(&data, 2)
            .write_shard_snapshots(2, &dir)
            .unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::ShardOutOfRange {
                shard: 2,
                shards: 2
            }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_and_corrupted_snapshots_are_typed_errors() {
        let data = Arc::new(generate_two_hours(&TrafficConfig::small(3)));
        let dir = temp_dir("corrupt");
        // Missing manifest.
        let err = pps_pipeline(&data, 2).resume(&dir).unwrap_err();
        assert!(matches!(err, CheckpointError::Store(_)));
        // Corrupted part file.
        let session = pps_pipeline(&data, 2).ingest_session().unwrap();
        session.checkpoint(&dir).unwrap();
        let part = dir.join(part_file_name(0, 0));
        let mut bytes = std::fs::read(&part).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&part, &bytes).unwrap();
        let err = pps_pipeline(&data, 2).resume(&dir).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::Store(StoreError::ChecksumMismatch { .. })
            ),
            "{err}"
        );
        // Truncated part file.
        let session = pps_pipeline(&data, 2).ingest_session().unwrap();
        session.checkpoint(&dir).unwrap();
        let bytes = std::fs::read(&part).unwrap();
        std::fs::write(&part, &bytes[..bytes.len() - 3]).unwrap();
        let err = pps_pipeline(&data, 2).resume(&dir).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Store(StoreError::Truncated { .. })),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
