//! The concurrent sketch catalog: name → finalized (or building) sketch.
//!
//! [`SketchCatalog`] is the server's shared state.  It is sharded across
//! independent [`RwLock`]s (shard = hash of the name), so queries against
//! different sketches never contend, estimation itself runs entirely
//! outside the locks (entries are handed out as cheap [`Arc`] clones), and
//! a slow `LoadSnapshot` or finalize only blocks its own shard.
//!
//! Entries come from two sources, mirroring the wire protocol:
//!
//! * [`SketchCatalog::load_snapshot`] — a persisted
//!   [`CatalogEntry`] snapshot file (written by
//!   [`CatalogEntry::save`], `StreamPipeline::into_catalog_entry`, or a
//!   checkpoint-resumed session's `finish_into_catalog`);
//! * [`SketchCatalog::ingest`] — live record batches that accumulate in a
//!   *building* slot until a final batch turns them into a dataset and
//!   samples it exactly as the in-process pipelines would.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use partial_info_estimators::{CatalogEntry, CatalogError, PipelineReport};
use pie_datagen::Dataset;
use pie_sampling::hash::mix64;
use pie_sampling::Instance;

use crate::error::ServeError;
use crate::wire::{IngestRecord, SketchConfig, SketchInfo};

/// Number of independent lock shards.  A small power of two: enough to keep
/// unrelated sketches from contending, cheap to scan for listings.
const LOCK_SHARDS: usize = 8;

/// Highest instance index an ingested record may carry.  Bounds the
/// per-instance allocations a hostile index could force (and the paper's
/// estimators operate over a handful of instances anyway).
pub const MAX_INSTANCES: u64 = 1024;

/// Highest Monte-Carlo trial count a wire configuration may request; each
/// trial costs one full sampling pass at finalize time.
pub const MAX_TRIALS: u64 = 4096;

/// Highest ingest-shard count a wire configuration may request.
pub const MAX_SHARDS: u64 = 64;

/// One catalog slot: a sketch being assembled, finalizing, or servable.
enum Slot {
    /// Records are still arriving; the configuration is pinned by the first
    /// batch.
    Building {
        /// The configuration every batch must agree on.
        config: SketchConfig,
        /// Records buffered so far, in arrival order.
        records: Vec<IngestRecord>,
    },
    /// A final batch arrived and the entry is being built *outside* the
    /// shard lock; no further records are accepted.
    Finalizing {
        /// The pinned configuration.
        config: SketchConfig,
        /// Records handed to the build.
        buffered: u64,
    },
    /// Finalized and servable.
    Ready(Arc<CatalogEntry>),
}

impl Slot {
    fn info(&self, name: &str) -> SketchInfo {
        match self {
            Slot::Building { config, records } => SketchInfo {
                name: name.to_string(),
                config: *config,
                instances: records.iter().map(|r| r.instance + 1).max().unwrap_or(0),
                ready: false,
                buffered_records: records.len() as u64,
            },
            Slot::Finalizing { config, buffered } => SketchInfo {
                name: name.to_string(),
                config: *config,
                instances: 0,
                ready: false,
                buffered_records: *buffered,
            },
            Slot::Ready(entry) => SketchInfo {
                name: name.to_string(),
                config: SketchConfig {
                    scheme: entry.scheme(),
                    shards: entry.shards() as u64,
                    trials: entry.trials(),
                    base_salt: entry.base_salt(),
                },
                instances: entry.num_instances() as u64,
                ready: true,
                buffered_records: 0,
            },
        }
    }
}

/// The concurrent, name-keyed sketch catalog.  See the [module docs](self).
pub struct SketchCatalog {
    shards: Vec<RwLock<HashMap<String, Slot>>>,
}

impl Default for SketchCatalog {
    fn default() -> Self {
        Self::new()
    }
}

impl SketchCatalog {
    /// Creates an empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Self {
            shards: (0..LOCK_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, name: &str) -> &RwLock<HashMap<String, Slot>> {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        &self.shards[(mix64(h) % LOCK_SHARDS as u64) as usize]
    }

    /// Every entry's listing row, sorted by name (lock shards scatter names,
    /// so the scan order is canonicalized for deterministic listings).
    #[must_use]
    pub fn list(&self) -> Vec<SketchInfo> {
        let mut rows: Vec<SketchInfo> = self
            .shards
            .iter()
            .flat_map(|shard| {
                let guard = shard.read().expect("catalog lock poisoned");
                guard
                    .iter()
                    .map(|(name, slot)| slot.info(name))
                    .collect::<Vec<_>>()
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    /// Registers an already-built entry under `name`, replacing any previous
    /// slot atomically (readers see either the old or the new entry, never
    /// an intermediate state).
    pub fn insert(&self, name: impl Into<String>, entry: CatalogEntry) -> SketchInfo {
        let name = name.into();
        let slot = Slot::Ready(Arc::new(entry));
        let info = slot.info(&name);
        self.shard(&name)
            .write()
            .expect("catalog lock poisoned")
            .insert(name, slot);
        info
    }

    /// Loads a persisted [`CatalogEntry`] snapshot file and registers it
    /// under `name`.
    ///
    /// The (potentially slow) file read and decode run *outside* the shard
    /// lock; only the final pointer swap takes it.
    ///
    /// # Errors
    /// [`ServeError::Snapshot`] for any store failure.
    pub fn load_snapshot(&self, name: &str, path: &str) -> Result<SketchInfo, ServeError> {
        let entry = CatalogEntry::load(path).map_err(|e| ServeError::Snapshot {
            detail: e.to_string(),
        })?;
        Ok(self.insert(name, entry))
    }

    /// Appends one batch of records to the sketch named `sketch`, creating
    /// its building slot on first contact; `last: true` finalizes the
    /// buffered records into a servable entry.
    ///
    /// Returns `(buffered_records, ready)` — the state after this batch.
    ///
    /// Validation (scheme bounds, [`MAX_TRIALS`]/[`MAX_SHARDS`] caps,
    /// per-record value and [`MAX_INSTANCES`] bounds, "nothing to
    /// finalize") happens *before* any state mutates, so a failed request
    /// never creates or corrupts a slot.  The expensive finalize itself —
    /// one full sampling pass per trial — runs **outside** the shard lock
    /// (the slot sits in a `Finalizing` state meanwhile), so listings and
    /// unrelated sketches never stall behind it.
    ///
    /// # Errors
    /// [`ServeError::SketchFinalized`] for batches after (or during)
    /// finalization, [`ServeError::ConfigMismatch`] when `config` disagrees
    /// with earlier batches, [`ServeError::InvalidRecord`] /
    /// [`ServeError::InvalidConfig`] for data-model violations.
    pub fn ingest(
        &self,
        sketch: &str,
        config: SketchConfig,
        records: &[IngestRecord],
        last: bool,
    ) -> Result<(u64, bool), ServeError> {
        if let Some(detail) = invalid_config(&config) {
            return Err(ServeError::InvalidConfig { detail });
        }
        for r in records {
            if !(r.value.is_finite() && r.value >= 0.0) {
                return Err(ServeError::InvalidRecord {
                    detail: format!(
                        "record (instance {}, key {}) has value {}, need finite and nonnegative",
                        r.instance, r.key, r.value
                    ),
                });
            }
            if r.instance >= MAX_INSTANCES {
                return Err(ServeError::InvalidRecord {
                    detail: format!(
                        "record instance index {} is at or above the {MAX_INSTANCES}-instance limit",
                        r.instance
                    ),
                });
            }
        }

        // Phase 1 (short critical section): validate against the slot and
        // either buffer the records or claim them for finalization.
        let lock = self.shard(sketch);
        let (pinned, to_build) = {
            let mut guard = lock.write().expect("catalog lock poisoned");
            match guard.get_mut(sketch) {
                Some(Slot::Ready(_)) | Some(Slot::Finalizing { .. }) => {
                    return Err(ServeError::SketchFinalized {
                        name: sketch.to_string(),
                    })
                }
                Some(Slot::Building {
                    config: pinned,
                    records: buffered,
                }) => {
                    if let Some(field) = config_disagreement(pinned, &config) {
                        return Err(ServeError::ConfigMismatch {
                            sketch: sketch.to_string(),
                            field: field.to_string(),
                        });
                    }
                    if !last {
                        buffered.extend_from_slice(records);
                        return Ok((buffered.len() as u64, false));
                    }
                    if buffered.is_empty() && records.is_empty() {
                        return Err(no_records_error(sketch));
                    }
                    let pinned = *pinned;
                    let mut taken = std::mem::take(buffered);
                    taken.extend_from_slice(records);
                    guard.insert(
                        sketch.to_string(),
                        Slot::Finalizing {
                            config: pinned,
                            buffered: taken.len() as u64,
                        },
                    );
                    (pinned, taken)
                }
                None => {
                    if !last {
                        guard.insert(
                            sketch.to_string(),
                            Slot::Building {
                                config,
                                records: records.to_vec(),
                            },
                        );
                        return Ok((records.len() as u64, false));
                    }
                    if records.is_empty() {
                        return Err(no_records_error(sketch));
                    }
                    guard.insert(
                        sketch.to_string(),
                        Slot::Finalizing {
                            config,
                            buffered: records.len() as u64,
                        },
                    );
                    (config, records.to_vec())
                }
            }
        };

        // Phase 2: the expensive build, outside the lock.  Validation above
        // guarantees it succeeds; restore the building slot if it somehow
        // does not, so the records are not lost.
        let dataset = assemble_dataset(sketch, &to_build);
        let entry = dataset.and_then(|dataset| {
            CatalogEntry::build(
                dataset,
                pinned.scheme,
                usize::try_from(pinned.shards).unwrap_or(usize::MAX),
                pinned.trials,
                pinned.base_salt,
            )
            .map_err(|e| ServeError::InvalidConfig {
                detail: e.to_string(),
            })
        });
        let mut guard = lock.write().expect("catalog lock poisoned");
        match entry {
            Ok(entry) => {
                guard.insert(sketch.to_string(), Slot::Ready(Arc::new(entry)));
                Ok((0, true))
            }
            Err(e) => {
                guard.insert(
                    sketch.to_string(),
                    Slot::Building {
                        config: pinned,
                        records: to_build,
                    },
                );
                Err(e)
            }
        }
    }

    /// The finalized entry named `sketch`, as a cheap clone the caller can
    /// estimate over without holding any catalog lock.
    ///
    /// # Errors
    /// [`ServeError::UnknownSketch`] / [`ServeError::SketchNotReady`].
    pub fn get(&self, sketch: &str) -> Result<Arc<CatalogEntry>, ServeError> {
        let guard = self.shard(sketch).read().expect("catalog lock poisoned");
        match guard.get(sketch) {
            None => Err(ServeError::UnknownSketch {
                name: sketch.to_string(),
            }),
            Some(Slot::Building { .. }) | Some(Slot::Finalizing { .. }) => {
                Err(ServeError::SketchNotReady {
                    name: sketch.to_string(),
                })
            }
            Some(Slot::Ready(entry)) => Ok(Arc::clone(entry)),
        }
    }

    /// Answers one estimation query: resolves the sketch, then the suite
    /// and statistic names, and runs the shared estimation core on one
    /// engine thread (concurrency comes from the connections, and thread
    /// count never changes the report).
    ///
    /// # Errors
    /// Sketch resolution as [`get`](Self::get); name-resolution and regime
    /// failures mapped to their typed [`ServeError`] variants.
    pub fn estimate(
        &self,
        sketch: &str,
        estimator: &str,
        statistic: &str,
    ) -> Result<PipelineReport, ServeError> {
        let entry = self.get(sketch)?;
        entry
            .estimate_named(estimator, statistic, Some(1))
            .map_err(|e| map_catalog_error(estimator, e))
    }
}

/// Maps a [`CatalogError`] onto the wire's typed refusals, attributing
/// suite-applicability failures to `estimator` — shared by the single and
/// batch estimation paths so both produce identical errors.
pub(crate) fn map_catalog_error(estimator: &str, e: CatalogError) -> ServeError {
    match e {
        CatalogError::UnknownSuite { name } => ServeError::UnknownEstimator { name },
        CatalogError::UnknownStatistic { name } => ServeError::UnknownStatistic { name },
        other @ (CatalogError::RegimeMismatch { .. }
        | CatalogError::ArityMismatch { .. }
        | CatalogError::NonBinaryData { .. }) => ServeError::EstimatorMismatch {
            estimator: estimator.to_string(),
            detail: other.to_string(),
        },
        other => ServeError::InvalidConfig {
            detail: other.to_string(),
        },
    }
}

/// Why a wire configuration is unacceptable, if it is — an invalid scheme
/// parameter or trial count (`Scheme::validate`, the check
/// `CatalogEntry::build` runs, made eagerly so a building slot can always
/// finalize later) or resource requests above the serving caps (the peer is
/// untrusted; an unbounded trial or shard count is a denial-of-service
/// lever, not a workload).
fn invalid_config(config: &SketchConfig) -> Option<String> {
    if let Err(e) = config.scheme.validate(config.trials) {
        return Some(e.to_string());
    }
    if config.trials > MAX_TRIALS {
        return Some("trial count exceeds the serving limit".to_string());
    }
    if config.shards > MAX_SHARDS {
        return Some("shard count exceeds the serving limit".to_string());
    }
    None
}

/// The typed refusal for a finalize with nothing buffered.
fn no_records_error(sketch: &str) -> ServeError {
    ServeError::InvalidConfig {
        detail: format!("sketch {sketch:?} has no records to finalize"),
    }
}

/// The first field on which two sketch configurations disagree, if any.
fn config_disagreement(a: &SketchConfig, b: &SketchConfig) -> Option<&'static str> {
    if a.scheme != b.scheme {
        Some("scheme")
    } else if a.shards != b.shards {
        Some("shards")
    } else if a.trials != b.trials {
        Some("trials")
    } else if a.base_salt != b.base_salt {
        Some("base_salt")
    } else {
        None
    }
}

/// Builds the dataset a building sketch's buffered records describe.
///
/// Records may arrive in any order and from any number of concurrent
/// ingesters: values for the same `(instance, key)` accumulate, and the
/// instance count is the highest instance index seen plus one.  The result
/// is therefore independent of arrival order — the property that lets
/// shard-parallel ingest clients reproduce the in-process pipelines' input
/// exactly.
fn assemble_dataset(name: &str, records: &[IngestRecord]) -> Result<Arc<Dataset>, ServeError> {
    let instances = records
        .iter()
        .map(|r| r.instance + 1)
        .max()
        .ok_or_else(|| ServeError::InvalidConfig {
            detail: format!("sketch {name:?} has no records to finalize"),
        })?;
    let instances = usize::try_from(instances).map_err(|_| ServeError::InvalidRecord {
        detail: "instance index does not fit in usize on this host".to_string(),
    })?;
    let mut built = vec![Instance::new(); instances];
    for r in records {
        built[r.instance as usize].add(r.key, r.value);
    }
    Ok(Arc::new(Dataset::new(name.to_string(), built)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use partial_info_estimators::Scheme;
    use pie_datagen::{dataset_records, paper_example};

    fn config() -> SketchConfig {
        SketchConfig {
            scheme: Scheme::oblivious(0.5),
            shards: 2,
            trials: 10,
            base_salt: 3,
        }
    }

    fn records_of(dataset: &Dataset) -> Vec<IngestRecord> {
        dataset_records(dataset)
            .map(|r| IngestRecord {
                instance: r.instance,
                key: r.key,
                value: r.value,
            })
            .collect()
    }

    #[test]
    fn ingest_accumulates_then_finalizes() {
        let catalog = SketchCatalog::new();
        let data = paper_example().take_instances(2);
        let records = records_of(&data);
        let (mid, tail) = records.split_at(records.len() / 2);
        let (buffered, ready) = catalog.ingest("s", config(), mid, false).unwrap();
        assert_eq!(buffered, mid.len() as u64);
        assert!(!ready);
        assert!(matches!(
            catalog.get("s").unwrap_err(),
            ServeError::SketchNotReady { .. }
        ));
        let (_, ready) = catalog.ingest("s", config(), tail, true).unwrap();
        assert!(ready);
        let entry = catalog.get("s").unwrap();
        assert_eq!(entry.num_instances(), 2);
        // Ingesting into a finalized sketch is refused.
        assert!(matches!(
            catalog.ingest("s", config(), &[], false).unwrap_err(),
            ServeError::SketchFinalized { .. }
        ));
    }

    #[test]
    fn record_order_does_not_change_the_entry() {
        let data = paper_example().take_instances(2);
        let records = records_of(&data);
        let mut reversed = records.clone();
        reversed.reverse();
        let a = SketchCatalog::new();
        a.ingest("s", config(), &records, true).unwrap();
        let b = SketchCatalog::new();
        b.ingest("s", config(), &reversed, true).unwrap();
        assert_eq!(
            a.estimate("s", "max_oblivious", "max_dominance").unwrap(),
            b.estimate("s", "max_oblivious", "max_dominance").unwrap()
        );
    }

    #[test]
    fn config_and_record_violations_are_typed_and_do_not_corrupt_state() {
        let catalog = SketchCatalog::new();
        catalog
            .ingest(
                "s",
                config(),
                &records_of(&paper_example().take_instances(2)),
                false,
            )
            .unwrap();
        let mut other = config();
        other.trials = 99;
        assert!(matches!(
            catalog.ingest("s", other, &[], false).unwrap_err(),
            ServeError::ConfigMismatch { field, .. } if field == "trials"
        ));
        let bad = [IngestRecord {
            instance: 0,
            key: 1,
            value: f64::NAN,
        }];
        assert!(matches!(
            catalog.ingest("s", config(), &bad, false).unwrap_err(),
            ServeError::InvalidRecord { .. }
        ));
        // The slot is still building and still finalizable.
        let (_, ready) = catalog.ingest("s", config(), &[], true).unwrap();
        assert!(ready);
    }

    #[test]
    fn finalize_without_records_is_typed_and_leaves_no_slot() {
        let catalog = SketchCatalog::new();
        assert!(matches!(
            catalog.ingest("empty", config(), &[], true).unwrap_err(),
            ServeError::InvalidConfig { .. }
        ));
        // The failed request must not have pinned a building slot: the name
        // stays free for a later ingest under any configuration.
        assert!(matches!(
            catalog.get("empty").unwrap_err(),
            ServeError::UnknownSketch { .. }
        ));
        assert!(catalog.list().is_empty());
        let mut other = config();
        other.trials = 7;
        let data = paper_example().take_instances(2);
        catalog
            .ingest("empty", other, &records_of(&data), true)
            .unwrap();
        assert!(catalog.get("empty").is_ok());
    }

    #[test]
    fn hostile_instance_indices_are_rejected_before_any_mutation() {
        let catalog = SketchCatalog::new();
        for instance in [MAX_INSTANCES, u64::MAX] {
            let bad = [IngestRecord {
                instance,
                key: 1,
                value: 1.0,
            }];
            assert!(
                matches!(
                    catalog.ingest("s", config(), &bad, true).unwrap_err(),
                    ServeError::InvalidRecord { .. }
                ),
                "instance {instance}"
            );
        }
        assert!(catalog.list().is_empty(), "no slot may have been created");
        // Listing still works afterwards (no poisoned locks).
        let data = paper_example().take_instances(2);
        catalog
            .ingest("s", config(), &records_of(&data), true)
            .unwrap();
        assert_eq!(catalog.list().len(), 1);
    }

    #[test]
    fn resource_caps_are_enforced_on_the_wire_config() {
        let catalog = SketchCatalog::new();
        let data = paper_example().take_instances(2);
        let mut greedy = config();
        greedy.trials = MAX_TRIALS + 1;
        assert!(matches!(
            catalog
                .ingest("s", greedy, &records_of(&data), true)
                .unwrap_err(),
            ServeError::InvalidConfig { .. }
        ));
        let mut greedy = config();
        greedy.shards = MAX_SHARDS + 1;
        assert!(matches!(
            catalog
                .ingest("s", greedy, &records_of(&data), true)
                .unwrap_err(),
            ServeError::InvalidConfig { .. }
        ));
        assert!(catalog.list().is_empty());
        // At the caps themselves the request is accepted.
        let mut maxed = config();
        maxed.trials = 4;
        maxed.shards = MAX_SHARDS;
        catalog
            .ingest("s", maxed, &records_of(&data), true)
            .unwrap();
        assert!(catalog.get("s").is_ok());
    }

    #[test]
    fn zero_trial_ingest_batch_is_refused_over_the_wire() {
        let server = crate::Server::bind("127.0.0.1:0").unwrap();
        let mut client = crate::ServeClient::connect(server.local_addr()).unwrap();
        let data = paper_example().take_instances(2);
        let mut zero = config();
        zero.scheme = Scheme::pps(5.0);
        zero.trials = 0;
        let err = client
            .ingest_batch("s", zero, records_of(&data), true)
            .unwrap_err();
        assert!(
            matches!(&err, ServeError::InvalidConfig { detail } if detail.contains("trial")),
            "{err}"
        );
        assert!(client.list_catalog().unwrap().is_empty());
        server.shutdown();
    }

    #[test]
    fn listing_is_sorted_and_consistent() {
        let catalog = SketchCatalog::new();
        let data = paper_example().take_instances(2);
        for name in ["zeta", "alpha", "mid"] {
            catalog
                .ingest(name, config(), &records_of(&data), true)
                .unwrap();
        }
        let names: Vec<String> = catalog.list().into_iter().map(|i| i.name).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
        assert!(catalog.list().iter().all(|i| i.ready));
    }

    #[test]
    fn unknown_names_are_typed() {
        let catalog = SketchCatalog::new();
        assert!(matches!(
            catalog.get("nope").unwrap_err(),
            ServeError::UnknownSketch { .. }
        ));
        let data = paper_example().take_instances(2);
        catalog
            .ingest("s", config(), &records_of(&data), true)
            .unwrap();
        assert!(matches!(
            catalog.estimate("s", "nope", "max_dominance").unwrap_err(),
            ServeError::UnknownEstimator { .. }
        ));
        assert!(matches!(
            catalog.estimate("s", "max_oblivious", "nope").unwrap_err(),
            ServeError::UnknownStatistic { .. }
        ));
        assert!(matches!(
            catalog
                .estimate("s", "max_weighted", "max_dominance")
                .unwrap_err(),
            ServeError::EstimatorMismatch { .. }
        ));
    }
}
