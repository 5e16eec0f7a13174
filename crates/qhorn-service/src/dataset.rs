//! The server-side dataset catalog: built-in datasets plus user uploads.
//!
//! Clients name a dataset instead of shipping nested relations with every
//! request; the catalog resolves the name to a built [`DataStore`] (and
//! synthesis hints) behind a session. Built-in names are stable protocol
//! surface; uploaded names are registered at runtime via the
//! `UploadDataset` protocol message (see [`DatasetCatalog`]).
//!
//! Built stores live behind `Arc` and are **shared**: every concurrent
//! session over `("chocolates", 40)` — and every snapshot restore of one —
//! reuses the same store instead of rebuilding it per session/restore
//! (`benches/service.rs` measures the restore-path win).

use crate::error::ServiceError;
use qhorn_engine::DataStore;
use qhorn_lockdep::{LockClass, OrderedMutex};
use qhorn_relation::datasets::{cellars, chocolates};
use qhorn_relation::synthesize::{DomainHints, Synthesizer};
use qhorn_relation::DatasetDef;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default object count when a request omits `size` (applied at the wire
/// layer — an *explicit* `size: 0` is rejected, not coerced).
pub const DEFAULT_SIZE: usize = 40;

/// Largest accepted object count — `size` arrives from the wire, so it
/// must not be allowed to allocate unbounded memory server-side.
pub const MAX_SIZE: usize = 1_000_000;

/// Built-in catalog names, for error messages and documentation.
pub const NAMES: &[&str] = &["chocolates", "fig1", "cellars"];

/// Propositions a built-in binds (= its Boolean arity on the wire).
fn builtin_arity(name: &str) -> u16 {
    match name {
        "chocolates" | "fig1" => chocolates::propositions().len() as u16,
        "cellars" => cellars::propositions().len() as u16,
        other => unreachable!("not a built-in: {other}"),
    }
}

/// Built stores cached per `(built-in name, size)`. Distinct sizes arrive
/// from the wire, so the cache is bounded: past the cap the
/// least-recently-used store is dropped (sessions holding its `Arc` keep
/// it alive; the next request at that size rebuilds).
const BUILTIN_CACHE_CAP: usize = 16;

/// Total *objects* the built-in cache may pin (sum of cached sizes), and
/// the largest single size worth caching at all — entry count alone
/// would let 16 near-`MAX_SIZE` requests retain gigabytes indefinitely,
/// where pre-catalog builds died with their session. Oversized requests
/// still work; they are just served an uncached, per-request build.
const BUILTIN_CACHE_OBJECT_BUDGET: usize = 250_000;

/// Most uploaded datasets one server holds at a time.
pub const MAX_UPLOADS: usize = 16;

/// Total serialized-definition bytes across all uploads. Uploads are
/// pinned in memory and re-appended into the log at every compaction, so
/// the total must stay comfortably under `compact_threshold_bytes` or
/// every sweep would compact forever without shrinking the log.
pub const MAX_UPLOAD_TOTAL_BYTES: usize = 8 << 20;

/// Checks a wire-supplied object count.
///
/// # Errors
/// [`ServiceError::InvalidSize`] outside `1..=MAX_SIZE`. Zero is a client
/// error, not a default-request: the wire layer already substitutes
/// [`DEFAULT_SIZE`] for an *absent* field.
pub fn validate_size(size: usize) -> Result<(), ServiceError> {
    if size == 0 {
        return Err(ServiceError::InvalidSize(
            "size must be at least 1 (omit the field for the default)".into(),
        ));
    }
    if size > MAX_SIZE {
        return Err(ServiceError::InvalidSize(format!(
            "size {size} exceeds the maximum of {MAX_SIZE}"
        )));
    }
    Ok(())
}

/// Builds the named **built-in** dataset at the requested size.
///
/// * `"chocolates"` — the deterministic assorted chocolate-box inventory;
/// * `"fig1"` — exactly the paper's two Fig. 1 boxes (`size` ignored);
/// * `"cellars"` — the wine-cellar inventory with ordering propositions.
///
/// # Errors
/// [`ServiceError::InvalidSize`] for sizes outside `1..=MAX_SIZE`;
/// [`ServiceError::UnknownDataset`] for names outside the built-in
/// catalog; [`ServiceError::Engine`] if booleanization fails (it cannot
/// for catalog data).
pub fn build(name: &str, size: usize) -> Result<(DataStore, DomainHints), ServiceError> {
    validate_size(size)?;
    match name {
        "chocolates" => {
            let store = DataStore::from_relation(
                chocolates::assorted_boxes(size),
                chocolates::booleanizer(),
            )
            .map_err(|e| ServiceError::Engine(e.to_string()))?;
            Ok((store, chocolates::hints()))
        }
        "fig1" => {
            let store =
                DataStore::from_relation(chocolates::fig1_boxes(), chocolates::booleanizer())
                    .map_err(|e| ServiceError::Engine(e.to_string()))?;
            Ok((store, chocolates::hints()))
        }
        "cellars" => {
            let store = DataStore::from_relation(cellars::inventory(size), cellars::booleanizer())
                .map_err(|e| ServiceError::Engine(e.to_string()))?;
            Ok((store, cellars::hints()))
        }
        other => Err(ServiceError::UnknownDataset(other.to_string())),
    }
}

/// One catalog entry as the `ListDatasets` protocol message ships it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatasetInfo {
    /// Catalog name.
    pub name: String,
    /// `true` for the compiled-in datasets, `false` for uploads.
    pub builtin: bool,
    /// Bound propositions (= Boolean variables).
    pub arity: u16,
    /// Object count — fixed for uploads, `None` for built-ins generated
    /// at a request-chosen size.
    pub objects: Option<u64>,
}

qhorn_json::wire! {
    struct DatasetInfo {
        name: String,
        builtin: bool,
        arity: u16,
        objects: Option<u64> [default],
    }
}

/// A dataset ready to serve sessions: the built store, its hints and
/// its synthesizer.
#[derive(Clone)]
pub struct BuiltDataset {
    /// The booleanized store, shared across sessions and restores.
    pub store: Arc<DataStore>,
    /// Synthesis hints for natural-looking examples, shared like the
    /// store: sessions and evaluations take the `Arc`, never a copy.
    pub hints: Arc<DomainHints>,
    /// The store's binding and hints solved into per-attribute tables
    /// once, shared like the store: every session over the dataset
    /// realizes its questions with this one copy.
    pub synth: Arc<Synthesizer>,
    /// Serialized-definition size, counted against
    /// [`MAX_UPLOAD_TOTAL_BYTES`] (0 for built-ins).
    pub def_bytes: usize,
}

impl BuiltDataset {
    /// Shares `store` and `hints`, building their synthesizer.
    #[must_use]
    pub fn new(store: DataStore, hints: DomainHints, def_bytes: usize) -> Self {
        let synth = Synthesizer::new(store.bridge(), &hints);
        BuiltDataset {
            store: Arc::new(store),
            hints: Arc::new(hints),
            synth: Arc::new(synth),
            def_bytes,
        }
    }
}

struct CachedBuiltin {
    built: BuiltDataset,
    /// Actual built object count, charged against
    /// [`BUILTIN_CACHE_OBJECT_BUDGET`] (size-ignoring datasets like
    /// `fig1` build far fewer objects than the requested size).
    objects: usize,
    /// LRU stamp from the catalog's monotonic clock.
    touched: u64,
}

/// The concurrent catalog: built-in datasets (built lazily per size,
/// LRU-cached) and uploaded datasets, all behind `Arc<DataStore>`.
///
/// Uploads are registered through the registry (which also logs them to
/// the durable store); the catalog itself is storage-agnostic.
pub struct DatasetCatalog {
    builtins: OrderedMutex<HashMap<(String, usize), CachedBuiltin>>,
    uploads: OrderedMutex<HashMap<String, BuiltDataset>>,
    clock: AtomicU64,
}

impl Default for DatasetCatalog {
    fn default() -> Self {
        Self::new()
    }
}

impl DatasetCatalog {
    /// An empty catalog (built-ins materialize on first use).
    #[must_use]
    pub fn new() -> Self {
        DatasetCatalog {
            builtins: OrderedMutex::new(LockClass::new("catalog.builtins"), HashMap::new()),
            uploads: OrderedMutex::new(LockClass::new("catalog.uploads"), HashMap::new()),
            clock: AtomicU64::new(0),
        }
    }

    /// Resolves a dataset name to its built dataset. Uploaded
    /// datasets resolve by name (their contents are fixed; `size` is
    /// still validated but otherwise ignored, as for `"fig1"`); built-in
    /// names build at `size` on first use and share the cached store
    /// afterwards.
    ///
    /// # Errors
    /// [`ServiceError::InvalidSize`], [`ServiceError::UnknownDataset`].
    pub fn get(&self, name: &str, size: usize) -> Result<BuiltDataset, ServiceError> {
        validate_size(size)?;
        if let Some(built) = self.uploads.lock_recover().get(name) {
            return Ok(built.clone());
        }
        if !NAMES.contains(&name) {
            return Err(ServiceError::UnknownDataset(name.to_string()));
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let key = (name.to_string(), size);
        {
            let mut cache = self.builtins.lock_recover();
            if let Some(cached) = cache.get_mut(&key) {
                cached.touched = stamp;
                return Ok(cached.built.clone());
            }
        }
        // Build outside the cache lock: a large build must not block
        // other sessions resolving already-cached datasets.
        let (store, hints) = build(name, size)?;
        let objects = store.boolean().len();
        let built = BuiltDataset::new(store, hints, 0);
        if objects > BUILTIN_CACHE_OBJECT_BUDGET {
            // Too big to pin: serve it per-request, like pre-catalog
            // builds (it dies with the sessions holding the Arc).
            return Ok(built);
        }
        let mut cache = self.builtins.lock_recover();
        let entry = cache.entry(key.clone()).or_insert(CachedBuiltin {
            built: built.clone(),
            objects,
            touched: stamp,
        });
        entry.touched = stamp;
        let result = entry.built.clone();
        // Bound by entry count AND total pinned objects (actual built
        // counts — size-ignoring datasets build far fewer than asked);
        // never evict the entry just inserted (it fits the budget by the
        // check above).
        let over = |cache: &HashMap<(String, usize), CachedBuiltin>| {
            cache.len() > BUILTIN_CACHE_CAP
                || cache.values().map(|c| c.objects).sum::<usize>() > BUILTIN_CACHE_OBJECT_BUDGET
        };
        while over(&cache) {
            let Some(oldest) = cache
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, c)| c.touched)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            cache.remove(&oldest);
        }
        Ok(result)
    }

    /// Validates an uploaded definition and builds its store, without
    /// installing it — the registry logs the registration durably between
    /// this and [`DatasetCatalog::install`].
    ///
    /// # Errors
    /// [`ServiceError::DatasetConflict`] when the name is taken (built-in
    /// or existing upload) or a quota ([`MAX_UPLOADS`],
    /// [`MAX_UPLOAD_TOTAL_BYTES`]) is exhausted;
    /// [`ServiceError::InvalidDataset`] when the definition fails
    /// validation or its objects do not booleanize.
    pub fn prepare(&self, def: &DatasetDef) -> Result<BuiltDataset, ServiceError> {
        if NAMES.contains(&def.name.as_str()) {
            return Err(ServiceError::DatasetConflict(format!(
                "`{}` is a built-in dataset",
                def.name
            )));
        }
        let def_bytes = qhorn_json::to_string(def).len();
        {
            let uploads = self.uploads.lock_recover();
            if uploads.contains_key(&def.name) {
                return Err(ServiceError::DatasetConflict(format!(
                    "dataset `{}` is already registered (drop it first to replace)",
                    def.name
                )));
            }
            // Uploads are pinned in memory and re-logged at every
            // compaction — both quotas protect the server, not the user.
            if uploads.len() >= MAX_UPLOADS {
                return Err(ServiceError::DatasetConflict(format!(
                    "the catalog already holds {MAX_UPLOADS} uploaded datasets; drop one first"
                )));
            }
            let total: usize = uploads.values().map(|b| b.def_bytes).sum();
            if total + def_bytes > MAX_UPLOAD_TOTAL_BYTES {
                return Err(ServiceError::DatasetConflict(format!(
                    "upload would exceed the {MAX_UPLOAD_TOTAL_BYTES}-byte catalog budget \
                     ({total} bytes in use); drop a dataset first"
                )));
            }
        }
        let bridge = def
            .validate()
            .map_err(|e| ServiceError::InvalidDataset(e.to_string()))?;
        let store = DataStore::from_relation(def.relation.clone(), bridge)
            .map_err(|e| ServiceError::InvalidDataset(e.to_string()))?;
        Ok(BuiltDataset::new(store, def.hints.clone(), def_bytes))
    }

    /// Installs a prepared upload under `name`. Last write wins — the
    /// caller serializes uploads (the registry holds its upload lock
    /// across prepare → log append → install).
    pub fn install(&self, name: &str, built: BuiltDataset) {
        self.uploads.lock_recover().insert(name.to_string(), built);
    }

    /// Removes an uploaded dataset, returning it (the registry
    /// re-installs it if the durable drop record fails to append).
    /// Sessions already running over it keep their `Arc`; snapshots
    /// referencing it will fail to restore with `UnknownDataset`.
    ///
    /// # Errors
    /// [`ServiceError::DatasetConflict`] for built-in names;
    /// [`ServiceError::UnknownDataset`] when nothing is registered under
    /// `name`.
    pub fn remove(&self, name: &str) -> Result<BuiltDataset, ServiceError> {
        if NAMES.contains(&name) {
            return Err(ServiceError::DatasetConflict(format!(
                "`{name}` is a built-in dataset and cannot be dropped"
            )));
        }
        self.uploads
            .lock_recover()
            .remove(name)
            .ok_or_else(|| ServiceError::UnknownDataset(name.to_string()))
    }

    /// Every catalog entry: built-ins first (catalog order), then uploads
    /// in name order.
    #[must_use]
    pub fn list(&self) -> Vec<DatasetInfo> {
        let mut out: Vec<DatasetInfo> = NAMES
            .iter()
            .map(|&name| DatasetInfo {
                name: name.to_string(),
                builtin: true,
                arity: builtin_arity(name),
                objects: None,
            })
            .collect();
        let uploads = self.uploads.lock_recover();
        let mut uploaded: Vec<DatasetInfo> = uploads
            .iter()
            .map(|(name, built)| DatasetInfo {
                name: name.clone(),
                builtin: false,
                arity: built.store.bridge().n(),
                objects: Some(built.store.boolean().len() as u64),
            })
            .collect();
        uploaded.sort_by(|a, b| a.name.cmp(&b.name));
        out.extend(uploaded);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhorn_relation::datasets::chocolates as builtin_chocolates;

    fn upload_def(name: &str) -> DatasetDef {
        builtin_chocolates::dataset_def(name)
    }

    #[test]
    fn catalog_builds_every_builtin_name() {
        for name in NAMES {
            let (store, _) = build(name, 10).unwrap();
            assert!(!store.boolean().is_empty(), "{name}");
            assert_eq!(store.bridge().n(), 3, "{name}");
        }
    }

    #[test]
    fn size_zero_is_rejected_not_coerced() {
        match build("chocolates", 0) {
            Err(ServiceError::InvalidSize(msg)) => assert!(msg.contains("at least 1"), "{msg}"),
            other => panic!("expected InvalidSize, got {:?}", other.map(|_| ())),
        }
        let catalog = DatasetCatalog::new();
        assert!(matches!(
            catalog.get("chocolates", 0),
            Err(ServiceError::InvalidSize(_))
        ));
    }

    #[test]
    fn oversized_requests_are_invalid_size_errors() {
        match build("chocolates", MAX_SIZE + 1) {
            Err(ServiceError::InvalidSize(msg)) => assert!(msg.contains("maximum"), "{msg}"),
            other => panic!("expected InvalidSize, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn unknown_name_is_an_error() {
        match build("nope", 5) {
            Err(ServiceError::UnknownDataset(name)) => assert_eq!(name, "nope"),
            other => panic!("expected UnknownDataset, got {:?}", other.map(|_| ())),
        }
        assert!(matches!(
            DatasetCatalog::new().get("nope", 5),
            Err(ServiceError::UnknownDataset(_))
        ));
    }

    #[test]
    fn builtin_stores_are_shared_per_size() {
        let catalog = DatasetCatalog::new();
        let a = catalog.get("chocolates", 12).unwrap().store;
        let b = catalog.get("chocolates", 12).unwrap().store;
        assert!(Arc::ptr_eq(&a, &b), "same size shares one store");
        let c = catalog.get("chocolates", 13).unwrap().store;
        assert!(!Arc::ptr_eq(&a, &c), "different sizes differ");
        assert_eq!(c.boolean().len(), 13);
    }

    #[test]
    fn builtin_cache_is_bounded() {
        let catalog = DatasetCatalog::new();
        let first = catalog.get("fig1", 1).unwrap().store;
        for size in 2..(BUILTIN_CACHE_CAP + 3) {
            catalog.get("fig1", size).unwrap();
        }
        assert!(
            catalog.builtins.lock().unwrap().len() <= BUILTIN_CACHE_CAP,
            "cache stays bounded"
        );
        // The evicted entry rebuilds rather than erroring.
        let again = catalog.get("fig1", 1).unwrap().store;
        assert!(
            !Arc::ptr_eq(&first, &again),
            "size 1 was evicted and rebuilt"
        );
    }

    #[test]
    fn oversized_builtin_builds_are_served_uncached() {
        let catalog = DatasetCatalog::new();
        let big = BUILTIN_CACHE_OBJECT_BUDGET + 1;
        let a = catalog.get("chocolates", big).unwrap().store;
        let b = catalog.get("chocolates", big).unwrap().store;
        assert!(!Arc::ptr_eq(&a, &b), "over-budget builds are not pinned");
        assert!(catalog.builtins.lock().unwrap().is_empty());
        // The budget charges *actual* objects: `fig1` ignores the size
        // and builds two, so the same huge request caches fine.
        let a = catalog.get("fig1", big).unwrap().store;
        let b = catalog.get("fig1", big).unwrap().store;
        assert!(Arc::ptr_eq(&a, &b), "tiny actual builds stay cached");
    }

    #[test]
    fn builtin_cache_is_bounded_by_total_objects_too() {
        let catalog = DatasetCatalog::new();
        let third = BUILTIN_CACHE_OBJECT_BUDGET / 3 + 1;
        for i in 0..4 {
            // `chocolates` builds exactly the requested object count.
            catalog.get("chocolates", third + i).unwrap();
        }
        let cache = catalog.builtins.lock().unwrap();
        assert!(
            cache.values().map(|c| c.objects).sum::<usize>() <= BUILTIN_CACHE_OBJECT_BUDGET,
            "total pinned objects stay within budget"
        );
        assert!(cache.len() < 4, "an entry was evicted to fit the budget");
    }

    #[test]
    fn upload_quotas_are_enforced() {
        let catalog = DatasetCatalog::new();
        for i in 0..MAX_UPLOADS {
            let built = catalog.prepare(&upload_def(&format!("shop-{i}"))).unwrap();
            catalog.install(&format!("shop-{i}"), built);
        }
        match catalog.prepare(&upload_def("one-too-many")) {
            Err(ServiceError::DatasetConflict(msg)) => {
                assert!(msg.contains("drop one first"), "{msg}");
            }
            other => panic!("expected quota conflict, got {:?}", other.map(|_| ())),
        }
        // Dropping one frees a slot.
        catalog.remove("shop-0").unwrap();
        catalog.prepare(&upload_def("one-too-many")).unwrap();
    }

    #[test]
    fn uploads_register_resolve_and_drop() {
        let catalog = DatasetCatalog::new();
        let built = catalog.prepare(&upload_def("my-shop")).unwrap();
        catalog.install("my-shop", built);
        let store = catalog.get("my-shop", DEFAULT_SIZE).unwrap().store;
        assert_eq!(store.boolean().len(), 2, "fig1 boxes uploaded");
        // Listed after the built-ins, with fixed object count.
        let list = catalog.list();
        assert_eq!(list.len(), NAMES.len() + 1);
        let entry = list.iter().find(|d| d.name == "my-shop").unwrap();
        assert!(!entry.builtin);
        assert_eq!(entry.objects, Some(2));
        assert_eq!(entry.arity, 3);
        // Dropped: resolution fails again.
        catalog.remove("my-shop").unwrap();
        assert!(matches!(
            catalog.get("my-shop", DEFAULT_SIZE),
            Err(ServiceError::UnknownDataset(_))
        ));
        assert!(matches!(
            catalog.remove("my-shop"),
            Err(ServiceError::UnknownDataset(_))
        ));
    }

    #[test]
    fn name_collisions_and_builtin_drops_conflict() {
        let catalog = DatasetCatalog::new();
        assert!(matches!(
            catalog.prepare(&upload_def("chocolates")),
            Err(ServiceError::DatasetConflict(_))
        ));
        let built = catalog.prepare(&upload_def("mine")).unwrap();
        catalog.install("mine", built);
        assert!(matches!(
            catalog.prepare(&upload_def("mine")),
            Err(ServiceError::DatasetConflict(_))
        ));
        assert!(matches!(
            catalog.remove("cellars"),
            Err(ServiceError::DatasetConflict(_))
        ));
    }

    #[test]
    fn invalid_definitions_are_invalid_dataset_errors() {
        let catalog = DatasetCatalog::new();
        let mut def = upload_def("bad");
        def.propositions.clear();
        assert!(matches!(
            catalog.prepare(&def),
            Err(ServiceError::InvalidDataset(_))
        ));
    }
}
