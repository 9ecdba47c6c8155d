//! The [`Database`] facade: named tables over built indexes.
//!
//! This is the front door the ROADMAP's serving-scale items plug into: it
//! owns the catalog of tables (each a schema + one index built from an
//! [`IndexSpec`] — the index's clustered store is the table's only copy of
//! its rows), validates every query at the boundary, and hands out cheap
//! [`Table`] handles that the [`crate::Scheduler`]'s workers share.
//!
//! Inserts and deletes share one path: validate, ask the
//! index for its successor through [`tsunami_core::MultiDimIndex`] (falling
//! back to the same family laid out again over [`Table::dataset`] ± the
//! mutation, under the decision its build made, for families without one),
//! log, swap the table generation, maintain the views. A write never runs
//! an optimizer or a timer.
//!
//! Workload shift (§8) is handled at this layer too: [`Database::reindex`]
//! rebuilds a table's layout for a new workload — the one way a layout is
//! re-derived — and [`Database::auto_reoptimize`] closes the loop
//! autonomously from the queries recorded via [`Table::record_query`].

use std::path::Path;
use std::sync::Arc;

use tsunami_core::exec::pool::{self, ThreadPool};
use tsunami_core::{
    CostModel, Dataset, IngestReport, Point, Predicate, Query, Result, Successor, TsunamiError,
    Workload,
};
use tsunami_index::{TsunamiConfig, WorkloadMonitor};
use tsunami_store::{CrashPoint, WalRecord};

use crate::durability::{self, Durability};
use crate::scheduler::{Scheduler, SchedulerConfig};
use crate::schema::Schema;
use crate::spec::{IndexSpec, SharedIndex};
use crate::table::Table;
use crate::view::MaterializedView;
use tsunami_core::AggResult;

/// One logical change to a table's rows — what [`Database::mutate`] applies.
#[derive(Clone, Copy)]
enum Mutation<'a> {
    Insert(&'a [Point]),
    Delete(&'a [Predicate]),
}

/// A catalog of named, indexed tables. Registration order is preserved for
/// iteration (benchmark output stays deterministic).
pub struct Database {
    tables: Vec<Table>,
    /// Registered materialized views (see [`crate::view`]), in registration
    /// order. Maintained by the mutation paths: inserts fold deltas, deletes
    /// invalidate, restructures leave state untouched (live rows unchanged).
    views: Vec<MaterializedView>,
    cost: CostModel,
    /// The execution pool shared by every table: schedulers created via
    /// [`Database::scheduler`] submit into it, and it is the same pool
    /// [`MultiDimIndex::execute_parallel`](tsunami_core::MultiDimIndex::execute_parallel)
    /// runs morsels on. Defaults to the process-wide
    /// [`pool::global`] pool; inject a private one with
    /// [`Database::set_pool`].
    pool: Arc<ThreadPool>,
    /// WAL + checkpoint state for databases opened with [`Database::open`];
    /// `None` for purely in-memory databases ([`Database::new`]).
    durability: Option<Durability>,
}

impl Database {
    /// Creates an empty database with the default analytic cost model.
    pub fn new() -> Self {
        Self {
            tables: Vec::new(),
            views: Vec::new(),
            cost: CostModel::default(),
            pool: Arc::clone(pool::global()),
            durability: None,
        }
    }

    /// Opens a **durable** database rooted at `dir`: recovers the state from
    /// `checkpoint.db` plus the write-ahead log's valid prefix (see
    /// [`crate::durability`]), then logs and fsyncs every subsequent
    /// `create_table` / `insert_batch` / `delete` *before* applying it, so
    /// committed mutations survive a crash. Recovery rebuilds each table's
    /// index from its stored [`IndexSpec`] and reference workload: query
    /// results are bit-identical to the pre-crash state's, while the
    /// physical layout is re-derived.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let (durability, records) = Durability::open(dir.as_ref())?;
        let mut db = Self::new();
        for record in records {
            db.apply_record(record)?;
        }
        db.durability = Some(durability);
        Ok(db)
    }

    /// Whether this database was opened with [`Database::open`] and is
    /// logging mutations durably.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Applies one replayed WAL record to the in-memory catalog. Only called
    /// while `self.durability` is `None`, so the mutation paths do not log
    /// the record a second time.
    fn apply_record(&mut self, record: WalRecord) -> Result<()> {
        match record {
            WalRecord::CreateTable {
                name,
                columns,
                spec,
                workload,
                data,
            } => {
                let spec = durability::decode_spec(&spec)?;
                self.create_table(&name, &columns, data, &Workload::new(workload), &spec)?;
            }
            WalRecord::InsertBatch { table, rows } => {
                let rows: Vec<Point> = rows.rows().collect();
                self.insert_batch(&table, &rows)?;
            }
            WalRecord::Delete { table, predicates } => {
                self.delete(&table, &predicates)?;
            }
            WalRecord::RegisterView { table, name, query } => {
                self.register_view(&table, &name, query)?;
            }
            // Markers carry recovery bookkeeping, not state.
            WalRecord::Checkpoint { .. } => {}
        }
        Ok(())
    }

    /// Appends and fsyncs `record` if this database is durable — called by
    /// every mutation *before* it changes the in-memory catalog. The record
    /// is built lazily so in-memory databases pay nothing.
    fn log_mutation(&mut self, record: impl FnOnce() -> WalRecord) -> Result<()> {
        match self.durability.as_mut() {
            Some(durability) => durability.log(&record()),
            None => Ok(()),
        }
    }

    /// Writes a checkpoint: a snapshot of every table (its live rows read
    /// back out of the index store, spec, and reference workload) replaces
    /// `checkpoint.db` atomically, and the
    /// WAL is reset. Recovery cost becomes proportional to the mutations
    /// since the last checkpoint instead of since the database was created.
    /// Errors on in-memory databases.
    pub fn checkpoint(&mut self) -> Result<()> {
        if self.durability.is_none() {
            return Err(TsunamiError::Durability(
                "checkpoint requires a database opened with Database::open".into(),
            ));
        }
        let mut snapshot = Vec::with_capacity(self.tables.len() + self.views.len());
        let mut names = Vec::with_capacity(self.tables.len());
        for table in &self.tables {
            snapshot.push(Self::snapshot_record(table)?);
            names.push(table.name().to_string());
        }
        // View specs ride in the snapshot after every table record, so
        // recovery re-registers them against already-replayed tables. State
        // is never persisted — it is recomputed from the recovered data.
        for view in &self.views {
            snapshot.push(WalRecord::RegisterView {
                table: view.table().to_string(),
                name: view.name().to_string(),
                query: view.query().clone(),
            });
        }
        self.durability
            .as_mut()
            .expect("checked above")
            .checkpoint(&snapshot, names)
    }

    fn snapshot_record(table: &Table) -> Result<WalRecord> {
        let spec = table.index_spec().ok_or_else(|| {
            TsunamiError::Durability(format!(
                "table '{}' has no index spec and cannot be checkpointed",
                table.name()
            ))
        })?;
        Ok(WalRecord::CreateTable {
            name: table.name().to_string(),
            columns: table.schema().column_names().map(str::to_string).collect(),
            spec: durability::encode_spec(spec),
            workload: table.reference_workload().queries().to_vec(),
            data: table.dataset(),
        })
    }

    /// Arms deterministic fault injection on the durability layer (crash
    /// tests only). The next matching WAL append / commit / checkpoint step
    /// errors out exactly as a crash at that instant would.
    #[doc(hidden)]
    pub fn set_crash_point(&mut self, crash: CrashPoint) {
        if let Some(durability) = self.durability.as_mut() {
            durability.set_crash_point(crash);
        }
    }

    /// The cost model used for index builds.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The thread pool this database's schedulers submit into.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// Replaces the execution pool (e.g. a private pool in tests, or a
    /// dedicated pool per tenant). Schedulers already created keep the pool
    /// they were built with.
    pub fn set_pool(&mut self, pool: Arc<ThreadPool>) {
        self.pool = pool;
    }

    /// A scheduler over this database's pool running up to `workers` queries
    /// concurrently. Handles from any of this database's tables can be
    /// submitted to it.
    pub fn scheduler(&self, workers: usize) -> Scheduler {
        self.scheduler_with(SchedulerConfig {
            workers: workers.max(1),
            ..SchedulerConfig::default()
        })
    }

    /// A scheduler over this database's pool with explicit tuning.
    pub fn scheduler_with(&self, config: SchedulerConfig) -> Scheduler {
        Scheduler::on_pool(Arc::clone(&self.pool), config)
    }

    /// Registers a table: names the dataset's columns, builds the index
    /// described by `spec` optimized for the sample `workload`, and returns a
    /// handle. The schema's width must match the dataset's and the name must
    /// be unused. `data` accepts either an owned [`Dataset`] or an
    /// `Arc<Dataset>`; it is read during the build and released before the
    /// call returns — the index's clustered store is the only copy the
    /// table keeps.
    pub fn create_table<S: Into<String> + Clone>(
        &mut self,
        name: &str,
        columns: &[S],
        data: impl Into<Arc<Dataset>>,
        workload: &Workload,
        spec: &IndexSpec,
    ) -> Result<Table> {
        let schema = Schema::new(columns.to_vec())?;
        self.create(name, schema, data.into(), workload, spec)
    }

    /// Like [`Database::create_table`] with auto-generated `col0..colN`
    /// column names.
    pub fn create_table_unnamed(
        &mut self,
        name: &str,
        data: impl Into<Arc<Dataset>>,
        workload: &Workload,
        spec: &IndexSpec,
    ) -> Result<Table> {
        let data = data.into();
        let schema = Schema::numbered(data.num_dims());
        self.create(name, schema, data, workload, spec)
    }

    fn create(
        &mut self,
        name: &str,
        schema: Schema,
        data: Arc<Dataset>,
        workload: &Workload,
        spec: &IndexSpec,
    ) -> Result<Table> {
        let index = self.build_index(&schema, &data, workload, spec)?;
        self.check_name_unused(name)?;
        // Log-before-apply. The build input ends here either way: moved into
        // the record on a durable database, dropped on an in-memory one.
        self.log_mutation(|| WalRecord::CreateTable {
            name: name.to_string(),
            columns: schema.column_names().map(str::to_string).collect(),
            spec: durability::encode_spec(spec),
            workload: workload.queries().to_vec(),
            data: Arc::unwrap_or_clone(data),
        })?;
        let table = Table::new(
            name.to_string(),
            schema,
            index,
            workload.clone(),
            Some(spec.clone()),
        );
        self.tables.push(table.clone());
        Ok(table)
    }

    /// Registers a table around an already-built index (escape hatch for
    /// custom index construction); the index's store is the table. The
    /// reference workload starts empty, so shift detection treats every
    /// observed query as new.
    pub fn register_table(
        &mut self,
        name: &str,
        schema: Schema,
        index: SharedIndex,
    ) -> Result<Table> {
        let width = index.source().num_dims();
        if schema.num_columns() != width {
            return Err(TsunamiError::DimensionMismatch {
                expected: width,
                got: schema.num_columns(),
            });
        }
        self.check_name_unused(name)?;
        if self.durability.is_some() {
            return Err(TsunamiError::Durability(format!(
                "table '{name}' was registered around a pre-built index without a spec; \
                 a durable database cannot replay it — use create_table instead"
            )));
        }
        let table = Table::new(name.to_string(), schema, index, Workload::default(), None);
        self.tables.push(table.clone());
        Ok(table)
    }

    fn build_index(
        &self,
        schema: &Schema,
        data: &Dataset,
        workload: &Workload,
        spec: &IndexSpec,
    ) -> Result<SharedIndex> {
        if schema.num_columns() != data.num_dims() {
            return Err(TsunamiError::DimensionMismatch {
                expected: data.num_dims(),
                got: schema.num_columns(),
            });
        }
        for q in workload.queries() {
            q.validate_dims(data.num_dims())?;
        }
        spec.build(data, workload, &self.cost)
    }

    fn check_name_unused(&self, name: &str) -> Result<()> {
        if self.tables.iter().any(|t| t.name() == name) {
            return Err(TsunamiError::DuplicateTable(name.to_string()));
        }
        Ok(())
    }

    /// Looks up a table by name.
    pub fn table(&self, name: &str) -> Result<Table> {
        self.tables
            .iter()
            .find(|t| t.name() == name)
            .cloned()
            .ok_or_else(|| TsunamiError::UnknownTable(name.to_string()))
    }

    /// All registered tables, in registration order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.iter()
    }

    /// Number of registered tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Drops a table from the catalog. Outstanding handles and prepared
    /// queries keep working (the state is shared by `Arc`); only the name
    /// becomes free.
    pub fn drop_table(&mut self, name: &str) -> Result<Table> {
        if self.durability.is_some() {
            // There is no DropTable WAL record: recovery would resurrect the
            // table. Refuse rather than silently un-persist a drop.
            return Err(TsunamiError::Durability(
                "drop_table is not supported on a durable database".into(),
            ));
        }
        match self.tables.iter().position(|t| t.name() == name) {
            Some(i) => {
                // Views over the dropped table go with it; keeping them would
                // leave reads that can never resolve their table again.
                self.views.retain(|v| v.table() != name);
                Ok(self.tables.remove(i))
            }
            None => Err(TsunamiError::UnknownTable(name.to_string())),
        }
    }

    /// Registers a named materialized view: an aggregate `query` over table
    /// `table` whose answer the engine keeps pre-folded and maintains
    /// incrementally across inserts/deletes/restructures (see
    /// [`crate::view`]). The query is validated against the table's schema
    /// width up front. On a durable database the view *spec* is WAL-logged
    /// (state is recomputed after recovery, so it cannot diverge from the
    /// durable data). Read the answer with [`Database::view_value`].
    pub fn register_view(&mut self, table: &str, name: &str, query: Query) -> Result<()> {
        let owner = self.table(table)?;
        query.validate_dims(owner.schema().num_columns())?;
        if self.views.iter().any(|v| v.name() == name) {
            return Err(TsunamiError::DuplicateView(name.to_string()));
        }
        self.log_mutation(|| WalRecord::RegisterView {
            table: table.to_string(),
            name: name.to_string(),
            query: query.clone(),
        })?;
        self.views.push(MaterializedView::new(
            table.to_string(),
            name.to_string(),
            query,
        ));
        Ok(())
    }

    /// Looks up a registered view by name.
    pub fn view(&self, name: &str) -> Result<&MaterializedView> {
        self.views
            .iter()
            .find(|v| v.name() == name)
            .ok_or_else(|| TsunamiError::UnknownView(name.to_string()))
    }

    /// All registered views, in registration order.
    pub fn views(&self) -> impl Iterator<Item = &MaterializedView> {
        self.views.iter()
    }

    /// The current answer of a registered view, bit-identical to executing
    /// its query against the table directly. O(1) while the view's state is
    /// fresh; pays one lazy re-fold through the table's index after a delete
    /// or recovery invalidated it.
    pub fn view_value(&self, name: &str) -> Result<AggResult> {
        let view = self.view(name)?;
        let table = self.table(view.table())?;
        view.value(table.index())
    }

    /// Rebuilds a table's index for a new workload (the paper's workload-
    /// shift scenario, Fig 9a): same name, same schema, same rows (read back
    /// out of the old index's store — [`Table::dataset`]), fresh layout, same
    /// position in the catalog's iteration order. Returns the
    /// new handle; old handles keep answering through the stale layout until
    /// dropped — and keep recording into the same observation log, which is
    /// cleared by the swap (the observations are consumed by the new
    /// layout's reference workload). On failure the catalog is unchanged.
    pub fn reindex(&mut self, name: &str, workload: &Workload, spec: &IndexSpec) -> Result<Table> {
        let pos = self.position(name)?;
        let data = self.tables[pos].dataset();
        self.reindex_over(pos, &data, workload, spec)
    }

    /// [`Database::reindex`] over already-materialized rows of table `pos`.
    fn reindex_over(
        &mut self,
        pos: usize,
        data: &Dataset,
        workload: &Workload,
        spec: &IndexSpec,
    ) -> Result<Table> {
        let old = &self.tables[pos];
        let index = self.build_index(old.schema(), data, workload, spec)?;
        let table = old.next_generation(index, workload.clone(), Some(spec.clone()), 0);
        table.clear_observations();
        self.tables[pos] = table.clone();
        Ok(table)
    }

    /// Inserts one row into a table. See [`Database::insert_batch`].
    pub fn insert(&mut self, name: &str, row: &[tsunami_core::Value]) -> Result<Table> {
        self.insert_batch(name, std::slice::from_ref(&row.to_vec()))
    }

    /// Inserts a batch of rows into a table, absorbing them into the
    /// existing index **without a rebuild** where the family supports it
    /// ([`MultiDimIndex::ingest_batch`](tsunami_core::MultiDimIndex::ingest_batch)):
    /// Tsunami routes rows to their Grid-Tree regions and parks them in a
    /// per-region delta, grafted into the clustered layout once per scan
    /// block; a full-scan table appends the batch. Every other family is
    /// laid out again over [`Table::dataset`] plus the batch
    /// ([`MultiDimIndex::relayout`](tsunami_core::MultiDimIndex::relayout)),
    /// keeping the decision its build made: Flood's partition counts,
    /// SingleDim's sort dimension, the paged baselines' page size and the
    /// k-d tree's dimension order.
    ///
    /// Rows are validated against the table's schema width. Swap semantics
    /// match [`Database::reindex`] — scheduler-safe: the catalog entry is
    /// replaced atomically with a new table generation, outstanding handles
    /// and prepared queries keep answering over the pre-insert snapshot
    /// until dropped, and on failure the catalog is unchanged.
    pub fn insert_batch(&mut self, name: &str, rows: &[Point]) -> Result<Table> {
        Ok(self.insert_batch_with_report(name, rows)?.0)
    }

    /// Like [`Database::insert_batch`], also returning the Tsunami ingest
    /// report (`None` for other index families).
    pub fn insert_batch_with_report(
        &mut self,
        name: &str,
        rows: &[Point],
    ) -> Result<(Table, Option<IngestReport>)> {
        let (table, _, report) = self.mutate(name, Mutation::Insert(rows))?;
        Ok((table, report))
    }

    /// Deletes every row matching the conjunction of `predicates` from a
    /// table. See [`Database::delete_with_count`].
    pub fn delete(&mut self, name: &str, predicates: &[Predicate]) -> Result<Table> {
        Ok(self.delete_with_count(name, predicates)?.0)
    }

    /// Deletes every row matching the conjunction of `predicates`, returning
    /// the new table handle and the number of rows deleted.
    ///
    /// Deletion is **tombstone-first** where the index family supports it
    /// ([`MultiDimIndex::delete_matching`](tsunami_core::MultiDimIndex::delete_matching)):
    /// Tsunami marks matching rows in the store's deletion bitmap — every
    /// scan tier masks them out — and that is all, unless a region's dead
    /// fraction passes [`TsunamiConfig::ingest_region_staleness`] (it is
    /// physically compacted) or the whole index's mutated fraction passes
    /// [`TsunamiConfig::ingest_rebuild_staleness`] (it is rebuilt over the
    /// live rows). Full-scan tables
    /// tombstone and compact once majority-dead; every other family is laid
    /// out again over the surviving rows of [`Table::dataset`], keeping the
    /// decision its build made (see [`Database::insert_batch`]).
    ///
    /// The count comes from the index's own delete, and a delete that
    /// matches nothing changes nothing: no WAL record, no swap. Deletes feed
    /// the same data-drift counter as inserts
    /// ([`Table::data_drift_fraction`]), so [`Database::auto_reoptimize`]
    /// eventually re-optimizes a heavily-deleted table. Swap semantics match
    /// [`Database::insert_batch`]: old handles keep answering over the
    /// pre-delete snapshot, and on failure the catalog is unchanged.
    pub fn delete_with_count(
        &mut self,
        name: &str,
        predicates: &[Predicate],
    ) -> Result<(Table, usize)> {
        let (table, deleted, _) = self.mutate(name, Mutation::Delete(predicates))?;
        Ok((table, deleted))
    }

    /// The one path every insert and delete takes: validate → ask the index
    /// for its successor → log → swap the table generation → maintain the
    /// views. Returns the new handle, the rows inserted or deleted, and the
    /// ingest report if the index kept one.
    fn mutate(
        &mut self,
        name: &str,
        mutation: Mutation<'_>,
    ) -> Result<(Table, usize, Option<IngestReport>)> {
        let pos = self.position(name)?;
        let old = self.tables[pos].clone();
        let width = old.num_columns();
        // Asking is pure — the old index is untouched — so nothing below has
        // happened yet if it fails, or if a delete turns out to match
        // nothing.
        let (successor, record) = match mutation {
            Mutation::Insert(rows) => {
                let batch = Dataset::from_rows(width, rows)?;
                let successor = match old.index().ingest_batch(&batch)? {
                    Some(successor) => successor,
                    None => {
                        let mut data = old.dataset();
                        for row in rows {
                            data.push_row(row)?;
                        }
                        relayout(&old, &data, rows.len())?
                    }
                };
                let table = name.to_string();
                (successor, WalRecord::InsertBatch { table, rows: batch })
            }
            Mutation::Delete(predicates) => {
                let query = Query::count(predicates.to_vec())?;
                query.validate_dims(width)?;
                let successor = match old.index().delete_matching(&query)? {
                    Some(successor) => successor,
                    None => {
                        let data = old.dataset();
                        let matches = |r: usize| {
                            let mut predicates = query.predicates().iter();
                            predicates.all(|p| p.matches(data.get(r, p.dim)))
                        };
                        let keep: Vec<usize> = (0..data.len()).filter(|&r| !matches(r)).collect();
                        let deleted = data.len() - keep.len();
                        if deleted == 0 {
                            return Ok((old, 0, None));
                        }
                        relayout(&old, &data.select_rows(&keep), deleted)?
                    }
                };
                if successor.rows == 0 {
                    return Ok((old, 0, None));
                }
                let (table, predicates) = (name.to_string(), predicates.to_vec());
                (successor, WalRecord::Delete { table, predicates })
            }
        };
        // Log-before-apply: the mutation is durable before the catalog
        // changes.
        self.log_mutation(|| record)?;

        // Inserts and deletes alike are mutations against the optimized-for
        // layout and feed one drift counter — unless this one re-derived the
        // whole layout (a Tsunami staleness escalation), which already
        // covers it: the counter restarts, so auto_reoptimize does not fire
        // a second rebuild for it.
        let drift = if successor.rebuilt {
            0
        } else {
            old.state.inserted_since_reopt + successor.rows
        };
        let table = old.next_generation(
            successor.index,
            old.reference_workload().clone(),
            old.state.spec.clone(),
            drift,
        );
        self.tables[pos] = table.clone();
        // Incremental view maintenance (see `crate::view`): an insert folds
        // the batch's matching rows into each view on this table as one
        // delta; tombstoned rows cannot be un-folded from MIN/MAX state, so
        // a delete invalidates and the view re-folds lazily on its next read.
        for view in self.views.iter().filter(|v| v.table() == name) {
            match mutation {
                Mutation::Insert(rows) => view.apply_insert(rows),
                Mutation::Delete(_) => view.invalidate(),
            }
        }
        Ok((table, successor.rows, successor.ingest_report))
    }

    /// The autonomous monitor → re-optimize loop: compares the queries
    /// recorded via [`Table::record_query`] (the table's bounded observation
    /// log is the engine's sliding window) against the workload the table's
    /// layout was optimized for and rebuilds the layout as
    /// [`Database::reindex`] does — which also drains the log, so the
    /// consumed observations become the new reference — when either kind of
    /// drift is detected:
    ///
    /// * **workload drift** — the observed query-type mix shifted from the
    ///   optimized-for reference;
    /// * **data drift** — the fraction of rows inserted since the layout
    ///   was last (re)derived ([`Table::data_drift_fraction`]) passed the
    ///   [`TsunamiConfig::ingest_region_staleness`] bar; ingestion keeps
    ///   results correct on its own, but accumulated growth eventually
    ///   earns the optimizer a pass even with an unchanged workload.
    ///
    /// Returns `Ok(None)` when neither drift is present. A call with nothing
    /// observed and no data drift is free; otherwise the rows are
    /// materialized once ([`Table::dataset`]) for the drift monitor and the
    /// rebuild to share.
    pub fn auto_reoptimize(&mut self, name: &str, spec: &IndexSpec) -> Result<Option<Table>> {
        let pos = self.position(name)?;
        let table = self.tables[pos].clone();
        let observed = table.observed_workload();
        let config = match spec {
            IndexSpec::Tsunami(c) => c.clone(),
            _ => TsunamiConfig::default(),
        };
        let data_drift = table.data_drift_fraction() > config.ingest_region_staleness;
        if !data_drift && observed.is_empty() {
            return Ok(None);
        }
        let data = table.dataset();
        let workload_drift = || {
            WorkloadMonitor::new(&data, table.reference_workload(), &config)
                .observe(&data, &observed, &config)
                .reoptimize
        };
        if !data_drift && !workload_drift() {
            return Ok(None);
        }
        // Data drift alone re-optimizes for whatever workload evidence is at
        // hand: the observation log if any, else the current reference.
        let target = if observed.is_empty() {
            table.reference_workload().clone()
        } else {
            observed
        };
        self.reindex_over(pos, &data, &target, spec).map(Some)
    }

    fn position(&self, name: &str) -> Result<usize> {
        self.tables
            .iter()
            .position(|t| t.name() == name)
            .ok_or_else(|| TsunamiError::UnknownTable(name.to_string()))
    }
}

/// The successor for index families that patch no mutation in: the same
/// family laid out over `data` — the live rows plus or minus the `rows`
/// mutated — under the decision its build made
/// ([`MultiDimIndex::relayout`](tsunami_core::MultiDimIndex::relayout)).
/// The layout is not re-derived, so the mutation counts toward data drift.
fn relayout(old: &Table, data: &Dataset, rows: usize) -> Result<Successor> {
    let index = old.index().relayout(data).ok_or_else(|| {
        TsunamiError::Build(format!(
            "table '{}' holds a {} index, which has no mutation path",
            old.name(),
            old.index().name()
        ))
    })?;
    Ok(Successor {
        index,
        rows,
        rebuilt: false,
        ingest_report: None,
    })
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.tables)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::{Aggregation, Predicate, Query};

    fn data() -> Dataset {
        Dataset::from_columns(vec![
            (0..1_000u64).collect(),
            (0..1_000u64).map(|v| v * 2).collect(),
        ])
        .unwrap()
    }

    #[test]
    fn create_lookup_and_query_roundtrip() {
        let mut db = Database::new();
        let t = db
            .create_table(
                "orders",
                &["id", "price"],
                data(),
                &Workload::default(),
                &IndexSpec::FullScan,
            )
            .unwrap();
        assert_eq!(t.name(), "orders");
        assert_eq!(db.num_tables(), 1);

        let r = db
            .table("orders")
            .unwrap()
            .query()
            .range("id", 10, 19)
            .unwrap()
            .execute()
            .unwrap();
        assert_eq!(r.as_count(), Some(10));

        assert_eq!(
            db.table("nope").err(),
            Some(TsunamiError::UnknownTable("nope".into()))
        );
    }

    #[test]
    fn duplicate_and_mismatched_registrations_are_rejected() {
        let mut db = Database::new();
        db.create_table_unnamed("t", data(), &Workload::default(), &IndexSpec::FullScan)
            .unwrap();
        assert_eq!(
            db.create_table_unnamed("t", data(), &Workload::default(), &IndexSpec::FullScan)
                .err(),
            Some(TsunamiError::DuplicateTable("t".into()))
        );
        // Schema width must match the dataset.
        assert!(matches!(
            db.create_table(
                "u",
                &["only_one"],
                data(),
                &Workload::default(),
                &IndexSpec::FullScan
            )
            .err(),
            Some(TsunamiError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn boundary_validation_rejects_out_of_bounds_queries() {
        let mut db = Database::new();
        let t = db
            .create_table(
                "t",
                &["a", "b"],
                data(),
                &Workload::default(),
                &IndexSpec::FullScan,
            )
            .unwrap();

        // Hand-assembled query with a phantom predicate dimension.
        let q = Query::count(vec![Predicate::range(7, 0, 10).unwrap()]).unwrap();
        assert_eq!(
            t.execute(&q).err(),
            Some(TsunamiError::DimensionOutOfBounds {
                dim: 7,
                num_dims: 2
            })
        );
        // ... and with an out-of-bounds aggregation input.
        let q = Query::new(vec![], Aggregation::Sum(4)).unwrap();
        assert_eq!(
            t.prepare(q).err(),
            Some(TsunamiError::DimensionOutOfBounds {
                dim: 4,
                num_dims: 2
            })
        );
        // The builder can't even express those: unknown names fail earlier.
        assert_eq!(
            t.query().range("zzz", 0, 1).err(),
            Some(TsunamiError::UnknownColumn("zzz".into()))
        );
        assert_eq!(
            t.query().sum(9usize).err(),
            Some(TsunamiError::DimensionOutOfBounds {
                dim: 9,
                num_dims: 2
            })
        );
        // A workload containing an out-of-bounds query is rejected at build.
        let bad = Workload::new(vec![
            Query::count(vec![Predicate::range(5, 0, 1).unwrap()]).unwrap()
        ]);
        assert_eq!(
            db.create_table_unnamed("v", data(), &bad, &IndexSpec::FullScan)
                .err(),
            Some(TsunamiError::DimensionOutOfBounds {
                dim: 5,
                num_dims: 2
            })
        );
    }

    #[test]
    fn drop_and_reindex_manage_the_catalog() {
        let mut db = Database::new();
        db.create_table_unnamed("t", data(), &Workload::default(), &IndexSpec::FullScan)
            .unwrap();
        db.create_table_unnamed("u", data(), &Workload::default(), &IndexSpec::FullScan)
            .unwrap();
        let old = db.table("t").unwrap();

        let reindexed = db
            .reindex("t", &Workload::default(), &IndexSpec::SingleDim)
            .unwrap();
        assert_eq!(db.num_tables(), 2);
        // Reindexing keeps the catalog's registration order.
        let names: Vec<&str> = db.tables().map(|t| t.name()).collect();
        assert_eq!(names, vec!["t", "u"]);
        db.drop_table("u").unwrap();
        assert_eq!(reindexed.index().name(), "SingleDim");
        // The old handle still answers through the stale index.
        let q = Query::count(vec![Predicate::range(0, 0, 9).unwrap()]).unwrap();
        assert_eq!(old.execute(&q).unwrap(), reindexed.execute(&q).unwrap());

        db.drop_table("t").unwrap();
        assert_eq!(db.num_tables(), 0);
        assert!(db.drop_table("t").is_err());
        assert!(db
            .reindex("t", &Workload::default(), &IndexSpec::FullScan)
            .is_err());
    }

    /// Correlated 3-d data plus two disjoint workloads for shift tests.
    fn shift_fixture() -> (Dataset, Workload, Workload) {
        let n = 4_000u64;
        let data = Dataset::from_columns(vec![
            (0..n).collect(),
            (0..n).map(|v| v * 2 + v % 13).collect(),
            (0..n).map(|v| (v * 7919) % 10_000).collect(),
        ])
        .unwrap();
        let day = Workload::new(
            (0..30u64)
                .map(|i| {
                    Query::count(vec![Predicate::range(0, i * 100, i * 100 + 150).unwrap()])
                        .unwrap()
                })
                .collect(),
        );
        let night = Workload::new(
            (0..30u64)
                .map(|i| {
                    Query::count(vec![Predicate::range(2, i * 250, i * 250 + 400).unwrap()])
                        .unwrap()
                })
                .collect(),
        );
        (data, day, night)
    }

    #[test]
    fn record_query_feeds_a_bounded_observation_log() {
        use crate::table::OBSERVATION_WINDOW;
        let (data, day, _) = shift_fixture();
        let spec = IndexSpec::Tsunami(TsunamiConfig::fast());
        let mut db = Database::new();
        let t = db.create_table_unnamed("t", data, &day, &spec).unwrap();
        assert_eq!(t.observed_len(), 0);
        let stream: Vec<&Query> = day
            .queries()
            .iter()
            .cycle()
            .take(OBSERVATION_WINDOW + 7)
            .collect();
        for (i, q) in stream.iter().enumerate() {
            t.record_query(q).unwrap();
            assert_eq!(t.observed_len(), (i + 1).min(OBSERVATION_WINDOW));
        }
        // Oldest observations were evicted: the log holds the last window.
        let obs = t.observed_workload();
        let last: Vec<Query> = stream[stream.len() - OBSERVATION_WINDOW..]
            .iter()
            .map(|&q| q.clone())
            .collect();
        assert_eq!(obs.queries(), &last[..]);
        // Out-of-bounds observations are rejected at the boundary.
        let bad = Query::count(vec![Predicate::range(9, 0, 1).unwrap()]).unwrap();
        assert!(t.record_query(&bad).is_err());
        t.clear_observations();
        assert_eq!(t.observed_len(), 0);
    }

    /// COUNT plus SUM/MIN/MAX/AVG of `dim` under `predicates`.
    fn five_aggregations(predicates: &[Predicate], dim: usize) -> Vec<Query> {
        [
            Aggregation::Count,
            Aggregation::Sum(dim),
            Aggregation::Min(dim),
            Aggregation::Max(dim),
            Aggregation::Avg(dim),
        ]
        .into_iter()
        .map(|agg| Query::new(predicates.to_vec(), agg).unwrap())
        .collect()
    }

    /// Asserts that `table` holds exactly `rows` — an independently
    /// maintained list: the live count, the materialized multiset, and all
    /// five aggregations against a full scan of the list.
    fn assert_holds(table: &Table, rows: &[Point], step: &str) {
        let name = table.name();
        assert_eq!(table.num_rows(), rows.len(), "{name} after {step}");
        let mut held: Vec<Point> = table.dataset().rows().collect();
        let mut expected = rows.to_vec();
        held.sort_unstable();
        expected.sort_unstable();
        assert_eq!(held, expected, "{name} after {step}");
        let oracle = Dataset::from_rows(3, rows).unwrap();
        let probes = [
            five_aggregations(&[Predicate::range(0, 0, 2_000).unwrap()], 2),
            five_aggregations(&[Predicate::range(2, 900_000, 2_000_000).unwrap()], 1),
            five_aggregations(&[], 0),
        ];
        for q in probes.iter().flatten() {
            assert_eq!(
                table.execute(q).unwrap(),
                q.execute_full_scan(&oracle),
                "{name} after {step} diverged on {q:?}"
            );
        }
    }

    /// In-domain rows plus one beyond every build-time domain, offset by
    /// `salt` so two batches differ.
    fn batch(salt: u64) -> Vec<Point> {
        let mut rows: Vec<Point> = (0..150u64)
            .map(|i| vec![i * 3 + salt, i * 5, i * 7])
            .collect();
        rows.push(vec![1_000_000 + salt, 1_000_000, 1_000_000]);
        rows
    }

    fn delete_from(rows: &mut Vec<Point>, band: &[Predicate]) -> usize {
        let before = rows.len();
        rows.retain(|row| !band.iter().all(|p| p.matches(row[p.dim])));
        before - rows.len()
    }

    #[test]
    fn insert_batch_ingests_across_families_with_swap_semantics() {
        let (data, day, _) = shift_fixture();
        let band = [Predicate::range(0, 300, 1_499).unwrap()];
        let mut db = Database::new();
        for spec in IndexSpec::all_fast() {
            let name = spec.label();
            db.create_table_unnamed(name, data.clone(), &day, &spec)
                .unwrap();
            let before = db.table(name).unwrap();
            let mut rows: Vec<Point> = data.rows().collect();
            assert_holds(&before, &rows, "create");

            let after = db.insert_batch(name, &batch(0)).unwrap();
            // Old handles keep answering over the pre-insert snapshot.
            assert_holds(&before, &rows, "insert (old handle)");
            rows.extend(batch(0));
            assert_holds(&after, &rows, "insert");

            let (after, deleted) = db.delete_with_count(name, &band).unwrap();
            assert_eq!(deleted, delete_from(&mut rows, &band), "{name}");
            assert_holds(&after, &rows, "delete");

            // The rebuild reads its rows back out of the mutated store.
            let after = db.reindex(name, &day, &spec).unwrap();
            assert_holds(&after, &rows, "reindex");

            let after = db.insert_batch(name, &batch(1)).unwrap();
            rows.extend(batch(1));
            assert_holds(&after, &rows, "second insert");

            // Emptied and filled again: a layout over no rows, then over
            // the batch alone.
            let (_, deleted) = db.delete_with_count(name, &[]).unwrap();
            assert_eq!(deleted, rows.len(), "{name}");
            rows.clear();
            assert_holds(&db.table(name).unwrap(), &rows, "delete everything");
            let after = db.insert_batch(name, &batch(2)).unwrap();
            rows.extend(batch(2));
            assert_holds(&after, &rows, "insert into an empty table");

            // Single-row convenience + schema validation, checked by the
            // engine before any family sees the row.
            db.insert(name, &[1, 2, 3]).unwrap();
            assert!(db.insert(name, &[1, 2]).is_err(), "{name}");
        }
        assert!(db.insert_batch("nope", &[vec![1, 2, 3]]).is_err());
    }

    #[test]
    fn writes_keep_the_layout_the_build_chose() {
        let (data, day, _) = shift_fixture();
        let band = [Predicate::range(0, 300, 1_499).unwrap()];
        let mut db = Database::new();
        for spec in IndexSpec::all_fast() {
            let name = spec.label();
            db.create_table_unnamed(name, data.clone(), &day, &spec)
                .unwrap();
            let mut rows: Vec<Point> = data.rows().collect();
            db.insert_batch(name, &batch(0)).unwrap();
            rows.extend(batch(0));
            let (after, deleted) = db.delete_with_count(name, &band).unwrap();
            assert_eq!(deleted, delete_from(&mut rows, &band), "{name}");
            assert_holds(&after, &rows, "insert and delete");
            // No write ran an optimizer: the layout is the build's.
            if name != "Tsunami" {
                assert_eq!(after.index().build_timing().optimize_secs, 0.0, "{name}");
            }
        }
        // A baseline registered without a spec can be written too.
        let index = tsunami_baselines::ClusteredSingleDimIndex::build_on_dim(&data, 2);
        db.register_table("r", Schema::numbered(3), Box::new(index))
            .unwrap();
        let mut rows: Vec<Point> = data.rows().collect();
        let after = db.insert_batch("r", &batch(0)).unwrap();
        rows.extend(batch(0));
        assert_holds(&after, &rows, "insert into a registered table");
        let after = db.delete("r", &band).unwrap();
        delete_from(&mut rows, &band);
        assert_holds(&after, &rows, "delete from a registered table");
    }

    #[test]
    fn ingested_rows_are_encoded_in_every_family() {
        // Three full blocks and a partial one, then four batches that add
        // more than three blocks' worth of rows. Every family packs what it
        // ingests: at most the trailing partial block plus Tsunami's delta
        // (fewer than one graft's worth of rows) stays plain.
        use tsunami_core::exec::BLOCK_ROWS;
        let (data, day, _) = shift_fixture();
        assert!(data.len() >= 3 * BLOCK_ROWS);
        let mut db = Database::new();
        for spec in IndexSpec::all_fast() {
            let name = spec.label();
            db.create_table_unnamed(name, data.clone(), &day, &spec)
                .unwrap();
            let mut rows: Vec<Point> = data.rows().collect();
            for salt in 0..4u64 {
                let new: Vec<Point> = (0..800u64)
                    .map(|i| vec![(i * 37 + salt) % 5_000, i * 3 + salt, (i * 7_919) % 10_000])
                    .collect();
                rows.extend(new.iter().cloned());
                let table = db.insert_batch(name, &new).unwrap();
                let source = table.index().source();
                for d in 0..source.num_dims() {
                    let plain = source.column_data(d).tail.len();
                    assert!(
                        plain < 2 * BLOCK_ROWS,
                        "{name}: {plain} plain rows in column {d} after batch {salt}"
                    );
                }
            }
            assert!(rows.len() >= data.len() + 3 * BLOCK_ROWS);
            assert_holds(&db.table(name).unwrap(), &rows, "ingest");
        }
    }

    #[test]
    fn old_handles_keep_answering_their_own_generation() {
        // A Tsunami successor shares its predecessor's encoded blocks and
        // grids by pointer and copies only the plain tail. Twenty mutations
        // on — small inserts into the delta, deletes that tombstone main and
        // delta rows, a batch big enough to graft at once — every earlier
        // generation must still hold exactly the rows it held.
        let (data, day, _) = shift_fixture();
        let mut db = Database::new();
        let spec = IndexSpec::Tsunami(TsunamiConfig::fast());
        db.create_table_unnamed("t", data.clone(), &day, &spec)
            .unwrap();
        let mut rows: Vec<Point> = data.rows().collect();
        let mut generations = vec![(db.table("t").unwrap(), rows.clone())];
        for step in 0..20u64 {
            let table = if step % 5 == 3 {
                let band = [Predicate::range(0, step * 40, step * 40 + 25).unwrap()];
                let (table, deleted) = db.delete_with_count("t", &band).unwrap();
                assert_eq!(deleted, delete_from(&mut rows, &band), "step {step}");
                assert!(deleted > 0, "step {step}");
                table
            } else {
                let mut new = batch(step);
                if step == 9 {
                    new.extend((0..1_100u64).map(|i| vec![i * 3 % 4_000, i * 11, i * 13]));
                } else {
                    new.truncate(40);
                }
                rows.extend(new.iter().cloned());
                db.insert_batch("t", &new).unwrap()
            };
            generations.push((table, rows.clone()));
        }
        for (generation, (table, rows)) in generations.iter().enumerate() {
            assert_holds(table, rows, &format!("generation {generation}"));
        }
    }

    #[test]
    fn insert_batch_reports_tsunami_ingest() {
        let (data, day, _) = shift_fixture();
        let spec = IndexSpec::Tsunami(TsunamiConfig::fast());
        let mut db = Database::new();
        db.create_table_unnamed("t", data, &day, &spec).unwrap();
        let rows: Vec<Vec<u64>> = (0..100u64).map(|i| vec![i, 2 * i, 3 * i]).collect();
        let (_, report) = db.insert_batch_with_report("t", &rows).unwrap();
        let report = report.expect("Tsunami tables report their ingest");
        assert_eq!(report.rows_ingested, rows.len());
        assert!(!report.rebuilt);
        // Non-Tsunami families return no report.
        let mut db2 = Database::new();
        let (data2, day2, _) = shift_fixture();
        db2.create_table_unnamed("f", data2, &day2, &IndexSpec::flood())
            .unwrap();
        let (_, report) = db2.insert_batch_with_report("f", &rows).unwrap();
        assert!(report.is_none());
    }

    #[test]
    fn delete_hides_rows_across_families_with_swap_semantics() {
        let dir = temp_db_dir("families");
        let (data, day, _) = shift_fixture();
        let band = [Predicate::range(0, 300, 1_499).unwrap()];
        let mut expected: Vec<(&str, Vec<Point>)> = Vec::new();
        {
            let mut db = Database::open(&dir).unwrap();
            for spec in IndexSpec::all_fast() {
                let name = spec.label();
                db.create_table_unnamed(name, data.clone(), &day, &spec)
                    .unwrap();
                let mut rows: Vec<Point> = data.rows().collect();

                let before = db.insert_batch(name, &batch(0)).unwrap();
                rows.extend(batch(0));
                assert_holds(&before, &rows, "insert");

                let (after, deleted) = db.delete_with_count(name, &band).unwrap();
                // Old handles keep answering over the pre-delete snapshot.
                assert_holds(&before, &rows, "delete (old handle)");
                assert_eq!(deleted, delete_from(&mut rows, &band), "{name}");
                // 1,200 build-time rows and 50 ingested ones.
                assert_eq!(deleted, 1_250, "{name}");
                assert_holds(&after, &rows, "delete");
                // Every family's delete feeds the engine's data-drift
                // counter: none re-derives its layout to absorb it.
                assert!(
                    after.data_drift_fraction() > before.data_drift_fraction(),
                    "{name}"
                );

                // Deleting the same band again matches nothing in the live
                // rows: a no-op that reaches neither the log nor the catalog.
                let wal_len = || std::fs::metadata(dir.join("wal.log")).unwrap().len();
                let logged = wal_len();
                let (_, again) = db.delete_with_count(name, &band).unwrap();
                assert_eq!(again, 0, "{name}");
                assert_eq!(wal_len(), logged, "{name}");

                let after = db.reindex(name, &day, &spec).unwrap();
                assert_holds(&after, &rows, "reindex");

                let after = db.insert_batch(name, &batch(1)).unwrap();
                rows.extend(batch(1));
                assert_holds(&after, &rows, "second insert");
                expected.push((name, rows));
            }
            // Out-of-bounds predicates are rejected at the boundary.
            assert!(db
                .delete("Flood", &[Predicate::range(9, 0, 1).unwrap()])
                .is_err());
            assert!(db.delete("nope", &[]).is_err());

            // The snapshot is read back out of each index's store...
            db.checkpoint().unwrap();
            for (name, rows) in &expected {
                assert_holds(&db.table(name).unwrap(), rows, "checkpoint");
            }
        }
        // ...and a fresh process recovers exactly the live rows from it.
        let db = Database::open(&dir).unwrap();
        for (name, rows) in &expected {
            assert_holds(&db.table(name).unwrap(), rows, "reopen");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_table_keeps_no_copy_of_the_callers_dataset() {
        let (data, day, _) = shift_fixture();
        let data = Arc::new(data);
        let mut db = Database::new();
        for spec in IndexSpec::all_fast() {
            let name = spec.label();
            db.create_table_unnamed(name, Arc::clone(&data), &day, &spec)
                .unwrap();
            assert_eq!(Arc::strong_count(&data), 1, "{name} after create");
            db.insert_batch(name, &batch(0)).unwrap();
            assert_eq!(Arc::strong_count(&data), 1, "{name} after insert");
            db.delete(name, &[Predicate::range(0, 300, 1_499).unwrap()])
                .unwrap();
            assert_eq!(Arc::strong_count(&data), 1, "{name} after delete");
            db.reindex(name, &day, &spec).unwrap();
            assert_eq!(Arc::strong_count(&data), 1, "{name} after reindex");
        }
    }

    #[test]
    fn a_registered_index_mutates_under_the_config_it_was_built_with() {
        use tsunami_index::{OptimizerKind, TsunamiIndex};
        let (data, day, _) = shift_fixture();
        // A zero rebuild bar: under its own config every mutation rebuilds,
        // under a default one none of these would.
        let config = (TsunamiConfig::fast())
            .with_optimizer(OptimizerKind::Independent)
            .with_ingest_staleness(0.25, 0.0);
        let index = TsunamiIndex::build(&data, &day, &config).unwrap();
        let mut db = Database::new();
        db.register_table("t", Schema::numbered(3), Box::new(index))
            .unwrap();
        let mut rows: Vec<Point> = data.rows().collect();
        let tsunami = |table: &Table| {
            let index = table.index().as_any().and_then(|a| a.downcast_ref());
            let index: &TsunamiIndex = index.expect("a Tsunami table");
            // Still Flood-style grids, and no staleness left after a rebuild.
            let stats = index.stats();
            assert_eq!(stats.avg_fms_per_region + stats.avg_ccdfs_per_region, 0.0);
            index.data_staleness()
        };

        let (after, report) = db.insert_batch_with_report("t", &batch(0)).unwrap();
        rows.extend(batch(0));
        assert!(report.expect("Tsunami tables report their ingest").rebuilt);
        assert_eq!(tsunami(&after), 0.0);
        assert_holds(&after, &rows, "insert");

        let band = [Predicate::range(0, 300, 1_499).unwrap()];
        let after = db.delete("t", &band).unwrap();
        delete_from(&mut rows, &band);
        assert_eq!(tsunami(&after), 0.0);
        assert_holds(&after, &rows, "delete");
    }

    fn temp_db_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tsunami_engine_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_database_recovers_all_mutations_on_reopen() {
        let dir = temp_db_dir("recover");
        let (data, day, _) = shift_fixture();
        let probes = [
            Query::count(vec![Predicate::range(0, 0, 2_000).unwrap()]).unwrap(),
            Query::new(
                vec![Predicate::range(1, 0, 4_000).unwrap()],
                Aggregation::Sum(2),
            )
            .unwrap(),
            Query::new(vec![], Aggregation::Min(1)).unwrap(),
        ];
        let expected = {
            let mut db = Database::open(&dir).unwrap();
            assert!(db.is_durable());
            assert_eq!(db.num_tables(), 0);
            db.create_table_unnamed("t", data.clone(), &day, &IndexSpec::SingleDim)
                .unwrap();
            let rows: Vec<Vec<u64>> = (0..64u64).map(|i| vec![i, i * 2, i * 3]).collect();
            db.insert_batch("t", &rows).unwrap();
            db.delete("t", &[Predicate::range(0, 100, 299).unwrap()])
                .unwrap();
            let t = db.table("t").unwrap();
            probes
                .iter()
                .map(|q| t.execute(q).unwrap())
                .collect::<Vec<_>>()
        };

        // A fresh process (nothing shared but the directory) sees the same
        // logical state, bit-identically.
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.num_tables(), 1);
        let t = db.table("t").unwrap();
        let replayed: Vec<_> = probes.iter().map(|q| t.execute(q).unwrap()).collect();
        assert_eq!(replayed, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_resets_the_wal_and_survives_reopen() {
        let dir = temp_db_dir("checkpoint");
        let (data, day, _) = shift_fixture();
        let q = Query::count(vec![Predicate::range(0, 0, 2_000).unwrap()]).unwrap();
        let expected = {
            let mut db = Database::open(&dir).unwrap();
            db.create_table_unnamed("t", data, &day, &IndexSpec::FullScan)
                .unwrap();
            db.delete("t", &[Predicate::range(0, 0, 99).unwrap()])
                .unwrap();
            db.checkpoint().unwrap();
            // Post-checkpoint mutations land in the fresh WAL.
            db.insert_batch("t", &[vec![1u64, 2, 3]]).unwrap();
            db.table("t").unwrap().execute(&q).unwrap()
        };
        // The WAL was truncated to just the generation marker + the insert.
        let (records, _) = tsunami_store::wal::replay(&dir.join("wal.log")).unwrap();
        assert!(matches!(
            records.first(),
            Some(WalRecord::Checkpoint { generation: 1, .. })
        ));
        assert_eq!(records.len(), 2);

        let db = Database::open(&dir).unwrap();
        assert_eq!(db.table("t").unwrap().execute(&q).unwrap(), expected);
        // Checkpointing an in-memory database is an error.
        assert!(Database::new().checkpoint().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Rewrites every frame of a log/checkpoint file as the previous format
    /// version would have stamped it (version byte + matching checksum).
    fn stamp_previous_version(path: &std::path::Path) {
        use tsunami_store::wal::{checksum, WAL_VERSION};
        let mut bytes = std::fs::read(path).unwrap();
        let mut pos = 0;
        while pos < bytes.len() {
            let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let payload = pos + 8..pos + 8 + len;
            bytes[payload.start] = WAL_VERSION - 1;
            let sum = checksum(&bytes[payload.clone()]);
            bytes[pos + 4..pos + 8].copy_from_slice(&sum.to_be_bytes());
            pos = payload.end;
        }
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn files_of_the_previous_format_version_are_refused_not_truncated() {
        // The previous version carried a variant byte in a Tsunami spec and
        // a seed in a Flood spec; its files must neither mis-decode nor be
        // amputated as a torn tail.
        let previous = format!("format version {}", tsunami_store::wal::WAL_VERSION - 1);
        for file in ["wal.log", "checkpoint.db"] {
            let dir = temp_db_dir(&format!("old_version_{}", file.replace('.', "_")));
            let (data, day, _) = shift_fixture();
            {
                let mut db = Database::open(&dir).unwrap();
                db.create_table_unnamed(
                    "t",
                    data,
                    &day,
                    &IndexSpec::Tsunami(TsunamiConfig::fast()),
                )
                .unwrap();
                db.checkpoint().unwrap();
                db.insert_batch("t", &[vec![1u64, 2, 3]]).unwrap();
            }
            let path = dir.join(file);
            stamp_previous_version(&path);
            let stamped = std::fs::read(&path).unwrap();
            let err = Database::open(&dir).expect_err("old format must not open");
            assert!(
                matches!(&err, TsunamiError::Durability(m) if m.contains(&previous)),
                "{file}: {err:?}"
            );
            assert_eq!(
                std::fs::read(&path).unwrap(),
                stamped,
                "{file} was modified"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn durable_database_rejects_unreplayable_operations() {
        let dir = temp_db_dir("rejects");
        let (data, day, _) = shift_fixture();
        let mut db = Database::open(&dir).unwrap();
        db.create_table_unnamed("t", data.clone(), &day, &IndexSpec::FullScan)
            .unwrap();
        // register_table has no spec to replay from; drop_table has no
        // DropTable record. Both must refuse rather than diverge from disk.
        let index: SharedIndex = Box::new(tsunami_baselines::FullScanIndex::build(&data));
        assert!(matches!(
            db.register_table("u", Schema::numbered(3), index).err(),
            Some(TsunamiError::Durability(_))
        ));
        assert!(matches!(
            db.drop_table("t").err(),
            Some(TsunamiError::Durability(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_reoptimize_fires_on_data_drift_without_workload_shift() {
        let (data, day, _) = shift_fixture();
        // Tight region bar so a modest batch is already "drifted"; huge
        // rebuild bar so ingest itself never escalates.
        let config = TsunamiConfig {
            ingest_region_staleness: 0.02,
            ingest_rebuild_staleness: 1.0,
            ..TsunamiConfig::fast()
        };
        let spec = IndexSpec::Tsunami(config);
        let mut db = Database::new();
        db.create_table_unnamed("t", data.clone(), &day, &spec)
            .unwrap();

        // Fresh table, nothing observed: no action.
        assert!(db.auto_reoptimize("t", &spec).unwrap().is_none());

        let rows: Vec<Vec<u64>> = (0..400u64).map(|i| vec![i * 2, i * 4, i * 11]).collect();
        db.insert_batch("t", &rows).unwrap();

        // No queries observed, but the ingested fraction passed the bar:
        // the autonomous loop re-optimizes for the reference workload.
        let fresh = db
            .auto_reoptimize("t", &spec)
            .unwrap()
            .expect("data drift must trigger re-optimization");
        let mut merged = data;
        for row in &rows {
            merged.push_row(row).unwrap();
        }
        for q in day.queries().iter().step_by(7) {
            assert_eq!(fresh.execute(q).unwrap(), q.execute_full_scan(&merged));
        }
        // The staleness was repaid: no further action.
        assert!(db.auto_reoptimize("t", &spec).unwrap().is_none());
    }

    #[test]
    fn auto_reoptimize_triggers_only_on_shift() {
        let (data, day, night) = shift_fixture();
        let spec = IndexSpec::Tsunami(TsunamiConfig::fast());
        let mut db = Database::new();
        let t = db
            .create_table_unnamed("t", data.clone(), &day, &spec)
            .unwrap();

        // Nothing observed: no action.
        assert!(db.auto_reoptimize("t", &spec).unwrap().is_none());

        // Same-mix observations: still no action.
        for q in day.queries() {
            t.record_query(q).unwrap();
        }
        assert!(db.auto_reoptimize("t", &spec).unwrap().is_none());

        // Shifted observations: re-optimized for the observed workload.
        for q in night.queries() {
            t.record_query(q).unwrap();
        }
        for q in night.queries() {
            t.record_query(q).unwrap();
        }
        let fresh = db
            .auto_reoptimize("t", &spec)
            .unwrap()
            .expect("shifted observations must trigger re-optimization");
        for q in night.queries().iter().step_by(7) {
            assert_eq!(fresh.execute(q).unwrap(), q.execute_full_scan(&data));
        }

        // The swap consumed the observation log...
        assert_eq!(fresh.observed_len(), 0);
        assert_eq!(t.observed_len(), 0);
        // ...and the log is shared across table generations: queries
        // recorded through a pre-swap handle still reach the catalog's
        // current entry, so the autonomous loop keeps working even when the
        // recording side never re-fetches its handle.
        t.record_query(&night.queries()[0]).unwrap();
        assert_eq!(db.table("t").unwrap().observed_len(), 1);
    }
}
