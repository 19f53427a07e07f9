//! The shared physical-operator pipeline.
//!
//! Every executor in this crate — the bounded `evalDQ`, the
//! conventional-DBMS baseline, and (through `evalDQ`) the RA evaluator —
//! is a composition of the four operators in this module over batches of
//! interned rows:
//!
//! ```text
//!   Fetch  →  FilterAtom  →  HashJoin  →  Project
//! ```
//!
//! * [`Fetch`] materializes per-atom candidate batches from a table scan,
//!   an index posting list, or index witness sets — charging the
//!   [`Meter`] uniformly (this is the only place fetch work is counted).
//! * [`FilterAtom`] applies the atom-local selection conditions of `Σ_Q`.
//! * [`HashJoin`] merges the batches on their `Σ_Q` equivalence classes,
//!   hash-join style, in a greedy shared-classes-first order.
//! * [`Project`] reads the projection classes and decodes the final
//!   [`ResultSet`] back to values.
//!
//! All rows inside the pipeline are fixed-width [`Cell`] rows: join keys
//! hash a handful of `u64` words. The [`ExecContext`] carries the meter
//! and the optional work budget, so *every* executor meters identically
//! and aborts identically on budget exhaustion — the paper's 2 500 s cap,
//! deterministically.
//!
//! ## Compiled programs vs the query-walking oracle
//!
//! The hot path is the **columnar program interpreter**:
//! [`run_program_columnar`] and its `_partials` / `_prefiltered` variants
//! execute a compiled [`bcq_core::program::OpProgram`] — filter checks,
//! join schedule, key permutations and projection map all resolved to
//! positions at prepare time — over column-major [`ColumnBatch`]es, so a
//! request does zero planning-shaped work. It is the only compiled
//! executor. The query-walking operators ([`FilterAtom`], [`HashJoin`],
//! [`SemiJoin`], [`Project`], composed by [`run_join_pipeline`]) re-derive
//! that shape from the query per call; they survive as the independent
//! **oracle** the differential tests compare the interpreter against —
//! independent because they never consult the compiler.

use crate::results::ResultSet;
use bcq_core::fx::FxHashMap;
use bcq_core::prelude::{
    Cell, ColumnBatch, OpProgram, Predicate, QAttr, RowBuf, SpcQuery, SymbolTable, Value,
};
use bcq_core::program::{ColAction, PinSource};
use bcq_core::sigma::Sigma;
use bcq_storage::{Database, HashIndex, Meter, Table};
use bcq_telemetry::{NoProbe, Probe, StepKind};
use std::collections::BTreeMap;

/// Raised when the work budget is exhausted mid-pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExhausted;

/// Parameter bindings pre-encoded to interned cells — the serving layer's
/// per-request boundary crossing, paid **once** per request instead of once
/// per probe. A `None` cell means the bound value was never interned by the
/// database: nothing stored can match it, so the executor short-circuits to
/// the empty result without hashing a single string.
#[derive(Debug, Clone, Default)]
pub struct ParamEnv {
    /// Few entries per query: linear scan beats a map.
    entries: Vec<(String, Option<Cell>)>,
}

/// The shared empty environment: contexts without parameters borrow this
/// instead of allocating.
static EMPTY_PARAMS: ParamEnv = ParamEnv {
    entries: Vec::new(),
};

impl ParamEnv {
    /// An empty environment (ground plans).
    pub fn new() -> Self {
        ParamEnv::default()
    }

    /// A `'static` reference to the empty environment.
    pub fn empty_ref() -> &'static ParamEnv {
        &EMPTY_PARAMS
    }

    /// Encodes value bindings against `symbols` (read-only; unseen values
    /// become `None` cells that match nothing).
    pub fn encode(symbols: &SymbolTable, bindings: &BTreeMap<String, Value>) -> Self {
        let mut env = ParamEnv::default();
        env.rebind(symbols, bindings);
        env
    }

    /// [`ParamEnv::encode`] in place: re-encodes `bindings` into this
    /// environment, reusing the entry buffer — including the allocated
    /// name strings when the name set is unchanged, which is the steady
    /// state of a prepared query served repeatedly (the serving layer
    /// keeps one environment per thread and rebinds it per request).
    pub fn rebind(&mut self, symbols: &SymbolTable, bindings: &BTreeMap<String, Value>) {
        if self.entries.len() == bindings.len()
            && self
                .entries
                .iter()
                .zip(bindings)
                .all(|((n, _), (bn, _))| n == bn)
        {
            for ((_, c), (_, v)) in self.entries.iter_mut().zip(bindings) {
                *c = symbols.try_encode(v);
            }
        } else {
            self.entries.clear();
            self.entries.extend(
                bindings
                    .iter()
                    .map(|(name, v)| (name.clone(), symbols.try_encode(v))),
            );
        }
    }

    /// Binds one already-encoded cell.
    pub fn bind(&mut self, name: impl Into<String>, cell: Option<Cell>) {
        let name = name.into();
        match self.entries.iter_mut().find(|(n, _)| *n == name) {
            Some((_, c)) => *c = cell,
            None => self.entries.push((name, cell)),
        }
    }

    /// The binding for `name`: `None` if unbound, `Some(None)` if bound to
    /// a never-interned value, `Some(Some(cell))` otherwise.
    pub fn get(&self, name: &str) -> Option<Option<Cell>> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
    }

    /// Bound names, in insertion order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no parameters are bound.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Shared execution state: the database (for its symbol table), the meter
/// every operator charges, the optional row budget, and the parameter
/// bindings of the request being served.
pub struct ExecContext<'a> {
    /// The database being queried (operators use its symbol table; fetch
    /// sources hold their own table/index references).
    pub db: &'a Database,
    /// Work accounting, charged exclusively by pipeline operators.
    pub meter: Meter,
    /// Touched-row budget; `None` runs to completion.
    pub budget: Option<u64>,
    /// Parameter bindings for plans with [`bcq_core::plan::KeySource::Param`]
    /// slots; empty for ground plans. Borrowed: the serving layer encodes
    /// once per request and lends the environment to the context.
    pub params: &'a ParamEnv,
}

impl<'a> ExecContext<'a> {
    /// A fresh context over `db` with an optional work budget.
    pub fn new(db: &'a Database, budget: Option<u64>) -> Self {
        ExecContext {
            db,
            meter: Meter::new(),
            budget,
            params: ParamEnv::empty_ref(),
        }
    }

    /// A context carrying parameter bindings (prepared-plan execution).
    pub fn with_params(db: &'a Database, budget: Option<u64>, params: &'a ParamEnv) -> Self {
        ExecContext {
            db,
            meter: Meter::new(),
            budget,
            params,
        }
    }

    /// The symbol table query constants are encoded against.
    pub fn symbols(&self) -> &SymbolTable {
        self.db.symbols()
    }

    #[inline]
    fn check_budget(&self) -> Result<(), BudgetExhausted> {
        match self.budget {
            Some(b) if self.meter.work() > b => Err(BudgetExhausted),
            _ => Ok(()),
        }
    }

    #[inline]
    pub(crate) fn charge_fetched(&mut self) -> Result<(), BudgetExhausted> {
        self.meter.tuples_fetched += 1;
        self.check_budget()
    }

    #[inline]
    fn charge_scanned(&mut self) -> Result<(), BudgetExhausted> {
        self.meter.rows_scanned += 1;
        self.check_budget()
    }

    #[inline]
    fn charge_intermediate(&mut self) -> Result<(), BudgetExhausted> {
        self.meter.intermediate_rows += 1;
        self.check_budget()
    }

    /// Charges a whole batch of intermediate rows at once — the columnar
    /// join's per-bucket boundary. Totals match the query-walking join's
    /// one-by-one charging exactly; on budget exhaustion only the verdict
    /// is guaranteed to match (the meter may overshoot by at most one
    /// bucket, where the row-wise join stops at the first offending row).
    #[inline]
    fn charge_intermediate_n(&mut self, n: u64) -> Result<(), BudgetExhausted> {
        self.meter.intermediate_rows += n;
        self.check_budget()
    }
}

/// Candidate rows for one atom, projected onto `cols`.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The atom these rows instantiate.
    pub atom: usize,
    /// Relation columns present in each row (sorted).
    pub cols: Vec<usize>,
    /// The rows, projected onto `cols`.
    pub rows: Vec<RowBuf>,
}

/// Where a [`Fetch`] gets its rows.
pub enum FetchSource<'a> {
    /// Existence probe: one empty row if the table is non-empty
    /// (plan steps of kind `Any`).
    Existence {
        /// The probed table.
        table: &'a Table,
    },
    /// Full table scan with inline constant filtering. A `None` constant
    /// is a value the symbol table has never seen: no row can match.
    Scan {
        /// The scanned table.
        table: &'a Table,
        /// `(column, required cell)` filters applied during the scan.
        consts: Vec<(usize, Option<Cell>)>,
    },
    /// Witness-set lookups: the bounded executor's access path. One probe
    /// per key; each witness row is charged as one fetched tuple.
    IndexWitnesses {
        /// The probed index.
        index: &'a HashIndex,
        /// The table the index's row ids point into.
        table: &'a Table,
        /// Keys to probe (already interned).
        keys: Vec<RowBuf>,
    },
    /// Full-postings lookup: what a conventional DBMS reads through a
    /// secondary index — every duplicate, whole tuples. `None` means the
    /// key contained a never-interned constant (no match possible).
    IndexPostings {
        /// The probed index.
        index: &'a HashIndex,
        /// The table the index's row ids point into.
        table: &'a Table,
        /// The single constant-bound key.
        key: Option<RowBuf>,
    },
}

/// The fetch operator: materializes one batch of candidate rows, charging
/// the meter per touched row (scans charge `rows_scanned`, index reads
/// charge `tuples_fetched`, probes charge `index_probes`).
pub struct Fetch<'a> {
    /// The atom the batch instantiates.
    pub atom: usize,
    /// Relation columns to project each fetched row onto (borrowed: plans
    /// and baseline column sets outlive the fetch).
    pub cols: &'a [usize],
    /// The access path.
    pub source: FetchSource<'a>,
}

impl Fetch<'_> {
    /// Runs the fetch.
    pub fn run(&self, ctx: &mut ExecContext<'_>) -> Result<Batch, BudgetExhausted> {
        Ok(Batch {
            atom: self.atom,
            cols: self.cols.to_vec(),
            rows: self.run_rows(ctx)?,
        })
    }

    /// Runs the fetch, returning only the projected rows — the bounded
    /// executor's hot path (it tracks columns through the plan's steps and
    /// has no use for a per-fetch copy).
    pub fn run_rows(&self, ctx: &mut ExecContext<'_>) -> Result<Vec<RowBuf>, BudgetExhausted> {
        let mut rows: Vec<RowBuf> = Vec::new();
        let project = |row: &[Cell]| -> RowBuf { self.cols.iter().map(|&c| row[c]).collect() };
        match &self.source {
            FetchSource::Existence { table } => {
                if !table.is_empty() {
                    ctx.charge_fetched()?;
                    rows.push(RowBuf::new());
                }
            }
            FetchSource::Scan { table, consts } => {
                // A never-interned constant can match no stored row, but the
                // scan itself is still charged — a conventional DBMS reads
                // the table before discovering nothing matches.
                let matchable = consts.iter().all(|(_, c)| c.is_some());
                for row in table.rows() {
                    ctx.charge_scanned()?;
                    if matchable && consts.iter().all(|(i, c)| Some(row[*i]) == *c) {
                        rows.push(project(row));
                    }
                }
            }
            FetchSource::IndexWitnesses { index, table, keys } => {
                for key in keys {
                    ctx.meter.index_probes += 1;
                    for &rid in index.witnesses(key) {
                        ctx.charge_fetched()?;
                        rows.push(project(table.row(rid as usize)));
                    }
                }
            }
            FetchSource::IndexPostings { index, table, key } => {
                ctx.meter.index_probes += 1;
                if let Some(key) = key {
                    for &rid in index.all(key) {
                        ctx.charge_fetched()?;
                        rows.push(project(table.row(rid as usize)));
                    }
                }
            }
        }
        Ok(rows)
    }

    /// Runs the fetch straight into a column-major batch: matching row ids
    /// are collected first (charging the meter exactly like [`Fetch::run`]),
    /// then every projected column is gathered from the table in one
    /// contiguous pass ([`Table::gather_column`]) — no row materialization.
    pub fn run_columns(&self, ctx: &mut ExecContext<'_>) -> Result<ColumnBatch, BudgetExhausted> {
        let mut batch = ColumnBatch::new(self.atom, self.cols.to_vec());
        let gather = |table: &Table, rids: &[u32], batch: &mut ColumnBatch| {
            batch.extend_columns(rids.len(), |i, out| {
                table.gather_column(self.cols[i], rids, out);
            });
        };
        match &self.source {
            FetchSource::Existence { table } => {
                if !table.is_empty() {
                    ctx.charge_fetched()?;
                    batch.push_row(&[]);
                }
            }
            FetchSource::Scan { table, consts } => {
                let matchable = consts.iter().all(|(_, c)| c.is_some());
                let mut rids: Vec<u32> = Vec::new();
                for (rid, row) in table.rows().enumerate() {
                    ctx.charge_scanned()?;
                    if matchable && consts.iter().all(|(i, c)| Some(row[*i]) == *c) {
                        rids.push(rid as u32);
                    }
                }
                gather(table, &rids, &mut batch);
            }
            FetchSource::IndexWitnesses { index, table, keys } => {
                let mut rids: Vec<u32> = Vec::new();
                for key in keys {
                    ctx.meter.index_probes += 1;
                    for &rid in index.witnesses(key) {
                        ctx.charge_fetched()?;
                        rids.push(rid);
                    }
                }
                gather(table, &rids, &mut batch);
            }
            FetchSource::IndexPostings { index, table, key } => {
                ctx.meter.index_probes += 1;
                if let Some(key) = key {
                    let postings = index.all(key);
                    for _ in postings {
                        ctx.charge_fetched()?;
                    }
                    gather(table, postings, &mut batch);
                }
            }
        }
        Ok(batch)
    }
}

/// The atom-local filter operator: applies constant equalities and
/// same-class attribute equalities of `Σ_Q` over the columns present in a
/// batch.
///
/// Conditions referencing columns that are not present are skipped —
/// callers must ensure (as `QPlan` anchors and baseline candidate columns
/// do) that all conditions on the atom are checkable either here or
/// through class joins.
pub struct FilterAtom<'q> {
    /// The query whose conditions are applied.
    pub query: &'q SpcQuery,
    /// Its equivalence classes.
    pub sigma: &'q Sigma,
}

impl FilterAtom<'_> {
    /// Filters `batch` in place. Constant equalities, bound-parameter
    /// equalities (`S[A] = ?p` with `?p` in the context's [`ParamEnv`]),
    /// and intra-atom attribute equalities are applied; unbound parameters
    /// stay inert (template semantics).
    pub fn apply(&self, ctx: &ExecContext<'_>, batch: &mut Batch) {
        let symbols = ctx.symbols();
        let q = self.query;
        let col_pos = |cols: &[usize], col: usize| cols.iter().position(|&c| c == col);
        // `None` constant: the value was never interned, nothing matches.
        let mut checks: Vec<(usize, Option<Cell>)> = Vec::new();
        let mut eqs: Vec<(usize, usize)> = Vec::new();
        for p in q.predicates() {
            match p {
                Predicate::Const(a, v) if a.atom == batch.atom => {
                    if let Some(i) = col_pos(&batch.cols, a.col) {
                        checks.push((i, symbols.try_encode(v)));
                    }
                }
                Predicate::Param(a, name) if a.atom == batch.atom => {
                    if let (Some(i), Some(cell)) =
                        (col_pos(&batch.cols, a.col), ctx.params.get(name))
                    {
                        checks.push((i, cell));
                    }
                }
                Predicate::Eq(a, b) if a.atom == batch.atom && b.atom == batch.atom => {
                    if let (Some(i), Some(j)) =
                        (col_pos(&batch.cols, a.col), col_pos(&batch.cols, b.col))
                    {
                        eqs.push((i, j));
                    }
                }
                _ => {}
            }
        }
        // Same-class columns within the atom must agree even without an
        // explicit syntactic equality (e.g. equated transitively through
        // other atoms — checking early shrinks the join input; the class
        // merge would catch it anyway).
        let classes: Vec<_> = batch
            .cols
            .iter()
            .map(|&c| {
                self.sigma
                    .class_of_flat(q.flat_id(QAttr::new(batch.atom, c)))
            })
            .collect();
        for i in 0..classes.len() {
            for j in i + 1..classes.len() {
                if classes[i] == classes[j] && !eqs.contains(&(i, j)) {
                    eqs.push((i, j));
                }
            }
        }
        if checks.is_empty() && eqs.is_empty() {
            return;
        }
        batch.rows.retain(|row| {
            checks.iter().all(|(i, c)| Some(row[*i]) == *c)
                && eqs.iter().all(|(i, j)| row[*i] == row[*j])
        });
    }
}

/// The multiway hash-join operator: merges per-atom batches on their `Σ_Q`
/// equivalence classes. Produces partial assignments of one cell per class
/// (`None` = class not yet bound).
pub struct HashJoin<'q> {
    /// The query being joined.
    pub query: &'q SpcQuery,
    /// Its equivalence classes.
    pub sigma: &'q Sigma,
}

impl HashJoin<'_> {
    /// Joins the batches; every produced intermediate row is charged to the
    /// context's meter (and checked against the budget).
    ///
    /// Returns the surviving class assignments, or an empty vector if any
    /// batch empties out. Batches must already be filtered
    /// ([`FilterAtom`]); `run_join_pipeline` composes the two.
    pub fn run(
        &self,
        symbols: &SymbolTable,
        batches: Vec<Batch>,
        ctx: &mut ExecContext<'_>,
    ) -> Result<Vec<Box<[Option<Cell>]>>, BudgetExhausted> {
        let q = self.query;
        let sigma = self.sigma;
        debug_assert_eq!(batches.len(), q.num_atoms());
        if batches.iter().any(|b| b.rows.is_empty()) {
            return Ok(Vec::new());
        }

        let nclasses = sigma.num_classes();
        // Classes bound per atom.
        let atom_classes: Vec<Vec<usize>> = batches
            .iter()
            .map(|b| {
                b.cols
                    .iter()
                    .map(|&c| sigma.class_of_flat(q.flat_id(QAttr::new(b.atom, c))).0)
                    .collect()
            })
            .collect();

        // Greedy join order: start with the smallest candidate set;
        // repeatedly take the atom sharing the most classes with what is
        // already bound (ties: smaller candidate set), falling back to a
        // cross product.
        let mut order: Vec<usize> = Vec::with_capacity(batches.len());
        let mut used = vec![false; batches.len()];
        let mut bound = vec![false; nclasses];
        // Constants are always bound (checked in filters) — and so are
        // classes pinned by a bound parameter, which are constants at
        // execution time; counting them keeps prepared plans choosing the
        // same join orders as the equivalent ground query.
        for (i, cls) in sigma.classes().iter().enumerate() {
            if cls.constant.is_some()
                || cls
                    .placeholders
                    .iter()
                    .any(|name| matches!(ctx.params.get(name), Some(Some(_))))
            {
                bound[i] = true;
            }
        }
        let first = (0..batches.len())
            .min_by_key(|&i| batches[i].rows.len())
            .expect("at least one atom");
        order.push(first);
        used[first] = true;
        for &c in &atom_classes[first] {
            bound[c] = true;
        }
        while order.len() < batches.len() {
            let next = (0..batches.len())
                .filter(|&i| !used[i])
                .max_by_key(|&i| {
                    let shared = atom_classes[i].iter().filter(|&&c| bound[c]).count();
                    (shared, usize::MAX - batches[i].rows.len())
                })
                .expect("unused atom exists");
            order.push(next);
            used[next] = true;
            for &c in &atom_classes[next] {
                bound[c] = true;
            }
        }

        // Partial results: one cell slot per class, seeded with the
        // constants — and with bound parameters, which are constants at
        // execution time — so pinned join columns line up across atoms. A
        // value that was never interned cannot be matched by any row of
        // the (non-empty, already filtered) batches that carry its class —
        // but classes whose columns appear in *no* batch must still compare
        // equal, so bail out to the empty result explicitly. The same bail
        // applies when a class is pinned to two disagreeing values (a
        // binding conflicting with a constant or another binding).
        let mut seed: Box<[Option<Cell>]> = vec![None; nclasses].into_boxed_slice();
        for (i, cls) in sigma.classes().iter().enumerate() {
            let mut pinned: Option<Cell> = None;
            if let Some(v) = &cls.constant {
                match symbols.try_encode(v) {
                    Some(cell) => pinned = Some(cell),
                    None => return Ok(Vec::new()),
                }
            }
            for name in &cls.placeholders {
                match ctx.params.get(name) {
                    Some(Some(cell)) => match pinned {
                        None => pinned = Some(cell),
                        Some(prev) if prev == cell => {}
                        Some(_) => return Ok(Vec::new()),
                    },
                    Some(None) => return Ok(Vec::new()),
                    None => {} // unbound placeholder: inert (template semantics)
                }
            }
            seed[i] = pinned;
        }
        let mut partials: Vec<Box<[Option<Cell>]>> = vec![seed];

        for &ai in &order {
            let batch = &batches[ai];
            let classes = &atom_classes[ai];
            // Shared classes between current partials and this batch.
            let shared: Vec<usize> = {
                let p0 = &partials[0];
                let mut s: Vec<usize> = classes
                    .iter()
                    .copied()
                    .filter(|&c| p0[c].is_some())
                    .collect();
                s.sort_unstable();
                s.dedup();
                s
            };
            // Positions of the shared classes within this batch's rows.
            let shared_pos: Vec<usize> = shared
                .iter()
                .map(|&c| classes.iter().position(|&k| k == c).expect("shared class"))
                .collect();

            // Hash the batch rows on the shared classes. Buckets are a
            // linked list threaded through one `next_row` array (newest
            // first) — one map + one vector, no per-key allocation.
            const NIL: u32 = u32::MAX;
            let mut bucket_head: FxHashMap<RowBuf, u32> = FxHashMap::default();
            let mut next_row: Vec<u32> = Vec::with_capacity(batch.rows.len());
            for (ri, row) in batch.rows.iter().enumerate() {
                let key: RowBuf = shared_pos.iter().map(|&p| row[p]).collect();
                let head = bucket_head.entry(key).or_insert(NIL);
                next_row.push(*head);
                *head = ri as u32;
            }

            let mut next: Vec<Box<[Option<Cell>]>> = Vec::new();
            for partial in &partials {
                let key: RowBuf = shared
                    .iter()
                    .map(|&c| partial[c].expect("shared class is bound"))
                    .collect();
                let Some(&head) = bucket_head.get(key.as_slice()) else {
                    continue;
                };
                let mut cursor = head;
                while cursor != NIL {
                    let ri = cursor as usize;
                    cursor = next_row[ri];
                    let row = &batch.rows[ri];
                    let mut merged = partial.clone();
                    let mut ok = true;
                    for (pos, &c) in classes.iter().enumerate() {
                        match merged[c] {
                            Some(v) if v != row[pos] => {
                                ok = false;
                                break;
                            }
                            Some(_) => {}
                            None => merged[c] = Some(row[pos]),
                        }
                    }
                    if !ok {
                        continue;
                    }
                    ctx.charge_intermediate()?;
                    next.push(merged);
                }
            }
            partials = next;
            if partials.is_empty() {
                return Ok(Vec::new());
            }
        }
        Ok(partials)
    }
}

/// The projection operator: reads `π_Z` from the joined class assignments
/// and decodes the result set (the empty projection yields the empty tuple
/// — Boolean queries).
pub struct Project<'q> {
    /// The query whose projection is read.
    pub query: &'q SpcQuery,
    /// Its equivalence classes.
    pub sigma: &'q Sigma,
}

impl Project<'_> {
    /// Decodes the final answer.
    pub fn apply(&self, symbols: &SymbolTable, partials: &[Box<[Option<Cell>]>]) -> ResultSet {
        let mut out = Vec::with_capacity(partials.len());
        for partial in partials {
            let row: Box<[Value]> = self
                .query
                .projection()
                .iter()
                .map(|z| {
                    let c = self.sigma.class_of_flat(self.query.flat_id(*z)).0;
                    symbols.decode(partial[c].expect("projection class is bound"))
                })
                .collect();
            out.push(row);
        }
        ResultSet::from_rows(out)
    }
}

/// The semi-join reducer used by the baseline's `IndexJoin` mode: for each
/// batch, drops candidate rows whose join-class values do not appear in any
/// other batch. Models an optimizer that uses indices on join keys to skip
/// non-matching rows. Dropped rows are charged as intermediate work.
pub struct SemiJoin<'q> {
    /// The query whose join classes drive the reduction.
    pub query: &'q SpcQuery,
    /// Its equivalence classes.
    pub sigma: &'q Sigma,
}

impl SemiJoin<'_> {
    /// One full reduction pass over all batch pairs.
    pub fn apply(&self, batches: &mut [Batch], ctx: &mut ExecContext<'_>) {
        use bcq_core::fx::FxHashSet;
        let q = self.query;
        let sigma = self.sigma;
        let n = batches.len();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                // Shared classes between atoms i and j.
                let class_of = |b: &Batch, pos: usize| {
                    sigma.class_of_flat(q.flat_id(QAttr::new(b.atom, b.cols[pos])))
                };
                let mut shared: Vec<(usize, usize)> = Vec::new(); // (pos_i, pos_j)
                for pi in 0..batches[i].cols.len() {
                    for pj in 0..batches[j].cols.len() {
                        if class_of(&batches[i], pi) == class_of(&batches[j], pj) {
                            shared.push((pi, pj));
                        }
                    }
                }
                if shared.is_empty() {
                    continue;
                }
                let keys: FxHashSet<RowBuf> = batches[j]
                    .rows
                    .iter()
                    .map(|row| shared.iter().map(|&(_, pj)| row[pj]).collect())
                    .collect();
                let before = batches[i].rows.len();
                batches[i].rows.retain(|row| {
                    let key: RowBuf = shared.iter().map(|&(pi, _)| row[pi]).collect();
                    keys.contains(key.as_slice())
                });
                ctx.meter.intermediate_rows += (before - batches[i].rows.len()) as u64;
            }
        }
    }
}

/// The canonical tail of every executor: filter each batch, hash-join on
/// `Σ_Q` classes, project `Z`. This is the single shared join
/// implementation — `evalDQ`, the baseline, and the RA evaluator all end
/// here.
pub fn run_join_pipeline(
    q: &SpcQuery,
    sigma: &Sigma,
    batches: Vec<Batch>,
    ctx: &mut ExecContext<'_>,
) -> Result<ResultSet, BudgetExhausted> {
    let partials = run_join_partials(q, sigma, batches, ctx)?;
    if partials.is_empty() {
        return Ok(ResultSet::empty());
    }
    let project = Project { query: q, sigma };
    Ok(project.apply(ctx.db.symbols(), &partials))
}

/// The pipeline up to (but excluding) projection: filter each batch, then
/// hash-join on `Σ_Q` classes, returning the surviving class assignments —
/// one cell per class, `None` for classes none of the fetched columns
/// bound. Incremental maintenance consumes these directly: each assignment
/// is one **derivation** of an answer tuple, the unit support counting
/// counts.
pub fn run_join_partials(
    q: &SpcQuery,
    sigma: &Sigma,
    mut batches: Vec<Batch>,
    ctx: &mut ExecContext<'_>,
) -> Result<Vec<Box<[Option<Cell>]>>, BudgetExhausted> {
    let filter = FilterAtom { query: q, sigma };
    for batch in &mut batches {
        filter.apply(ctx, batch);
        if batch.rows.is_empty() {
            return Ok(Vec::new());
        }
    }
    let join = HashJoin { query: q, sigma };
    join.run(ctx.db.symbols(), batches, ctx)
}

// ---------------------------------------------------------------------------
// The columnar interpreter: vectorized batch execution over `ColumnBatch`.
// ---------------------------------------------------------------------------

/// Resolves every pin of a program to an interned cell, once per request.
/// `None` means the pin can match nothing: a never-interned constant or
/// binding — or an unbound slot, which the program contract forbids (see
/// [`bcq_core::program`]; public executors validate bindings upstream).
fn resolve_pins(prog: &OpProgram, ctx: &ExecContext<'_>) -> Vec<Option<Cell>> {
    let symbols = ctx.symbols();
    prog.pins
        .iter()
        .map(|p| match p {
            PinSource::Const(v) => symbols.try_encode(v),
            PinSource::Param(name) => ctx.params.get(name).flatten(),
        })
        .collect()
}

/// Applies the compiled per-atom filters — constant/parameter checks and
/// intra-atom equalities, pre-resolved to column positions, with the
/// program's pins resolved **once** for the whole set — as predicate
/// sweeps over single columns that shrink each batch's selection vector in
/// place: no row is ever materialized or moved. Behaviorally identical to
/// [`FilterAtom`] (asserted by the pipeline's differential tests), minus
/// the per-request predicate walk and `O(cols²)` class scan.
pub fn filter_program_columnar(
    prog: &OpProgram,
    ctx: &ExecContext<'_>,
    batches: &mut [ColumnBatch],
) {
    let resolved = resolve_pins(prog, ctx);
    for batch in batches {
        filter_columnar_resolved(prog, &resolved, batch);
    }
}

fn filter_columnar_resolved(prog: &OpProgram, resolved: &[Option<Cell>], batch: &mut ColumnBatch) {
    let f = &prog.filters[batch.atom()];
    debug_assert_eq!(
        batch.cols(),
        &prog.atom_cols[batch.atom()][..],
        "batch layout"
    );
    for &(i, pin) in &f.checks {
        match resolved[pin] {
            Some(cell) => batch.retain_eq_const(i, cell),
            // A pin that resolves to nothing matches no stored row.
            None => {
                batch.clear_sel();
                return;
            }
        }
    }
    for &(i, j) in &f.eqs {
        batch.retain_cols_eq(i, j);
    }
}

/// Runs the compiled semijoin prefilter: every pass reduces one batch's
/// candidates to rows whose shared-class key appears in another batch,
/// using the position pairs hoisted into the program at compile time (the
/// query-walking [`SemiJoin`] rediscovers them per request in an
/// `O(cols²)` loop per atom pair). Each pass gathers the source batch's
/// live key cells into a set and sweeps the target's selection vector
/// against it; dropped rows are charged as intermediate work, exactly like
/// the oracle.
pub fn semijoin_program_columnar(
    prog: &OpProgram,
    batches: &mut [ColumnBatch],
    ctx: &mut ExecContext<'_>,
) {
    use bcq_core::fx::FxHashSet;
    for pass in prog.semijoins() {
        let dropped = if let [(pi, pj)] = pass.pairs[..] {
            // Single shared column: single-cell keys, no row assembly.
            let keys: FxHashSet<Cell> = {
                let s = &batches[pass.source];
                s.sel().iter().map(|&r| s.cell(r as usize, pj)).collect()
            };
            let t = &batches[pass.target];
            let keep: Vec<u32> = t
                .sel()
                .iter()
                .copied()
                .filter(|&r| keys.contains(&t.cell(r as usize, pi)))
                .collect();
            let dropped = t.len() - keep.len();
            batches[pass.target].set_sel(keep);
            dropped
        } else {
            let keys: FxHashSet<RowBuf> = {
                let s = &batches[pass.source];
                s.sel()
                    .iter()
                    .map(|&r| {
                        pass.pairs
                            .iter()
                            .map(|&(_, pj)| s.cell(r as usize, pj))
                            .collect()
                    })
                    .collect()
            };
            let t = &batches[pass.target];
            let keep: Vec<u32> = t
                .sel()
                .iter()
                .copied()
                .filter(|&r| {
                    let key: RowBuf = pass
                        .pairs
                        .iter()
                        .map(|&(pi, _)| t.cell(r as usize, pi))
                        .collect();
                    keys.contains(key.as_slice())
                })
                .collect();
            let dropped = t.len() - keep.len();
            batches[pass.target].set_sel(keep);
            dropped
        };
        ctx.meter.intermediate_rows += dropped as u64;
    }
}

/// Decodes the flat columnar partial buffer (stride = `num_classes`)
/// through the program's projection map.
pub(crate) fn project_program_flat(
    prog: &OpProgram,
    symbols: &SymbolTable,
    flat: &[Option<Cell>],
) -> ResultSet {
    if flat.is_empty() {
        return ResultSet::empty();
    }
    let stride = prog.num_classes;
    let mut out = Vec::with_capacity(flat.len() / stride);
    for partial in flat.chunks_exact(stride) {
        let row: Box<[Value]> = prog
            .proj_classes
            .iter()
            .map(|&c| symbols.decode(partial[c].expect("projection class is bound")))
            .collect();
        out.push(row);
    }
    ResultSet::from_rows(out)
}

/// Reusable buffers for the columnar interpreter. The serving layer keeps
/// one per thread (see `eval_dq`), so a steady-state request runs the whole
/// join schedule without allocating; the public one-shot entry points
/// create a fresh (empty) scratch per call instead.
#[derive(Debug, Default)]
pub(crate) struct ColumnarScratch {
    resolved: Vec<Option<Cell>>,
    cur: Vec<Option<Cell>>,
    nxt: Vec<Option<Cell>>,
    keys: Vec<Cell>,
    binds: Vec<(usize, usize)>,
    chain: Vec<u32>,
}

/// Interprets a compiled program end to end over column-major batches —
/// compiled filters, the compiled join schedule, compiled projection.
/// This is the only compiled executor: every production path runs it.
/// The program's contract (batch layouts matching `atom_cols`, every slot
/// bound) is documented in [`bcq_core::program`]; batches must arrive
/// indexed by atom (`batches[i].atom() == i`), as every executor produces
/// them. Answers agree with the query-walking oracle
/// ([`run_join_pipeline`]; asserted by the pipeline-equivalence suite);
/// internally partials live in one flat ping-pong buffer and no
/// intermediate row is ever materialized.
pub fn run_program_columnar(
    prog: &OpProgram,
    mut batches: Vec<ColumnBatch>,
    ctx: &mut ExecContext<'_>,
) -> Result<ResultSet, BudgetExhausted> {
    let mut scratch = ColumnarScratch::default();
    let flat =
        run_program_columnar_impl(prog, &mut batches, ctx, true, &mut scratch, &mut NoProbe)?;
    Ok(project_program_flat(prog, ctx.db.symbols(), flat))
}

/// [`run_program_columnar`] stopped before projection, re-boxed per
/// partial: the surviving `Σ_Q` class assignments (the derivations
/// incremental maintenance stores), in the same format as
/// [`run_join_partials`].
pub fn run_program_columnar_partials(
    prog: &OpProgram,
    mut batches: Vec<ColumnBatch>,
    ctx: &mut ExecContext<'_>,
) -> Result<Vec<Box<[Option<Cell>]>>, BudgetExhausted> {
    let mut scratch = ColumnarScratch::default();
    let flat =
        run_program_columnar_impl(prog, &mut batches, ctx, true, &mut scratch, &mut NoProbe)?;
    Ok(flat
        .chunks_exact(prog.num_classes)
        .map(|p| p.to_vec().into_boxed_slice())
        .collect())
}

/// [`run_program_columnar`] for batches the caller already passed through
/// [`filter_program_columnar`]: skips the second filter pass (the
/// baseline's filter/prune/reschedule/run sequence).
pub fn run_program_columnar_prefiltered(
    prog: &OpProgram,
    mut batches: Vec<ColumnBatch>,
    ctx: &mut ExecContext<'_>,
) -> Result<ResultSet, BudgetExhausted> {
    let mut scratch = ColumnarScratch::default();
    let flat =
        run_program_columnar_impl(prog, &mut batches, ctx, false, &mut scratch, &mut NoProbe)?;
    Ok(project_program_flat(prog, ctx.db.symbols(), flat))
}

/// Appends `partial` merged with the batch row `row` onto the flat output
/// buffer: copy the partial's class slots, then overwrite the step's
/// `Bind` slots from the row's columns.
#[inline]
fn emit_merged(
    nxt: &mut Vec<Option<Cell>>,
    partial: &[Option<Cell>],
    batch: &ColumnBatch,
    binds: &[(usize, usize)],
    row: usize,
) {
    nxt.extend_from_slice(partial);
    let base = nxt.len() - partial.len();
    for &(pos, c) in binds {
        nxt[base + c] = Some(batch.cell(row, pos));
    }
}

/// Above this many (partials × live rows) pairs, a join step hashes the
/// batch instead of sweeping it per partial. Bounded plans essentially
/// always stay below it (batch sizes are capped by the access schema's
/// `N`s), so the hot path is branch-free key sweeps over packed columns.
const LINEAR_SWEEP_LIMIT: usize = 2048;

/// The interpreter body, generic over the profiling [`Probe`]. The
/// steady-state instantiation is [`NoProbe`] (`ENABLED = false`): every
/// probe site — including the label `format!`s, which are guarded by
/// `P::ENABLED` — is compiled out, so the serving path is byte-for-byte
/// the unprofiled interpreter. A [`bcq_telemetry::Profiler`] instead
/// times each operator step with its row movement.
pub(crate) fn run_program_columnar_impl<'s, P: Probe>(
    prog: &OpProgram,
    batches: &mut [ColumnBatch],
    ctx: &mut ExecContext<'_>,
    apply_filters: bool,
    scratch: &'s mut ColumnarScratch,
    probe: &mut P,
) -> Result<&'s [Option<Cell>], BudgetExhausted> {
    debug_assert_eq!(batches.len(), prog.num_atoms);
    debug_assert!(batches.iter().enumerate().all(|(i, b)| b.atom() == i));
    // All working buffers live in `scratch` (cleared here, capacity kept):
    // the serving layer lends a per-thread scratch, so a steady-state
    // request runs the whole schedule without allocating.
    let ColumnarScratch {
        resolved,
        cur,
        nxt,
        keys,
        binds,
        chain,
    } = scratch;
    if P::ENABLED {
        probe.begin();
    }
    resolved.clear();
    {
        let symbols = ctx.symbols();
        resolved.extend(prog.pins.iter().map(|p| match p {
            PinSource::Const(v) => symbols.try_encode(v),
            PinSource::Param(name) => ctx.params.get(name).flatten(),
        }));
    }
    if P::ENABLED {
        probe.step(
            StepKind::Pin,
            &format!("pin:resolve x{}", prog.pins.len()),
            prog.pins.len() as u64,
            resolved.iter().flatten().count() as u64,
        );
    }

    for batch in batches.iter_mut() {
        if apply_filters {
            if P::ENABLED {
                probe.begin();
            }
            let before = if P::ENABLED { batch.len() as u64 } else { 0 };
            filter_columnar_resolved(prog, resolved, batch);
            if P::ENABLED {
                probe.step(
                    StepKind::Filter,
                    &format!("filter:atom{}", batch.atom()),
                    before,
                    batch.len() as u64,
                );
            }
        }
        if batch.is_empty() {
            return Ok(&[]);
        }
    }

    // Seed one partial assignment (one slot per class) from the compiled
    // pins; a pin resolved to nothing (or two disagreeing pins of one
    // class) empties the answer before any row is touched.
    if P::ENABLED {
        probe.begin();
    }
    cur.clear();
    cur.resize(prog.num_classes, None);
    for sp in &prog.seeds {
        let mut pinned: Option<Cell> = None;
        for &pid in &sp.pins {
            match resolved[pid] {
                Some(cell) => match pinned {
                    None => pinned = Some(cell),
                    Some(prev) if prev == cell => {}
                    Some(_) => return Ok(&[]),
                },
                None => return Ok(&[]),
            }
        }
        cur[sp.class] = pinned;
    }
    if P::ENABLED {
        probe.step(
            StepKind::Seed,
            &format!("seed:classes={}", prog.num_classes),
            prog.seeds.len() as u64,
            1,
        );
    }
    let stride = prog.num_classes;

    for step in &prog.join_steps {
        // Row-local duplicate-class sweep: exactly the rows the oracle
        // join's class-walk merge rejects (and never charges).
        if P::ENABLED {
            probe.begin();
        }
        let had_dups = step
            .col_actions
            .iter()
            .any(|a| matches!(a, ColAction::CheckDup(_)));
        let pre_dup = if P::ENABLED {
            batches[step.atom].len() as u64
        } else {
            0
        };
        for (pos, action) in step.col_actions.iter().enumerate() {
            if let ColAction::CheckDup(prev) = *action {
                batches[step.atom].retain_cols_eq(prev, pos);
            }
        }
        if P::ENABLED && had_dups {
            probe.step(
                StepKind::DupCheck,
                &format!("dup_check:atom{}", step.atom),
                pre_dup,
                batches[step.atom].len() as u64,
            );
            probe.begin();
        }
        let batch = &batches[step.atom];
        let live = batch.sel();
        binds.clear();
        binds.extend(
            step.col_actions
                .iter()
                .enumerate()
                .filter_map(|(pos, a)| match *a {
                    ColAction::Bind(c) => Some((pos, c)),
                    _ => None,
                }),
        );
        let nparts = cur.len() / stride;
        nxt.clear();

        if step.shared_pos.is_empty() {
            // No shared classes: cross product (after the dup sweep every
            // pair merges, so the whole bucket is charged at once).
            for pi in 0..nparts {
                let partial = &cur[pi * stride..(pi + 1) * stride];
                for &r in live {
                    emit_merged(nxt, partial, batch, binds, r as usize);
                }
                if !live.is_empty() {
                    ctx.charge_intermediate_n(live.len() as u64)?;
                }
            }
        } else if nparts * live.len() <= LINEAR_SWEEP_LIMIT {
            // Small step: sweep the packed key column(s) once per partial —
            // cheaper than building a hash table, and the single-key common
            // case is a branch-free equality scan over contiguous `u64`s.
            if let [p] = step.shared_pos[..] {
                keys.clear();
                batch.gather(p, keys);
                let cls = step.shared_classes[0];
                for pi in 0..nparts {
                    let partial = &cur[pi * stride..(pi + 1) * stride];
                    let want = partial[cls].expect("shared class is bound");
                    let mut made = 0u64;
                    for (li, &k) in keys.iter().enumerate() {
                        if k == want {
                            emit_merged(nxt, partial, batch, binds, live[li] as usize);
                            made += 1;
                        }
                    }
                    if made > 0 {
                        ctx.charge_intermediate_n(made)?;
                    }
                }
            } else {
                for pi in 0..nparts {
                    let partial = &cur[pi * stride..(pi + 1) * stride];
                    let mut made = 0u64;
                    'rows: for &r in live {
                        for (&c, &p) in step.shared_classes.iter().zip(&step.shared_pos) {
                            if partial[c] != Some(batch.cell(r as usize, p)) {
                                continue 'rows;
                            }
                        }
                        emit_merged(nxt, partial, batch, binds, r as usize);
                        made += 1;
                    }
                    if made > 0 {
                        ctx.charge_intermediate_n(made)?;
                    }
                }
            }
        } else {
            // Large step: hash the batch on the key columns (linked-list
            // buckets through one `chain` array, newest first).
            const NIL: u32 = u32::MAX;
            chain.clear();
            chain.reserve(live.len());
            if let [p] = step.shared_pos[..] {
                keys.clear();
                batch.gather(p, keys);
                let mut head: FxHashMap<Cell, u32> = FxHashMap::default();
                head.reserve(keys.len());
                for (li, &k) in keys.iter().enumerate() {
                    let h = head.entry(k).or_insert(NIL);
                    chain.push(*h);
                    *h = li as u32;
                }
                let cls = step.shared_classes[0];
                for pi in 0..nparts {
                    let partial = &cur[pi * stride..(pi + 1) * stride];
                    let want = partial[cls].expect("shared class is bound");
                    let Some(&h) = head.get(&want) else {
                        continue;
                    };
                    let mut cursor = h;
                    let mut made = 0u64;
                    while cursor != NIL {
                        let li = cursor as usize;
                        cursor = chain[li];
                        emit_merged(nxt, partial, batch, binds, live[li] as usize);
                        made += 1;
                    }
                    ctx.charge_intermediate_n(made)?;
                }
            } else {
                let mut head: FxHashMap<RowBuf, u32> = FxHashMap::default();
                head.reserve(live.len());
                for (li, &r) in live.iter().enumerate() {
                    let key: RowBuf = step
                        .shared_pos
                        .iter()
                        .map(|&p| batch.cell(r as usize, p))
                        .collect();
                    let h = head.entry(key).or_insert(NIL);
                    chain.push(*h);
                    *h = li as u32;
                }
                for pi in 0..nparts {
                    let partial = &cur[pi * stride..(pi + 1) * stride];
                    let key: RowBuf = step
                        .shared_classes
                        .iter()
                        .map(|&c| partial[c].expect("shared class is bound"))
                        .collect();
                    let Some(&h) = head.get(key.as_slice()) else {
                        continue;
                    };
                    let mut cursor = h;
                    let mut made = 0u64;
                    while cursor != NIL {
                        let li = cursor as usize;
                        cursor = chain[li];
                        emit_merged(nxt, partial, batch, binds, live[li] as usize);
                        made += 1;
                    }
                    ctx.charge_intermediate_n(made)?;
                }
            }
        }

        if P::ENABLED {
            let strategy = if step.shared_pos.is_empty() {
                "cross"
            } else if nparts * live.len() <= LINEAR_SWEEP_LIMIT {
                "sweep"
            } else {
                "hash"
            };
            probe.step(
                StepKind::Join,
                &format!(
                    "join:atom{} keys={} binds={} parts={} {}",
                    step.atom,
                    step.shared_pos.len(),
                    binds.len(),
                    nparts,
                    strategy
                ),
                live.len() as u64,
                (nxt.len() / stride) as u64,
            );
        }
        std::mem::swap(cur, nxt);
        if cur.is_empty() {
            return Ok(&[]);
        }
    }
    Ok(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcq_core::prelude::{Catalog, SpcQuery};

    /// A database whose symbol table has the ints 0..1000 available (small
    /// ints always encode, so an empty database suffices for int-only
    /// tests).
    fn dummy_db() -> Database {
        Database::new(Catalog::from_names(&[("unused", &["x"])]).unwrap())
    }

    fn two_rel_query() -> SpcQuery {
        let cat = Catalog::from_names(&[("r", &["a", "b"]), ("s", &["c", "d"])]).unwrap();
        SpcQuery::builder(cat, "j")
            .atom("r", "r")
            .atom("s", "s")
            .eq(("r", "b"), ("s", "c"))
            .project(("r", "a"))
            .project(("s", "d"))
            .build()
            .unwrap()
    }

    fn rows(data: &[&[i64]]) -> Vec<RowBuf> {
        data.iter()
            .map(|r| {
                r.iter()
                    .map(|&v| Cell::from_small_int(v).unwrap())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn equi_join_on_classes() {
        let q = two_rel_query();
        let sigma = Sigma::build(&q);
        let batches = vec![
            Batch {
                atom: 0,
                cols: vec![0, 1],
                rows: rows(&[&[1, 10], &[2, 20], &[3, 30]]),
            },
            Batch {
                atom: 1,
                cols: vec![0, 1],
                rows: rows(&[&[10, 100], &[20, 200], &[99, 999]]),
            },
        ];
        let db = dummy_db();
        let mut ctx = ExecContext::new(&db, None);
        let rs = run_join_pipeline(&q, &sigma, batches, &mut ctx).unwrap();
        assert_eq!(rs.len(), 2);
        assert!(rs.contains(&[Value::int(1), Value::int(100)]));
        assert!(rs.contains(&[Value::int(2), Value::int(200)]));
        assert!(ctx.meter.intermediate_rows >= 2);
    }

    #[test]
    fn cross_product_when_no_shared_classes() {
        let cat = Catalog::from_names(&[("r", &["a"]), ("s", &["b"])]).unwrap();
        let q = SpcQuery::builder(cat, "x")
            .atom("r", "r")
            .atom("s", "s")
            .project(("r", "a"))
            .project(("s", "b"))
            .build()
            .unwrap();
        let sigma = Sigma::build(&q);
        let batches = vec![
            Batch {
                atom: 0,
                cols: vec![0],
                rows: rows(&[&[1], &[2]]),
            },
            Batch {
                atom: 1,
                cols: vec![0],
                rows: rows(&[&[7], &[8]]),
            },
        ];
        let db = dummy_db();
        let mut ctx = ExecContext::new(&db, None);
        let rs = run_join_pipeline(&q, &sigma, batches, &mut ctx).unwrap();
        assert_eq!(rs.len(), 4);
    }

    #[test]
    fn budget_aborts() {
        let cat = Catalog::from_names(&[("r", &["a"]), ("s", &["b"])]).unwrap();
        let q = SpcQuery::builder(cat, "x")
            .atom("r", "r")
            .atom("s", "s")
            .project(("r", "a"))
            .project(("s", "b"))
            .build()
            .unwrap();
        let sigma = Sigma::build(&q);
        let big: Vec<RowBuf> = (0..100)
            .map(|i| std::iter::once(Cell::from_small_int(i).unwrap()).collect())
            .collect();
        let batches = vec![
            Batch {
                atom: 0,
                cols: vec![0],
                rows: big.clone(),
            },
            Batch {
                atom: 1,
                cols: vec![0],
                rows: big,
            },
        ];
        let db = dummy_db();
        let mut ctx = ExecContext::new(&db, Some(50));
        let r = run_join_pipeline(&q, &sigma, batches, &mut ctx);
        assert_eq!(r, Err(BudgetExhausted));
    }

    #[test]
    fn filter_applies_constants_and_intra_atom_eqs() {
        let cat = Catalog::from_names(&[("r", &["a", "b", "c"])]).unwrap();
        let q = SpcQuery::builder(cat, "f")
            .atom("r", "r")
            .eq_const(("r", "a"), 1)
            .eq(("r", "b"), ("r", "c"))
            .project(("r", "b"))
            .build()
            .unwrap();
        let sigma = Sigma::build(&q);
        let mut batch = Batch {
            atom: 0,
            cols: vec![0, 1, 2],
            rows: rows(&[&[1, 5, 5], &[1, 5, 6], &[2, 7, 7]]),
        };
        let db = dummy_db();
        let ctx = ExecContext::new(&db, None);
        FilterAtom {
            query: &q,
            sigma: &sigma,
        }
        .apply(&ctx, &mut batch);
        assert_eq!(batch.rows, rows(&[&[1, 5, 5]]));
    }

    #[test]
    fn filter_with_uninterned_string_constant_empties_batch() {
        let cat = Catalog::from_names(&[("r", &["a"])]).unwrap();
        let q = SpcQuery::builder(cat, "f")
            .atom("r", "r")
            .eq_const(("r", "a"), "never-loaded")
            .project(("r", "a"))
            .build()
            .unwrap();
        let sigma = Sigma::build(&q);
        let mut batch = Batch {
            atom: 0,
            cols: vec![0],
            rows: rows(&[&[1], &[2]]),
        };
        let db = dummy_db();
        let ctx = ExecContext::new(&db, None);
        FilterAtom {
            query: &q,
            sigma: &sigma,
        }
        .apply(&ctx, &mut batch);
        assert!(batch.rows.is_empty());
    }

    #[test]
    fn boolean_query_yields_empty_tuple() {
        let cat = Catalog::from_names(&[("r", &["a"])]).unwrap();
        let q = SpcQuery::builder(cat, "b")
            .atom("r", "r")
            .eq_const(("r", "a"), 1)
            .build()
            .unwrap();
        let sigma = Sigma::build(&q);
        let batches = vec![Batch {
            atom: 0,
            cols: vec![0],
            rows: rows(&[&[1]]),
        }];
        let db = dummy_db();
        let mut ctx = ExecContext::new(&db, None);
        let rs = run_join_pipeline(&q, &sigma, batches, &mut ctx).unwrap();
        assert!(rs.as_bool());
        assert_eq!(rs.rows()[0].len(), 0);
    }

    #[test]
    fn empty_candidates_empty_result() {
        let q = two_rel_query();
        let sigma = Sigma::build(&q);
        let batches = vec![
            Batch {
                atom: 0,
                cols: vec![0, 1],
                rows: Vec::new(),
            },
            Batch {
                atom: 1,
                cols: vec![0, 1],
                rows: rows(&[&[1, 2]]),
            },
        ];
        let db = dummy_db();
        let mut ctx = ExecContext::new(&db, None);
        let rs = run_join_pipeline(&q, &sigma, batches, &mut ctx).unwrap();
        assert!(rs.is_empty());
    }

    #[test]
    fn fetch_scan_charges_all_rows_and_filters() {
        let cat = Catalog::from_names(&[("r", &["a", "b"])]).unwrap();
        let mut db = Database::new(cat);
        for (a, b) in [(1, 10), (2, 20), (1, 30)] {
            db.insert("r", &[Value::int(a), Value::int(b)]).unwrap();
        }
        let mut ctx = ExecContext::new(&db, None);
        let want = db.symbols().try_encode(&Value::int(1));
        let fetch = Fetch {
            atom: 0,
            cols: &[0, 1],
            source: FetchSource::Scan {
                table: db.table(bcq_core::prelude::RelId(0)),
                consts: vec![(0, want)],
            },
        };
        let batch = fetch.run(&mut ctx).unwrap();
        assert_eq!(batch.rows.len(), 2);
        assert_eq!(ctx.meter.rows_scanned, 3, "whole table charged");
        assert_eq!(ctx.meter.tuples_fetched, 0);
    }

    #[test]
    fn fetch_budget_aborts_mid_scan() {
        let cat = Catalog::from_names(&[("r", &["a"])]).unwrap();
        let mut db = Database::new(cat);
        for i in 0..10 {
            db.insert("r", &[Value::int(i)]).unwrap();
        }
        let mut ctx = ExecContext::new(&db, Some(4));
        let fetch = Fetch {
            atom: 0,
            cols: &[0],
            source: FetchSource::Scan {
                table: db.table(bcq_core::prelude::RelId(0)),
                consts: vec![],
            },
        };
        assert!(matches!(fetch.run(&mut ctx), Err(BudgetExhausted)));
        assert!(ctx.meter.work() > 4);
    }

    #[test]
    fn semi_join_prunes_and_charges() {
        let q = two_rel_query();
        let sigma = Sigma::build(&q);
        let mut batches = vec![
            Batch {
                atom: 0,
                cols: vec![0, 1],
                rows: rows(&[&[1, 10], &[2, 99]]),
            },
            Batch {
                atom: 1,
                cols: vec![0, 1],
                rows: rows(&[&[10, 100]]),
            },
        ];
        let db = dummy_db();
        let mut ctx = ExecContext::new(&db, None);
        SemiJoin {
            query: &q,
            sigma: &sigma,
        }
        .apply(&mut batches, &mut ctx);
        assert_eq!(
            batches[0].rows,
            rows(&[&[1, 10]]),
            "non-matching row dropped"
        );
        assert_eq!(ctx.meter.intermediate_rows, 1);
    }

    /// Transposes a row-major test batch into the columnar layout.
    fn colbatch(b: &Batch) -> ColumnBatch {
        ColumnBatch::from_rows(b.atom, b.cols.clone(), b.rows.iter().map(|r| r.as_slice()))
    }

    #[test]
    fn columnar_program_matches_oracle_join() {
        let q = two_rel_query();
        let sigma = Sigma::build(&q);
        let layouts = vec![vec![0, 1], vec![0, 1]];
        let prog = OpProgram::compile(&q, &sigma, &layouts, None);
        let make = || {
            vec![
                Batch {
                    atom: 0,
                    cols: vec![0, 1],
                    rows: rows(&[&[1, 10], &[2, 20], &[3, 30]]),
                },
                Batch {
                    atom: 1,
                    cols: vec![0, 1],
                    rows: rows(&[&[10, 100], &[20, 200], &[99, 999]]),
                },
            ]
        };
        let db = dummy_db();
        let mut octx = ExecContext::new(&db, None);
        let oracle = run_join_pipeline(&q, &sigma, make(), &mut octx).unwrap();
        let mut cctx = ExecContext::new(&db, None);
        let col_rs =
            run_program_columnar(&prog, make().iter().map(colbatch).collect(), &mut cctx).unwrap();
        assert_eq!(col_rs, oracle);
        assert_eq!(cctx.meter, octx.meter, "same join order, same charges");
        // And the partials boundary preserves the derivation format.
        let mut pctx = ExecContext::new(&db, None);
        let mut col_parts =
            run_program_columnar_partials(&prog, make().iter().map(colbatch).collect(), &mut pctx)
                .unwrap();
        let mut qctx = ExecContext::new(&db, None);
        let mut oracle_parts = run_join_partials(&q, &sigma, make(), &mut qctx).unwrap();
        col_parts.sort();
        oracle_parts.sort();
        assert_eq!(col_parts, oracle_parts);
    }

    #[test]
    fn columnar_join_handles_duplicate_keys() {
        // Duplicate join-key values on both sides (including a fully
        // duplicated row): every pairing must be produced and charged
        // exactly as the query-walking join does. The size hints give the
        // program the oracle's smallest-batch-first join order.
        let q = two_rel_query();
        let sigma = Sigma::build(&q);
        let layouts = vec![vec![0, 1], vec![0, 1]];
        let prog = OpProgram::compile(&q, &sigma, &layouts, Some(&[4, 3]));
        let make = || {
            vec![
                Batch {
                    atom: 0,
                    cols: vec![0, 1],
                    rows: rows(&[&[1, 10], &[2, 10], &[2, 10], &[3, 20]]),
                },
                Batch {
                    atom: 1,
                    cols: vec![0, 1],
                    rows: rows(&[&[10, 100], &[10, 200], &[20, 300]]),
                },
            ]
        };
        let db = dummy_db();
        let mut octx = ExecContext::new(&db, None);
        let oracle = run_join_pipeline(&q, &sigma, make(), &mut octx).unwrap();
        let mut cctx = ExecContext::new(&db, None);
        let col_rs =
            run_program_columnar(&prog, make().iter().map(colbatch).collect(), &mut cctx).unwrap();
        assert_eq!(col_rs, oracle);
        assert_eq!(cctx.meter, octx.meter);
        // 3 rows key 10 × 2 matches + 1 row key 20 × 1 match, both steps.
        assert!(cctx.meter.intermediate_rows >= 7);
    }

    #[test]
    fn columnar_empty_batch_short_circuits() {
        let q = two_rel_query();
        let sigma = Sigma::build(&q);
        let prog = OpProgram::compile(&q, &sigma, &[vec![0, 1], vec![0, 1]], None);
        let batches = vec![
            ColumnBatch::new(0, vec![0, 1]),
            colbatch(&Batch {
                atom: 1,
                cols: vec![0, 1],
                rows: rows(&[&[10, 100]]),
            }),
        ];
        let db = dummy_db();
        let mut ctx = ExecContext::new(&db, None);
        let rs = run_program_columnar(&prog, batches, &mut ctx).unwrap();
        assert!(rs.is_empty());
        assert_eq!(ctx.meter.intermediate_rows, 0, "nothing joined");
    }

    #[test]
    fn columnar_all_filtered_batch_short_circuits() {
        // The filter sweep deselects every row of one batch: the program
        // must return empty without charging any join work, leaving the
        // batch's columns intact (only the selection vector drains).
        let cat = Catalog::from_names(&[("r", &["a", "b"])]).unwrap();
        let q = SpcQuery::builder(cat, "f")
            .atom("r", "r")
            .eq_const(("r", "a"), 7)
            .project(("r", "b"))
            .build()
            .unwrap();
        let sigma = Sigma::build(&q);
        let prog = OpProgram::compile(&q, &sigma, &[vec![0, 1]], None);
        let mut batch = colbatch(&Batch {
            atom: 0,
            cols: vec![0, 1],
            rows: rows(&[&[1, 10], &[2, 20]]),
        });
        let db = dummy_db();
        let ctx = ExecContext::new(&db, None);
        filter_program_columnar(&prog, &ctx, std::slice::from_mut(&mut batch));
        assert!(batch.is_empty());
        assert_eq!(batch.total_rows(), 2, "columns untouched");
        let mut ctx = ExecContext::new(&db, None);
        let rs = run_program_columnar(&prog, vec![batch], &mut ctx).unwrap();
        assert!(rs.is_empty());
        assert_eq!(ctx.meter.intermediate_rows, 0);
    }

    #[test]
    fn columnar_filter_matches_oracle() {
        let cat = Catalog::from_names(&[("r", &["a", "b", "c"])]).unwrap();
        let q = SpcQuery::builder(cat, "f")
            .atom("r", "r")
            .eq_const(("r", "a"), 1)
            .eq(("r", "b"), ("r", "c"))
            .project(("r", "b"))
            .build()
            .unwrap();
        let sigma = Sigma::build(&q);
        let prog = OpProgram::compile(&q, &sigma, &[vec![0, 1, 2]], None);
        let data: &[&[i64]] = &[&[1, 5, 5], &[1, 5, 6], &[2, 7, 7], &[1, 9, 9]];
        let db = dummy_db();
        let ctx = ExecContext::new(&db, None);
        let mut columnar = colbatch(&Batch {
            atom: 0,
            cols: vec![0, 1, 2],
            rows: rows(data),
        });
        filter_program_columnar(&prog, &ctx, std::slice::from_mut(&mut columnar));
        let mut oracle = Batch {
            atom: 0,
            cols: vec![0, 1, 2],
            rows: rows(data),
        };
        FilterAtom {
            query: &q,
            sigma: &sigma,
        }
        .apply(&ctx, &mut oracle);
        assert_eq!(columnar.to_rows(), oracle.rows);
        assert_eq!(columnar.sel(), &[0, 3], "selection keeps original indices");
    }

    #[test]
    fn columnar_semijoin_matches_oracle_prefilter() {
        // The hoisted shared-column layout must reproduce the
        // query-walking prefilter exactly — same surviving rows per batch,
        // same intermediate-row charge.
        let q = two_rel_query();
        let sigma = Sigma::build(&q);
        let layouts = vec![vec![0, 1], vec![0, 1]];
        let prog = OpProgram::compile(&q, &sigma, &layouts, None);
        let make = || {
            vec![
                Batch {
                    atom: 0,
                    cols: vec![0, 1],
                    rows: rows(&[&[1, 10], &[2, 99], &[3, 20], &[4, 20]]),
                },
                Batch {
                    atom: 1,
                    cols: vec![0, 1],
                    rows: rows(&[&[10, 100], &[20, 200], &[55, 500]]),
                },
            ]
        };
        let db = dummy_db();
        let mut octx = ExecContext::new(&db, None);
        let mut oracle = make();
        SemiJoin {
            query: &q,
            sigma: &sigma,
        }
        .apply(&mut oracle, &mut octx);
        let mut cctx = ExecContext::new(&db, None);
        let mut col_batches: Vec<ColumnBatch> = make().iter().map(colbatch).collect();
        semijoin_program_columnar(&prog, &mut col_batches, &mut cctx);
        for (c, o) in col_batches.iter().zip(&oracle) {
            assert_eq!(c.to_rows(), o.rows, "atom {}", c.atom());
        }
        assert_eq!(cctx.meter.intermediate_rows, octx.meter.intermediate_rows);
        // And the pass actually pruned something, in both.
        assert_eq!(col_batches[0].len(), 3);
        assert_eq!(col_batches[1].len(), 2);
    }

    #[test]
    fn columnar_dup_class_sweep_matches_merge_conflicts() {
        // An unfiltered batch with an intra-atom repeated class reaches the
        // join (prefiltered entry point): the selection sweep must drop
        // exactly the rows the oracle join's merge rejects, uncharged.
        let cat = Catalog::from_names(&[("r", &["a", "b"])]).unwrap();
        let q = SpcQuery::builder(cat, "dup")
            .atom("r", "r")
            .eq(("r", "a"), ("r", "b"))
            .project(("r", "a"))
            .build()
            .unwrap();
        let sigma = Sigma::build(&q);
        let prog = OpProgram::compile(&q, &sigma, &[vec![0, 1]], None);
        let make = || {
            vec![Batch {
                atom: 0,
                cols: vec![0, 1],
                rows: rows(&[&[1, 1], &[1, 2], &[3, 3]]),
            }]
        };
        let db = dummy_db();
        let mut octx = ExecContext::new(&db, None);
        let partials = HashJoin {
            query: &q,
            sigma: &sigma,
        }
        .run(db.symbols(), make(), &mut octx)
        .unwrap();
        let oracle = Project {
            query: &q,
            sigma: &sigma,
        }
        .apply(db.symbols(), &partials);
        let mut cctx = ExecContext::new(&db, None);
        let col_rs = run_program_columnar_prefiltered(
            &prog,
            make().iter().map(colbatch).collect(),
            &mut cctx,
        )
        .unwrap();
        assert_eq!(col_rs, oracle);
        assert_eq!(col_rs.len(), 2);
        assert_eq!(cctx.meter, octx.meter);
        assert_eq!(
            cctx.meter.intermediate_rows, 2,
            "conflict row never charged"
        );
    }

    #[test]
    fn columnar_program_respects_budget() {
        let q = two_rel_query();
        let sigma = Sigma::build(&q);
        let layouts = vec![vec![0, 1], vec![0, 1]];
        let prog = OpProgram::compile(&q, &sigma, &layouts, None);
        let big: Vec<RowBuf> = (0..100).map(|i| rows(&[&[i, i]]).pop().unwrap()).collect();
        let batches: Vec<ColumnBatch> = [
            Batch {
                atom: 0,
                cols: vec![0, 1],
                rows: big.clone(),
            },
            Batch {
                atom: 1,
                cols: vec![0, 1],
                rows: big,
            },
        ]
        .iter()
        .map(colbatch)
        .collect();
        let db = dummy_db();
        let mut ctx = ExecContext::new(&db, Some(10));
        assert_eq!(
            run_program_columnar(&prog, batches, &mut ctx),
            Err(BudgetExhausted)
        );
        assert!(ctx.meter.work() > 10);
    }

    #[test]
    fn columnar_fetch_matches_row_fetch() {
        let cat = Catalog::from_names(&[("r", &["a", "b"])]).unwrap();
        let mut db = Database::new(cat);
        for (a, b) in [(1, 10), (2, 20), (1, 30)] {
            db.insert("r", &[Value::int(a), Value::int(b)]).unwrap();
        }
        let want = db.symbols().try_encode(&Value::int(1));
        let make_fetch = || Fetch {
            atom: 0,
            cols: &[1, 0],
            source: FetchSource::Scan {
                table: db.table(bcq_core::prelude::RelId(0)),
                consts: vec![(0, want)],
            },
        };
        let mut rctx = ExecContext::new(&db, None);
        let row_batch = make_fetch().run(&mut rctx).unwrap();
        let mut cctx = ExecContext::new(&db, None);
        let col_batch = make_fetch().run_columns(&mut cctx).unwrap();
        assert_eq!(col_batch.to_rows(), row_batch.rows);
        assert_eq!(col_batch.cols(), &[1, 0][..], "projection permutes");
        assert_eq!(cctx.meter, rctx.meter);
    }

    #[test]
    fn compiled_uninterned_constant_empties_like_oracle() {
        let cat = Catalog::from_names(&[("r", &["a"])]).unwrap();
        let q = SpcQuery::builder(cat, "f")
            .atom("r", "r")
            .eq_const(("r", "a"), "never-loaded")
            .project(("r", "a"))
            .build()
            .unwrap();
        let sigma = Sigma::build(&q);
        let prog = OpProgram::compile(&q, &sigma, &[vec![0]], None);
        let make = || {
            vec![Batch {
                atom: 0,
                cols: vec![0],
                rows: rows(&[&[1], &[2]]),
            }]
        };
        let db = dummy_db();
        let mut ctx = ExecContext::new(&db, None);
        let rs =
            run_program_columnar(&prog, make().iter().map(colbatch).collect(), &mut ctx).unwrap();
        assert!(rs.is_empty());
        let mut octx = ExecContext::new(&db, None);
        assert_eq!(
            rs,
            run_join_pipeline(&q, &sigma, make(), &mut octx).unwrap()
        );
    }
}
