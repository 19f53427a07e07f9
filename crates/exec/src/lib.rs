#![warn(missing_docs)]
//! # bcq-exec — bounded and conventional query executors
//!
//! * [`eval_dq()`] executes the bounded plans of [`bcq_core::qplan`]: index
//!   witness fetches only, `|D_Q|` independent of `|D|`.
//! * [`baseline()`] is the conventional-DBMS competitor (the paper's MySQL):
//!   constant-key index access, full scans elsewhere, whole-tuple fetching,
//!   and a work budget reproducing the 2 500 s cap.
//! * [`eval_ra`] evaluates certified RA expressions boundedly on top of
//!   [`eval_dq()`].
//! * [`pipeline`] hosts the **single** physical-operator implementation
//!   (fetch / filter / hash-join / project over interned row batches, with
//!   unified metering) that all of the above share. Its one compiled
//!   executor — the hot path — is the columnar program interpreter
//!   ([`pipeline::run_program_columnar`]) over
//!   [`bcq_core::program::OpProgram`]s; the query-walking operators remain
//!   as the independent differential oracle
//!   ([`eval_dq::eval_dq_interpreted`] / [`baseline::baseline_interpreted`]).

pub mod baseline;
pub mod eval_dq;
pub mod incremental;
pub mod pipeline;
pub mod ra;
pub mod results;
pub mod views;

pub use baseline::{
    baseline, baseline_interpreted, BaselineMode, BaselineOptions, BaselineOutcome,
};
pub use eval_dq::{
    eval_dq, eval_dq_interpreted, eval_dq_partials, eval_dq_profiled, eval_dq_with,
    eval_dq_with_interpreted, ExecOutcome, PartialsOutcome,
};
pub use incremental::{DeltaStats, IncrementalAnswer};
pub use pipeline::{
    filter_program_columnar, run_join_partials, run_join_pipeline, run_program_columnar,
    run_program_columnar_partials, run_program_columnar_prefiltered, semijoin_program_columnar,
    Batch, BudgetExhausted, ExecContext, Fetch, FetchSource, FilterAtom, HashJoin, ParamEnv,
    Project, SemiJoin,
};
pub use ra::{eval_ra, eval_ra_prepared, PreparedRa, RaOutcome};
pub use results::ResultSet;
pub use views::materialize_views;
