//! Benchmark harness regenerating every table and figure of the Tsunami
//! paper's evaluation (§6).
//!
//! The [`experiments`] module contains one function per table/figure; the
//! `repro` binary dispatches to them. Absolute numbers differ from the paper
//! (different hardware, synthetic data, laptop-scale sizes) but the *shape*
//! of each result — which index wins, by roughly what factor, and where the
//! crossovers fall — is what the experiments reproduce.
//!
//! All query-execution experiments run through the `tsunami-engine`
//! `Database` facade: one table per index family, measured through table
//! handles.
//!
//! This crate answers two kinds of question and no others: the paper's
//! tables and figures, and the four micro-tables whose `BENCH_*.json`
//! [`experiments::check_bench`] gates against `bench-baselines/` (scan
//! kernels, materialized aggregates, pooled executor, ingest). Served,
//! durable and mutating traffic — end to end and per layer — belongs to the
//! repository's benchmark (`benchmark/run.sh`: `served_mixed`,
//! `ingest_mixed`). Every option is a `repro` flag carried in
//! [`HarnessConfig`]; nothing here reads the environment.

pub mod experiments;
pub mod harness;
pub mod table;

pub use harness::{HarnessConfig, IndexReport};
pub use table::Table;
