//! Experiment harness regenerating every table and figure of the paper.
//!
//! The `exp` binary runs the experiments of [`exp::EXPERIMENTS`]:
//! `exp table1 fig19` runs the named ones, `exp` alone runs them all.
//!
//! | name       | paper artifact |
//! |------------|----------------|
//! | `table1`   | Table 1: 5-stream TPC-H end-to-end/read/seek gains |
//! | `fig15`    | Figure 15: 3 staggered Q6 streams (I/O-intensive) |
//! | `fig16`    | Figure 16: 3 staggered Q1 streams (CPU-intensive) |
//! | `fig17`    | Figure 17: disk reads over time, base vs SS |
//! | `fig18`    | Figure 18: disk seeks over time, base vs SS |
//! | `fig19`    | Figure 19: per-stream gains |
//! | `fig20`    | Figure 20: per-query gains |
//! | `fig8_9`   | Figures 8/9: sharing-potential estimates |
//! | `overhead` | §8 text: single-stream overhead well below 1 % |
//! | `ablation` | A1: placement / throttling / priorities toggles |
//! | `scope`    | A2: table-scan-only (ICDE) vs +index (VLDB) scope |
//! | `fairness` | A3: fairness-cap sweep |
//! | `placement`| A4: practical vs optimal placement |
//! | `prefetch` | A5: sharing with one-extent read-ahead |
//! | `disks`    | A6: 1–16-disk striped arrays |
//! | `streams`  | A7: scaling with streams, base vs pull vs push |
//! | `attach`   | A8: QPipe-style attach vs the full mechanism |
//! | `rid`      | E-RID: overlapping RID index scans |
//! | `policies` | E-POL: LRU vs LRU-2 vs scan sharing |
//! | `policy`   | A9: sharing-policy ablation (grouping / attach / elevator) |
//!
//! Every experiment prints a human-readable table and writes the raw
//! numbers as JSON under `results/`. Scale via `SCANSHARE_SCALE`
//! (default 1.0) and seed via `SCANSHARE_SEED` (default 42).

pub mod exp;
pub mod gate;
pub mod history;
pub mod micro;
pub mod stats;
