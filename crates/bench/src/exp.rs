//! The experiment runner behind the `exp` binary.
//!
//! [`EXPERIMENTS`] is the table of every experiment: a name on the
//! command line (`exp table1 fig19`; no names runs the whole table in
//! order), the file stem of its `results/<file>.json`, and a *view* —
//! a function that asks the shared [`Runs`] cache for the reports it
//! needs, prints the experiment's table to stdout and returns the JSON
//! to write.
//!
//! [`Runs`] generates each database once and simulates each distinct
//! [`WorkloadSpec`] once per process, keyed by the spec's serialized
//! JSON, so the 5-stream pair behind Table 1 and Figures 17–20 runs
//! once however many views read it. Runs are deterministic
//! virtual-time simulations: a cached report is exactly the report a
//! fresh run would produce.

use crate::{gate, history};
use scanshare::{DeliveryMode, PlacementStrategy, SharingConfig, SharingPolicyKind};
use scanshare_engine::{
    run_workloads, Access, AggSpec, CpuClass, Database, EngineConfig, Pred, Query, RunReport,
    ScanSpec, SharingMode, Stream, WorkloadSpec,
};
use scanshare_relstore::{ColType, Column, Schema, Value as Cell};
use scanshare_storage::{ReplacementPolicy, SimDuration, TimeSeries, PAGE_SIZE};
use scanshare_tpch::gen::lineitem_cols as li;
use scanshare_tpch::{q1, q6, staggered_workload, throughput_workload, TpchConfig, QUERY_NAMES};
use serde::Serialize;
use serde_json::Value;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// A view: runs what it needs, prints its table, returns its JSON
/// (`None`: nothing to write).
type View = fn(&mut Runs) -> Option<Value>;

/// One row of the experiment table.
pub struct Experiment {
    /// The name `exp` accepts on its command line.
    pub name: &'static str,
    /// The experiment writes `results/<file>.json`.
    pub file: &'static str,
    view: View,
}

const fn entry(name: &'static str, view: View) -> Experiment {
    Experiment {
        name,
        file: name,
        view,
    }
}

/// Every experiment, in the order `exp` runs them when given no names.
pub const EXPERIMENTS: &[Experiment] = &[
    entry("table1", table1),
    entry("fig15", fig15),
    entry("fig16", fig16),
    entry("fig17", fig17),
    entry("fig18", fig18),
    entry("fig19", fig19),
    entry("fig20", fig20),
    entry("fig8_9", fig8_9),
    entry("overhead", overhead),
    entry("ablation", ablation),
    entry("scope", scope),
    entry("fairness", fairness),
    entry("placement", placement),
    entry("prefetch", prefetch),
    entry("disks", disks),
    entry("streams", streams),
    entry("attach", attach),
    entry("rid", rid),
    entry("policies", policies),
    Experiment {
        file: "policy_ablation",
        ..entry("policy", policy)
    },
];

/// The table entry named `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

impl Experiment {
    /// Run the view and render its JSON exactly as `exp` writes it.
    pub fn run(&self, runs: &mut Runs) -> Option<String> {
        runs.current = self.name;
        (self.view)(runs).map(|v| serde_json::to_string_pretty(&v).expect("serialize"))
    }

    /// Where `exp` writes the JSON: `--out` redirects the `streams`
    /// sweep, everything else goes to `results/`.
    pub fn output_path(&self, opts: &Options) -> PathBuf {
        match &opts.out {
            Some(out) if self.name == "streams" => PathBuf::from(out),
            _ => Path::new("results").join(format!("{}.json", self.file)),
        }
    }
}

/// Settings beyond the experiment names.
#[derive(Debug, Default)]
pub struct Options {
    /// `--smoke`: `policy` runs only the pinned smoke workload and
    /// writes no JSON.
    pub smoke: bool,
    /// `--streams N,N,...`: the `streams` sweep's stream counts
    /// (default 1,2,3,5,8).
    pub streams: Option<Vec<usize>>,
    /// `--out FILE`: where `streams` writes its JSON.
    pub out: Option<String>,
    /// `--metrics-out PATH` (or `SCANSHARE_METRICS_OUT`): truncated,
    /// then one labeled metrics line per run of each base/sharing pair.
    pub metrics_out: Option<String>,
    /// `--history PATH` (or `SCANSHARE_HISTORY`): the append-only run
    /// ledger, one entry per base/sharing pair.
    pub history: Option<String>,
}

/// The experiments `exp` was asked for (all of them when none are
/// named) and its [`Options`], falling back to the environment for the
/// two sinks.
fn parse_args(args: &[String]) -> Result<(Vec<&'static Experiment>, Options), String> {
    let env = |name| std::env::var(name).ok();
    let mut opts = Options {
        metrics_out: env("SCANSHARE_METRICS_OUT"),
        history: env("SCANSHARE_HISTORY"),
        ..Options::default()
    };
    let mut named = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--streams" => opts.streams = Some(parse_streams(&value()?)?),
            "--out" => opts.out = Some(value()?),
            "--metrics-out" => opts.metrics_out = Some(value()?),
            "--history" => opts.history = Some(value()?),
            name => named.push(find(name).ok_or(format!("unknown experiment or flag {name}"))?),
        }
    }
    if named.is_empty() {
        named = EXPERIMENTS.iter().collect();
    }
    Ok((named, opts))
}

fn parse_streams(list: &str) -> Result<Vec<usize>, String> {
    list.split(',')
        .map(|part| match part.trim().parse() {
            Ok(0) => Err("--streams entries must be >= 1".to_string()),
            Ok(n) => Ok(n),
            Err(e) => Err(format!("invalid --streams entry '{part}': {e}")),
        })
        .collect()
}

/// Write `json` to `path`, creating the parent directory. The error
/// names the path and carries the OS error.
fn write_json(path: &Path, json: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The `exp` command: run the requested experiments and write their
/// JSON. Returns the exit code: 0, or 2 on an argument error or a
/// failed write.
pub fn main(args: &[String]) -> i32 {
    let (selected, opts) = match parse_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            let names: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
            eprintln!("{e}\nusage: exp [NAME ...] [--smoke] [--streams N,N,...] [--out FILE]");
            eprintln!("           [--metrics-out PATH] [--history PATH]");
            eprintln!("names: {}", names.join(" "));
            return 2;
        }
    };
    let mut runs = Runs::new(experiment_config(), opts);
    for e in selected {
        let Some(json) = e.run(&mut runs) else {
            continue;
        };
        let path = e.output_path(&runs.opts);
        if let Err(msg) = write_json(&path, &json) {
            eprintln!("{msg}");
            return 2;
        }
        eprintln!("wrote {}", path.display());
    }
    eprintln!("{} distinct workload runs", runs.executed());
    0
}

/// Scale/seed configuration read from the environment:
/// `SCANSHARE_SCALE` (default 1.0) and `SCANSHARE_SEED` (default 42).
fn experiment_config() -> TpchConfig {
    let env = |name| std::env::var(name).ok();
    TpchConfig {
        scale: env("SCANSHARE_SCALE")
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.0),
        seed: env("SCANSHARE_SEED")
            .and_then(|s| s.parse().ok())
            .unwrap_or(42),
        ..TpchConfig::default()
    }
}

/// Worker threads for a batch of independent runs: `SCANSHARE_JOBS`
/// (default 1). Every run is a deterministic simulation over virtual
/// time, so the job count changes only wall-clock time, never a number.
fn sweep_jobs() -> usize {
    std::env::var("SCANSHARE_JOBS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&j| j >= 1)
        .unwrap_or(1)
}

/// A database held by [`Runs`], with the key its reports are cached
/// under.
#[derive(Clone)]
struct Db(String, Rc<Database>);

impl std::ops::Deref for Db {
    type Target = Database;
    fn deref(&self) -> &Database {
        &self.1
    }
}

/// A base run and its scan-sharing counterpart.
type Pair = (Rc<RunReport>, Rc<RunReport>);

/// The run cache every view shares: one database per key, one report
/// per distinct (database, workload spec).
pub struct Runs {
    /// Scale and seed of the TPC-H database the experiments use.
    pub cfg: TpchConfig,
    /// Command-line settings.
    pub opts: Options,
    dbs: HashMap<String, Db>,
    reports: HashMap<String, Rc<RunReport>>,
    recorded_pairs: HashSet<String>,
    current: &'static str,
}

impl Runs {
    /// An empty cache. Truncates the `--metrics-out` sink so each
    /// invocation starts a fresh log; a sink that cannot be opened is
    /// reported and dropped.
    pub fn new(cfg: TpchConfig, mut opts: Options) -> Self {
        if let Some(path) = &opts.metrics_out {
            if let Err(e) = std::fs::write(path, "") {
                eprintln!("cannot open metrics sink {path}: {e}");
                opts.metrics_out = None;
            }
        }
        Runs {
            cfg,
            opts,
            dbs: HashMap::new(),
            reports: HashMap::new(),
            recorded_pairs: HashSet::new(),
            current: "",
        }
    }

    /// How many simulations have run (cache misses).
    pub fn executed(&self) -> usize {
        self.reports.len()
    }

    /// The database stored under `key`, built on first use.
    fn database(&mut self, key: &str, build: impl FnOnce() -> Database) -> Db {
        let slot = self.dbs.entry(key.to_string());
        slot.or_insert_with(|| Db(key.to_string(), Rc::new(build())))
            .clone()
    }

    /// The TPC-H database for `cfg`, generated on first use.
    fn tpch_db(&mut self, cfg: &TpchConfig) -> Db {
        self.database(&serde_json::to_string(cfg).expect("config"), || {
            let (scale, seed) = (cfg.scale, cfg.seed);
            eprintln!("generating TPC-H-like database (scale {scale}, seed {seed}) ...");
            let db = scanshare_tpch::generate(cfg);
            let (tables, pages) = (db.table_names(), db.total_table_pages());
            eprintln!("  tables: {tables:?}, total pages: {pages}");
            db
        })
    }

    /// The TPC-H throughput workload of `n` streams over the experiment
    /// database.
    fn throughput(&mut self, n: usize, mode: SharingMode) -> (Db, WorkloadSpec) {
        let cfg = self.cfg.clone();
        let db = self.tpch_db(&cfg);
        let spec = throughput_workload(&db, n, cfg.months as i64, cfg.seed, mode);
        (db, spec)
    }

    /// The 5-stream throughput workload under each mode.
    fn throughput_runs(&mut self, modes: &[SharingMode]) -> Vec<Rc<RunReport>> {
        let (db, _) = self.throughput(5, SharingMode::Base);
        let specs: Vec<_> = modes
            .iter()
            .map(|m| self.throughput(5, m.clone()).1)
            .collect();
        self.run_all(&db, &specs)
    }

    /// Reports for `specs` over `db`, simulating (over [`sweep_jobs`]
    /// workers) only the specs not seen before.
    fn run_all(&mut self, db: &Db, specs: &[WorkloadSpec]) -> Vec<Rc<RunReport>> {
        let key = |s| format!("{}\n{}", db.0, serde_json::to_string(s).expect("spec"));
        let keys: Vec<String> = specs.iter().map(key).collect();
        let mut fresh: Vec<(String, WorkloadSpec)> = Vec::new();
        for (k, spec) in keys.iter().zip(specs) {
            if !self.reports.contains_key(k) && fresh.iter().all(|(f, _)| f != k) {
                fresh.push((k.clone(), spec.clone()));
            }
        }
        let fresh_specs: Vec<WorkloadSpec> = fresh.iter().map(|(_, s)| s.clone()).collect();
        let reports = run_workloads(db, &fresh_specs, sweep_jobs());
        for ((k, _), r) in fresh.into_iter().zip(reports) {
            let r = r.expect("workload run");
            let (n, pages, seeks) = (self.reports.len() + 1, r.disk.pages_read, r.disk.seeks);
            eprintln!(
                "  run {n}: makespan {} ({pages} pages read, {seeks} seeks)",
                r.makespan
            );
            self.reports.insert(k, Rc::new(r));
        }
        keys.iter().map(|k| self.reports[k].clone()).collect()
    }

    /// The report for one spec.
    fn run(&mut self, db: &Db, spec: &WorkloadSpec) -> Rc<RunReport> {
        self.run_all(db, std::slice::from_ref(spec)).remove(0)
    }

    /// A base/scan-sharing pair. The first time a pair is asked for,
    /// both metrics snapshots go to the `--metrics-out` sink and one
    /// entry to the `--history` ledger.
    fn pair(&mut self, db: &Db, base: &WorkloadSpec, ss: &WorkloadSpec) -> Pair {
        let mut both = self.run_all(db, &[base.clone(), ss.clone()]).into_iter();
        let (rb, rs) = (both.next().expect("base"), both.next().expect("ss"));
        let key = serde_json::to_string(&vec![base, ss]).expect("spec");
        if self.recorded_pairs.insert(format!("{}\n{key}", db.0)) {
            self.record_metrics("base", &rb);
            self.record_metrics("scan-sharing", &rs);
            self.record_history(&rb, &rs);
        }
        (rb, rs)
    }

    /// The `n`-stream TPC-H throughput pair, base vs scan sharing.
    fn throughput_pair(&mut self, n: usize) -> Pair {
        let (db, base) = self.throughput(n, SharingMode::Base);
        let (_, ss) = self.throughput(n, ss_mode());
        self.pair(&db, &base, &ss)
    }

    /// Stagger offset proportional to a query's solo runtime: `frac` of
    /// its elapsed time when run alone. The paper staggers by 10 s
    /// against a 100 GB database; a fixed fraction keeps the overlap
    /// geometry identical across scales.
    fn calibrated_stagger(&mut self, db: &Db, query: &Query, frac: f64) -> SimDuration {
        let solo = staggered_workload(db, query, 1, SimDuration::ZERO, SharingMode::Base);
        let makespan = self.run(db, &solo).makespan;
        let us = (makespan.as_micros() as f64 * frac) as u64;
        let (solo_s, stagger_s) = (secs(makespan), us as f64 / 1e6);
        eprintln!("calibration: solo run {solo_s:.2}s -> stagger {stagger_s:.2}s");
        SimDuration::from_micros(us.max(1))
    }

    /// Append one labeled metrics snapshot to the `--metrics-out` sink
    /// (a no-op when none is configured).
    fn record_metrics(&self, label: &str, report: &RunReport) {
        #[derive(Serialize)]
        struct Line {
            label: String,
            makespan_us: u64,
            metrics: scanshare::MetricsSnapshot,
        }
        let Some(path) = &self.opts.metrics_out else {
            return;
        };
        let line = Line {
            label: label.to_string(),
            makespan_us: report.makespan.as_micros(),
            metrics: report.metrics.clone(),
        };
        let json = serde_json::to_string(&line).expect("serialize metrics");
        use std::io::Write as _;
        if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(path) {
            let _ = writeln!(f, "{json}");
            eprintln!("  metrics[{label}] appended to {path}");
        }
    }

    /// Append a [`history::HistoryEntry`] with the 8 virtual-clock
    /// metrics the CI gate pins to the `--history` ledger (a no-op when
    /// none is configured).
    fn record_history(&self, base: &RunReport, ss: &RunReport) {
        let Some(path) = &self.opts.history else {
            return;
        };
        let metrics = gate::collect_metrics(base, ss).into_iter();
        let entry = history::HistoryEntry {
            git_sha: history::git_sha(),
            recorded_at: history::utc_now_iso(),
            source: format!("exp {}", self.current),
            policy: ss.policy.map(|p| p.to_string()),
            faults: None,
            // A push-mode run stamps its summary on the report; pull
            // runs stay untagged so old and new ledgers trend the same
            // series.
            delivery: ss.push.as_ref().map(|_| "push".to_string()),
            metrics: metrics
                .map(|m| history::MetricSample {
                    name: m.name,
                    value: m.value,
                })
                .collect(),
            wall: None,
        };
        match history::append(path, &entry) {
            Ok(()) => eprintln!("  history entry appended to {path}"),
            Err(e) => eprintln!("history append failed: {e}"),
        }
    }
}

/// The full-featured scan-sharing mode (pool size filled in by the run).
fn ss_mode() -> SharingMode {
    SharingMode::ScanSharing(SharingConfig::new(0))
}

/// [`ss_mode`] with push delivery: one group driver fixes each page
/// once and pushes it through every attached consumer's row pipeline.
fn push_mode() -> SharingMode {
    let mut cfg = SharingConfig::new(0);
    cfg.delivery = DeliveryMode::Push;
    SharingMode::ScanSharing(cfg)
}

/// Percent improvement of `ss` over `base`.
fn pct_gain(base: f64, ss: f64) -> f64 {
    scanshare_engine::metrics::gain(base, ss) * 100.0
}

fn secs(d: SimDuration) -> f64 {
    d.as_secs_f64()
}

fn json<T: Serialize>(value: &T) -> Option<Value> {
    Some(value.to_json_value())
}

/// Print one line per row from its serialized fields. `cols` holds one
/// format per field, in field order: `[<]WIDTH[.PRECISION][SUFFIX]`
/// (`<` left-aligns; the suffix follows the padded value), or `-` to
/// leave the field out.
fn print_rows<T: Serialize>(cols: &str, rows: &[T]) {
    for row in rows {
        let Value::Object(fields) = row.to_json_value() else {
            panic!("rows serialize as objects");
        };
        let cells: Vec<String> = (cols.split(' ').zip(fields.iter()))
            .filter(|(col, _)| *col != "-")
            .map(|(col, (_, v))| cell(col, v))
            .collect();
        println!("{}", cells.join(" "));
    }
}

fn cell(col: &str, v: &Value) -> String {
    let (left, col) = match col.strip_prefix('<') {
        Some(rest) => (true, rest),
        None => (false, col),
    };
    let end = col.find(|c: char| !c.is_ascii_digit() && c != '.');
    let (spec, suffix) = col.split_at(end.unwrap_or(col.len()));
    let (width, prec) = spec.split_once('.').unwrap_or((spec, ""));
    let width: usize = width.parse().expect("column width");
    let text = match (v, prec.parse::<usize>()) {
        (Value::Number(n), Ok(p)) => format!("{:.p$}", n.as_f64()),
        (Value::Number(n), Err(_)) => n.to_string(),
        (v, _) => v.as_str().expect("number or string").to_string(),
    };
    if left {
        format!("{text:<width$}{suffix}")
    } else {
        format!("{text:>width$}{suffix}")
    }
}

/// One `label  base  SS  gain` line of a timing table.
fn timing_row(label: &str, width: usize, b: f64, s: f64) {
    let gain = pct_gain(b, s);
    println!("{label:<width$} {b:>10.2} {s:>10.2} {gain:>7.1}%");
}

fn print_breakdown(label: &str, report: &RunReport) {
    let (u, s, i, w) = report.breakdown.percentages();
    println!("{label:<6} user {u:5.1}%  system {s:5.1}%  idle {i:5.1}%  iowait {w:5.1}%");
}

/// Render a compact ASCII bar chart of a series (re-binned to `bins`).
fn ascii_series(label: &str, series: &TimeSeries, bins: usize, peak: u64) -> String {
    let ramp = b" .:-=+*#%@";
    let bar = |v: &u64| ramp[((v * 9) / peak.max(1)).min(9) as usize] as char;
    let bars: String = series.rebin(bins).iter().map(bar).collect();
    format!("{label:>6} |{bars}|")
}

/// Figures 17/18: both runs' series as ASCII strips on one scale.
fn print_strips(title: &str, b: &TimeSeries, s: &TimeSeries) {
    println!("\n== {title} ==");
    let peak = b.buckets().iter().chain(s.buckets()).copied().max();
    println!("{}", ascii_series("base", b, 64, peak.unwrap_or(1)));
    println!("{}", ascii_series("SS", s, 64, peak.unwrap_or(1)));
}

/// The per-bucket listing under the strips (base column `bw` wide).
fn print_buckets(header: &str, bw: usize, b: &[u64], s: &[u64]) {
    println!("\n{header}");
    for i in 0..b.len().max(s.len()) {
        let at = |v: &[u64]| v.get(i).copied().unwrap_or(0);
        println!("{i:>5} {:>bw$} {:>10}", at(b), at(s));
    }
}

/// Table 1: 5-stream TPC-H throughput run.
///
/// The paper reports, for its DB2 prototype on the HP box: end-to-end
/// gain 21 %, average disk-read gain 33 %, average disk-seek gain 34 %.
/// This runs the same 5-stream workload shape against the simulated
/// engine in base and scan-sharing modes and prints the same three rows.
fn table1(r: &mut Runs) -> Option<Value> {
    #[derive(Serialize)]
    struct Table1 {
        end_to_end_gain_pct: f64,
        disk_read_gain_pct: f64,
        disk_seek_gain_pct: f64,
        base_makespan_s: f64,
        ss_makespan_s: f64,
        base_pages_read: u64,
        ss_pages_read: u64,
        base_seeks: u64,
        ss_seeks: u64,
        throttle_waits: u64,
        scans_joined: u64,
    }
    let (rb, rs) = r.throughput_pair(5);
    let (b, s) = (&rb.disk, &rs.disk);
    let f = |n: u64| n as f64;
    let rows = [
        ("end-to-end time (s)", secs(rb.makespan), secs(rs.makespan)),
        ("disk reads (pages)", f(b.pages_read), f(s.pages_read)),
        ("disk seeks", f(b.seeks), f(s.seeks)),
    ];
    println!("\n== Table 1: 5-stream TPC-H throughput ==");
    println!("metric                                 base   scan-sharing      gain");
    for (metric, b, s) in rows {
        println!("{metric:<28} {b:>14.2} {s:>14.2} {:>8.1}%", pct_gain(b, s));
    }
    println!("\npaper reports: end-to-end 21%, disk reads 33%, disk seeks 34%");
    let sh = &rs.sharing;
    println!(
        "sharing decisions: {} joins, {} fresh starts, {} throttle waits ({} total)",
        sh.scans_joined + sh.scans_joined_finished,
        sh.scans_from_start,
        sh.waits_injected,
        sh.total_wait,
    );
    let gain = |i: usize| pct_gain(rows[i].1, rows[i].2);
    json(&Table1 {
        end_to_end_gain_pct: gain(0),
        disk_read_gain_pct: gain(1),
        disk_seek_gain_pct: gain(2),
        base_makespan_s: rows[0].1,
        ss_makespan_s: rows[0].2,
        base_pages_read: b.pages_read,
        ss_pages_read: s.pages_read,
        base_seeks: b.seeks,
        ss_seeks: s.seeks,
        throttle_waits: sh.waits_injected,
        scans_joined: sh.scans_joined,
    })
}

/// Figures 15/16: three streams of one query, staggered by 15 % of its
/// solo runtime. Prints the CPU breakdowns and per-run timings; returns
/// both reports and the JSON the two figures share.
fn staggered(r: &mut Runs, fig: u32, qname: &str, q: &Query) -> (Pair, Value) {
    #[derive(Serialize)]
    struct Staggered {
        base_breakdown_pct: (f64, f64, f64, f64),
        ss_breakdown_pct: (f64, f64, f64, f64),
        base_run_times_s: Vec<f64>,
        ss_run_times_s: Vec<f64>,
        per_run_gain_pct: Vec<f64>,
    }
    let cfg = r.cfg.clone();
    let db = r.tpch_db(&cfg);
    // The paper staggers starts by 10 s on a 100 GB database; we stagger
    // by a fixed fraction of the solo runtime to keep the same overlap
    // geometry at any scale.
    let stagger = r.calibrated_stagger(&db, q, 0.15);
    let base = staggered_workload(&db, q, 3, stagger, SharingMode::Base);
    let ss = staggered_workload(&db, q, 3, stagger, ss_mode());
    let (rb, rs) = r.pair(&db, &base, &ss);

    println!("\n== Figure {fig}: CPU usage stats, 3 staggered {qname} streams ==");
    print_breakdown("base", &rb);
    print_breakdown("SS", &rs);
    println!("\n== Figure {fig} (right): per-run timings ==");
    println!("run        base (s)     SS (s)     gain");
    let times =
        |r: &RunReport| -> Vec<f64> { r.stream_elapsed[..3].iter().map(|&d| secs(d)).collect() };
    let (bt, st) = (times(&rb), times(&rs));
    let gains = bt.iter().zip(&st).map(|(&b, &s)| pct_gain(b, s)).collect();
    for i in 0..3 {
        timing_row(&format!("{qname} #{}", i + 1), 8, bt[i], st[i]);
    }
    let out = Staggered {
        base_breakdown_pct: rb.breakdown.percentages(),
        ss_breakdown_pct: rs.breakdown.percentages(),
        base_run_times_s: bt,
        ss_run_times_s: st,
        per_run_gain_pct: gains,
    };
    ((rb, rs), out.to_json_value())
}

/// Figure 15: three staggered Q6 streams (I/O-intensive).
///
/// The paper: with scan sharing, I/O wait is cut roughly in half, idle
/// time drops, user time share rises, and each of the three Q6 runs
/// gains more than 50 % — the middle run most.
fn fig15(r: &mut Runs) -> Option<Value> {
    let q = q6(r.cfg.months as i64, r.cfg.seed);
    let ((rb, rs), out) = staggered(r, 15, "Q6", &q);
    let (wb, ws) = (rb.breakdown.percentages().3, rs.breakdown.percentages().3);
    println!("\npaper reports: I/O wait roughly halved (here {wb:.1}% -> {ws:.1}%),");
    println!("each run gaining > 50%, the middle run most.");
    Some(out)
}

/// Figure 16: three staggered Q1 streams (CPU-intensive).
///
/// The paper: even for this CPU-bound query the already-small I/O wait
/// and idle shares shrink further, system time drops (fewer read
/// syscalls), and each Q1 run still improves noticeably.
fn fig16(r: &mut Runs) -> Option<Value> {
    let ((rb, rs), mut out) = staggered(r, 16, "Q1", &q1());
    let (b, s) = (secs(rb.breakdown.system), secs(rs.breakdown.system));
    println!("\nsystem time: base {b:.3}s -> SS {s:.3}s (fewer read syscalls)");
    println!("paper reports: I/O wait+idle negligible yet reduced further; each Q1 improves.");
    if let Value::Object(fields) = &mut out {
        fields.insert("base_sys_s", b.to_json_value());
        fields.insert("ss_sys_s", s.to_json_value());
    }
    Some(out)
}

/// Figure 17: amount of data read from disk over time, base vs SS.
///
/// The paper: the scan-sharing run shows the same jitter (different
/// queries overlapping over time) but reads less in most time units and
/// ends sooner.
fn fig17(r: &mut Runs) -> Option<Value> {
    #[derive(Serialize)]
    struct Fig17 {
        bucket_seconds: f64,
        base_kb_per_bucket: Vec<u64>,
        ss_kb_per_bucket: Vec<u64>,
        base_total_kb: u64,
        ss_total_kb: u64,
    }
    let (rb, rs) = r.throughput_pair(5);
    let kb = |s: &TimeSeries| -> Vec<u64> {
        s.buckets()
            .iter()
            .map(|&p| p * PAGE_SIZE as u64 / 1024)
            .collect()
    };
    let (base_kb, ss_kb) = (kb(&rb.read_series), kb(&rs.read_series));
    let (base_total_kb, ss_total_kb) = (base_kb.iter().sum(), ss_kb.iter().sum());
    print_strips(
        "Figure 17: KB read from disk per time unit",
        &rb.read_series,
        &rs.read_series,
    );
    println!(
        "totals: base {base_total_kb} KB over {:.1}s, SS {ss_total_kb} KB over {:.1}s",
        secs(rb.makespan),
        secs(rs.makespan)
    );
    println!("paper reports: same jitter, lower reads in most time units, run ends sooner.");
    print_buckets(" t(s)    base KB      SS KB", 10, &base_kb, &ss_kb);
    json(&Fig17 {
        bucket_seconds: rb.read_series.bucket_us() as f64 / 1e6,
        base_kb_per_bucket: base_kb,
        ss_kb_per_bucket: ss_kb,
        base_total_kb,
        ss_total_kb,
    })
}

/// Figure 18: disk seeks per time unit, base vs SS.
///
/// The paper: "with our prototype, scans are synchronized and thus tend
/// to reuse the pages demanded by each other … they demand [the same
/// page set] in such an order that the disk has to seek less often."
fn fig18(r: &mut Runs) -> Option<Value> {
    #[derive(Serialize)]
    struct Fig18 {
        bucket_seconds: f64,
        base_seeks_per_bucket: Vec<u64>,
        ss_seeks_per_bucket: Vec<u64>,
        base_total_seeks: u64,
        ss_total_seeks: u64,
    }
    let (rb, rs) = r.throughput_pair(5);
    let (b, s) = (rb.seek_series.buckets(), rs.seek_series.buckets());
    let (base_total_seeks, ss_total_seeks) = (rb.disk.seeks, rs.disk.seeks);
    print_strips(
        "Figure 18: disk seeks per time unit",
        &rb.seek_series,
        &rs.seek_series,
    );
    println!(
        "totals: base {base_total_seeks} seeks, SS {ss_total_seeks} seeks ({:.1}% fewer)",
        pct_gain(base_total_seeks as f64, ss_total_seeks as f64)
    );
    println!("paper reports: seeks much reduced during most time intervals.");
    print_buckets(" t(s)   base seeks   SS seeks", 11, b, s);
    json(&Fig18 {
        bucket_seconds: rb.seek_series.bucket_us() as f64 / 1e6,
        base_seeks_per_bucket: b.to_vec(),
        ss_seeks_per_bucket: s.to_vec(),
        base_total_seeks,
        ss_total_seeks,
    })
}

/// Figure 19: per-stream gains of the 5-stream TPC-H run.
///
/// The paper: "each stream gained similarly from the improved bufferpool
/// sharing" — the mechanism is fair across streams.
fn fig19(r: &mut Runs) -> Option<Value> {
    #[derive(Serialize)]
    struct Fig19 {
        base_stream_s: Vec<f64>,
        ss_stream_s: Vec<f64>,
        gain_pct: Vec<f64>,
    }
    let (rb, rs) = r.throughput_pair(5);
    println!("\n== Figure 19: per-stream timings (5-stream TPC-H) ==");
    println!("stream     base (s)     SS (s)     gain");
    let times = |r: &RunReport| -> Vec<f64> { r.stream_elapsed.iter().map(|&d| secs(d)).collect() };
    let (b, s) = (times(&rb), times(&rs));
    let gain_pct: Vec<f64> = b.iter().zip(&s).map(|(&b, &s)| pct_gain(b, s)).collect();
    for i in 0..b.len() {
        timing_row(&(i + 1).to_string(), 8, b[i], s[i]);
    }
    let min = gain_pct.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = gain_pct.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    println!("\ngain spread across streams: {min:.1}% .. {max:.1}%");
    println!("paper reports: each stream gains similarly.");
    json(&Fig19 {
        base_stream_s: b,
        ss_stream_s: s,
        gain_pct,
    })
}

/// Figure 20: per-query average execution times of the 5-stream run.
///
/// The paper: gains vary per query but *no query shows a negative
/// effect* — throttling's cost is spread for mutual benefit — and
/// scan-heavy queries (their Q21) benefit most.
fn fig20(r: &mut Runs) -> Option<Value> {
    #[derive(Serialize)]
    struct Fig20Row {
        query: String,
        base_avg_s: f64,
        ss_avg_s: f64,
        gain_pct: f64,
    }
    let (rb, rs) = r.throughput_pair(5);
    let avg = |r: &RunReport, q| secs(r.avg_query_time(q).expect("query ran"));
    let rows: Vec<Fig20Row> = (QUERY_NAMES.iter())
        .map(|&q| Fig20Row {
            query: q.to_string(),
            base_avg_s: avg(&rb, q),
            ss_avg_s: avg(&rs, q),
            gain_pct: pct_gain(avg(&rb, q), avg(&rs, q)),
        })
        .collect();
    println!("\n== Figure 20: average per-query execution time (5 streams) ==");
    println!("query    base (s)     SS (s)     gain");
    print_rows("<6 10.2 10.2 7.1%", &rows);
    let negative = rows.iter().filter(|r| r.gain_pct < -1.0).count();
    let best = (rows.iter())
        .max_by(|a, b| a.gain_pct.partial_cmp(&b.gain_pct).unwrap())
        .unwrap();
    println!(
        "\nbest gain: {} at {:.1}%; queries with >1% regression: {negative}",
        best.query, best.gain_pct
    );
    println!("paper reports: no query shows a negative effect; Q21 benefits most.");
    json(&rows)
}

/// Figures 8/9: the sharing-potential estimator on the paper's worked
/// example, plus a live `calculateReads` scenario.
///
/// The paper's arithmetic: starting new scan E at the beginning of its
/// range costs 195 page reads vs a 240-read worst case (19 % saved);
/// starting E near ongoing scan A costs 180 reads (25 % saved), so E is
/// placed near A.
fn fig8_9(_: &mut Runs) -> Option<Value> {
    use scanshare::placement::{
        best_start_optimal, best_start_practical, calculate_reads, reads_for_ranges, Trace,
    };
    #[derive(Serialize)]
    struct Fig89 {
        start_at_front_reads: u64,
        start_near_a_reads: u64,
        worst_case_reads: u64,
        front_saving_pct: f64,
        near_a_saving_pct: f64,
        live_front_reads: f64,
        live_near_a_reads: f64,
        practical_choice_member: usize,
        optimal_start: f64,
    }
    // --- The paper's accounting (Figure 10, line 10) ---
    let front = reads_for_ranges(&[(15, 3), (30, 1), (15, 2), (20, 3), (10, 3)]);
    let near_a = reads_for_ranges(&[(15, 2), (20, 2), (40, 2), (15, 2)]);
    let worst = reads_for_ranges(&[(15, 3), (30, 2), (30, 3), (5, 3), (10, 3)]);
    let saving = |reads: u64| (1.0 - reads as f64 / worst as f64) * 100.0;
    println!("== Figures 8/9: the paper's worked example ==");
    let (front_pct, near_a_pct) = (saving(front), saving(near_a));
    println!("start at front:  {front} reads (worst case {worst}) -> {front_pct:.0}% saved");
    println!("start near A:    {near_a} reads -> {near_a_pct:.0}% saved");
    assert_eq!((front, near_a, worst), (195, 180, 240));
    println!("matches the paper: 195 vs 240 (19%), 180 vs 240 (25%)\n");

    // --- The same decision taken live by calculateReads ---
    // Scenario in the spirit of Figures 8/9: A is mid-range with the
    // same speed as the new scan E; C is far ahead and slower. Starting
    // E at the front means scanning cold and trailing A by 300 pages
    // (far beyond the pool); starting at A's location shares A's whole
    // remaining range.
    let a = Trace::new(300.0, 100.0, 1300.0);
    let members = [a, Trace::new(900.0, 60.0, 2000.0)];
    let (pool, speed, pages) = (120.0, 100.0, 800.0);
    let at_front = calculate_reads(&members, Trace::new(0.0, speed, pages), pool);
    let at_a = calculate_reads(&members, Trace::new(a.pos0, speed, a.pos0 + pages), pool);
    println!("== live estimator ==");
    let (reads, baseline) = (at_front.reads, at_front.baseline);
    println!("start at front : {reads:.0} reads (baseline {baseline:.0})");
    let (reads, baseline) = (at_a.reads, at_a.baseline);
    println!("start near A   : {reads:.0} reads (baseline {baseline:.0})");
    let practical =
        best_start_practical(&members, speed, pages, pool).expect("sharing is available");
    println!(
        "practical algorithm joins member #{} at offset {:.0} (savings {:.2}/page)",
        practical.member,
        practical.start,
        practical.estimate.savings_per_page()
    );
    let optimal =
        best_start_optimal(&members, speed, pages, pool, (0.0, 1000.0)).expect("nonempty");
    let (start, reads) = (optimal.start, optimal.estimate.reads);
    println!("optimal algorithm starts at offset {start:.0} ({reads:.0} reads)");
    assert!(at_a.reads < at_front.reads, "near A must win");
    json(&Fig89 {
        start_at_front_reads: front,
        start_near_a_reads: near_a,
        worst_case_reads: worst,
        front_saving_pct: front_pct,
        near_a_saving_pct: near_a_pct,
        live_front_reads: at_front.reads,
        live_near_a_reads: at_a.reads,
        practical_choice_member: practical.member,
        optimal_start: optimal.start,
    })
}

/// E0: single-stream overhead of the sharing machinery.
///
/// The paper: "the observed overhead in the first experiment was well
/// below 1% of the end-to-end time." With a single stream there is
/// nothing to share, so any difference between base and scan-sharing is
/// pure manager overhead. In the simulator the manager's *decisions*
/// cost no virtual time (as in the paper, the calls are cheap); what
/// this experiment verifies is that its decisions (placement, priorities)
/// never *hurt* a lone stream. The host-time cost of the manager calls
/// themselves is measured by the `manager_overhead` bench.
fn overhead(r: &mut Runs) -> Option<Value> {
    #[derive(Serialize)]
    struct Overhead {
        base_s: f64,
        ss_s: f64,
        overhead_pct: f64,
        base_reads: u64,
        ss_reads: u64,
    }
    let (rb, rs) = r.throughput_pair(1);
    let (base_s, ss_s) = (secs(rb.makespan), secs(rs.makespan));
    let (base_reads, ss_reads) = (rb.disk.pages_read, rs.disk.pages_read);
    let overhead_pct = (ss_s / base_s - 1.0) * 100.0;
    println!("\n== E0: single-stream TPC-H, sharing on vs off ==");
    println!("base: {base_s:.2}s   scan-sharing: {ss_s:.2}s");
    println!("overhead: {overhead_pct:+.2}% (paper: well below 1%)");
    println!("reads: base {base_reads} pages, ss {ss_reads} pages");
    if overhead_pct.abs() <= 1.0 {
        println!("PASS: within the paper's <1% bound");
    } else if overhead_pct < 0.0 {
        println!("NOTE: sharing helped even a single stream (intra-stream reuse)");
    } else {
        println!("FAIL: overhead exceeds 1%");
    }
    json(&Overhead {
        base_s,
        ss_s,
        overhead_pct,
        base_reads,
        ss_reads,
    })
}

/// A1: ablation of the three mechanisms.
///
/// DESIGN.md calls out three separable design choices: placement (start
/// new scans at ongoing scans' positions), throttling (slow drifting
/// leaders), and page re-prioritization (leaders high / trailers low).
/// This experiment toggles each alone and all together on the 5-stream
/// TPC-H run.
fn ablation(r: &mut Runs) -> Option<Value> {
    #[derive(Serialize)]
    struct AblationRow {
        variant: String,
        makespan_s: f64,
        pages_read: u64,
        seeks: u64,
        end_to_end_gain_pct: f64,
        read_gain_pct: f64,
    }
    let variant = |name, placement, throttling, priorities| {
        let cfg = SharingConfig {
            enable_placement: placement,
            enable_throttling: throttling,
            enable_priorities: priorities,
            ..SharingConfig::new(0)
        };
        (name, SharingMode::ScanSharing(cfg))
    };
    let (names, modes): (Vec<&str>, Vec<_>) = [
        ("base", SharingMode::Base),
        variant("placement only", true, false, false),
        variant("throttling only", false, true, false),
        variant("priorities only", false, false, true),
        variant("placement+throttling", true, true, false),
        variant("all (full SS)", true, true, true),
    ]
    .into_iter()
    .unzip();
    let reports = r.throughput_runs(&modes);
    let base = &reports[0];
    let rows: Vec<AblationRow> = (names.iter().zip(&reports))
        .map(|(name, r)| AblationRow {
            variant: name.to_string(),
            makespan_s: secs(r.makespan),
            pages_read: r.disk.pages_read,
            seeks: r.disk.seeks,
            end_to_end_gain_pct: pct_gain(secs(base.makespan), secs(r.makespan)),
            read_gain_pct: pct_gain(base.disk.pages_read as f64, r.disk.pages_read as f64),
        })
        .collect();
    println!("\n== A1: mechanism ablation (5-stream TPC-H) ==");
    println!("variant                  time (s)   pages read    seeks   t-gain   r-gain");
    print_rows("<22 10.2 12 8 7.1% 7.1%", &rows);
    println!("\nexpected shape: placement delivers the bulk; throttling and priorities");
    println!("compound it by keeping joined scans together and protecting their pages.");
    json(&rows)
}

/// The 5-stream throughput base and scan-sharing specs with `edit`
/// applied to their engine configuration.
fn edited_pair(r: &mut Runs, edit: impl Fn(&mut EngineConfig)) -> (Db, [WorkloadSpec; 2]) {
    let (db, mut base) = r.throughput(5, SharingMode::Base);
    let (_, mut ss) = r.throughput(5, ss_mode());
    edit(&mut base.engine);
    edit(&mut ss.engine);
    (db, [base, ss])
}

/// A2: sharing scope — table scans only (the titled ICDE 2007 paper) vs
/// table + index scans (with the VLDB 2007 SISCAN extension).
///
/// The novelty claim of the index-scan paper is precisely that existing
/// systems shared *table* scans only; this experiment quantifies what
/// each scope buys on the 5-stream TPC-H run (18 block index scans and
/// 29 table scans per stream).
fn scope(r: &mut Runs) -> Option<Value> {
    #[derive(Serialize)]
    struct ScopeRow {
        scope: String,
        makespan_s: f64,
        pages_read: u64,
        seeks: u64,
        end_to_end_gain_pct: f64,
    }
    let scopes = [
        ("base (no sharing)", 0, false, false),
        ("table scans only (ICDE'07)", 1, true, false),
        ("index scans only", 1, false, true),
        ("table + index (VLDB'07)", 1, true, true),
    ];
    let (db, _) = edited_pair(r, |_| {});
    let specs: Vec<WorkloadSpec> = (scopes.iter())
        .map(|&(_, mode, table, index)| {
            let (_, pair) = edited_pair(r, |e| {
                e.share_table_scans = table;
                e.share_index_scans = index;
            });
            pair[mode].clone()
        })
        .collect();
    let reports = r.run_all(&db, &specs);
    let base_s = secs(reports[0].makespan);
    let rows: Vec<ScopeRow> = (scopes.iter().zip(&reports))
        .map(|(&(name, ..), r)| ScopeRow {
            scope: name.to_string(),
            makespan_s: secs(r.makespan),
            pages_read: r.disk.pages_read,
            seeks: r.disk.seeks,
            end_to_end_gain_pct: pct_gain(base_s, secs(r.makespan)),
        })
        .collect();
    println!("\n== A2: sharing scope (5-stream TPC-H) ==");
    println!("scope                          time (s)   pages read    seeks     gain");
    print_rows("<28 10.2 12 8 7.1%", &rows);
    println!("\nexpected shape: each scope helps alone; the union wins — index-scan");
    println!("sharing adds gains on top of what table-scan sharing already delivers.");
    json(&rows)
}

/// A3: sweep of the fairness cap (§7.2's "80 %" threshold).
///
/// The cap bounds how long any single scan may be throttled for the
/// benefit of its group. 0 % disables throttling outright; 100 % lets a
/// leader be delayed up to its whole estimated scan time. The paper
/// fixes 80 % "based on our experience with various workloads"; the
/// sweep shows the trade-off between total time and worst per-query
/// regression.
fn fairness(r: &mut Runs) -> Option<Value> {
    #[derive(Serialize)]
    struct FairnessRow {
        cap_pct: u32,
        makespan_s: f64,
        pages_read: u64,
        waits: u64,
        total_wait_s: f64,
        worst_query_regression_pct: f64,
    }
    let caps = [0u32, 20, 50, 80, 100];
    let mut modes = vec![SharingMode::Base];
    modes.extend(caps.iter().map(|&cap| {
        SharingMode::ScanSharing(SharingConfig {
            fairness_cap: cap as f64 / 100.0,
            ..SharingConfig::new(0)
        })
    }));
    let reports = r.throughput_runs(&modes);
    let base = &reports[0];
    let avg = |r: &RunReport, q| secs(r.avg_query_time(q).unwrap());
    let rows: Vec<FairnessRow> = (caps.iter().zip(&reports[1..]))
        .map(|(&cap_pct, r)| FairnessRow {
            cap_pct,
            makespan_s: secs(r.makespan),
            pages_read: r.disk.pages_read,
            waits: r.sharing.waits_injected,
            total_wait_s: secs(r.sharing.total_wait),
            // Worst per-query regression vs base (negative gain).
            worst_query_regression_pct: (QUERY_NAMES.iter())
                .map(|q| pct_gain(avg(base, q), avg(r, q)))
                .fold(0.0, f64::min),
        })
        .collect();
    println!("\n== A3: fairness cap sweep (5-stream TPC-H) ==");
    println!("cap        time (s)   pages read   waits   wait (s)  worst query");
    print_rows("6% 10.2 12 7 10.2 11.1%", &rows);
    println!("\n(base makespan: {:.2}s)", secs(base.makespan));
    println!("paper's choice: 80% — throttle enough to keep groups together,");
    println!("but never delay one scan indefinitely for the others.");
    json(&rows)
}

/// A4: practical (O(S²)) vs optimal (O(S³)) placement on the 5-stream
/// TPC-H run.
///
/// §6.2/6.3 of the paper: the optimal "interesting locations" search can
/// start a new scan *between* ongoing scans, but costs O(|S|³) and needs
/// linearly comparable locations, so the prototype ships the practical
/// anchor-group algorithm. This experiment quantifies what the extra
/// search buys (table scans only — index scans fall back to practical).
fn placement(r: &mut Runs) -> Option<Value> {
    #[derive(Serialize)]
    struct PlacementRow {
        strategy: String,
        makespan_s: f64,
        pages_read: u64,
        joins: u64,
        optimal_placements: u64,
        gain_vs_base_pct: f64,
    }
    let optimal = SharingConfig {
        placement_strategy: PlacementStrategy::Optimal,
        ..SharingConfig::new(0)
    };
    let names = ["base", "practical (paper)", "optimal (O(S^3))"];
    let modes = [
        SharingMode::Base,
        ss_mode(),
        SharingMode::ScanSharing(optimal),
    ];
    let reports = r.throughput_runs(&modes);
    let base_s = secs(reports[0].makespan);
    let rows: Vec<PlacementRow> = (names.iter().zip(&reports))
        .map(|(name, r)| PlacementRow {
            strategy: name.to_string(),
            makespan_s: secs(r.makespan),
            pages_read: r.disk.pages_read,
            joins: r.sharing.scans_joined + r.sharing.scans_joined_finished,
            optimal_placements: r.sharing.scans_placed_optimal,
            gain_vs_base_pct: pct_gain(base_s, secs(r.makespan)),
        })
        .collect();
    println!("\n== A4: placement strategy (5-stream TPC-H) ==");
    println!("strategy             time (s)   pages read   joins   optimal     gain");
    print_rows("<18 10.2 12 7 9 7.1%", &rows);
    println!("\nexpected shape: near-parity — the paper ships the practical algorithm");
    println!("because the optimal search buys little at much higher planning cost");
    println!("(see `cargo bench` group best_start_optimal vs best_start_practical).");
    json(&rows)
}

/// A5: does scan sharing still pay once the engine prefetches?
///
/// The paper's DB2 prefetches extents aggressively (the throttle
/// threshold is even expressed in "prefetch extents"). Our calibrated
/// baseline reads synchronously; this experiment re-runs the 5-stream
/// Table 1 comparison with one-extent read-ahead enabled in *both*
/// modes, confirming the sharing gains are not an artifact of
/// synchronous I/O.
fn prefetch(r: &mut Runs) -> Option<Value> {
    #[derive(Serialize)]
    struct PrefetchRow {
        variant: String,
        makespan_s: f64,
        pages_read: u64,
        seeks: u64,
    }
    let (db, [base, ss]) = edited_pair(r, |_| {});
    let (_, [base_pf, ss_pf]) = edited_pair(r, |e| e.prefetch_extents = 1);
    let reports = r.run_all(&db, &[base, ss, base_pf, ss_pf]);
    let names = [
        "base, no prefetch",
        "SS, no prefetch",
        "base + prefetch",
        "SS + prefetch",
    ];
    let rows: Vec<PrefetchRow> = (names.iter().zip(&reports))
        .map(|(name, r)| PrefetchRow {
            variant: name.to_string(),
            makespan_s: secs(r.makespan),
            pages_read: r.disk.pages_read,
            seeks: r.disk.seeks,
        })
        .collect();
    println!("\n== A5: prefetching x sharing (5-stream TPC-H) ==");
    println!("variant                time (s)   pages read    seeks");
    print_rows("<20 10.2 12 8", &rows);
    let gain = |i: usize| pct_gain(rows[i].makespan_s, rows[i + 1].makespan_s);
    let (without, with) = (gain(0), gain(2));
    println!("\nsharing gain without prefetch: {without:.1}%; with prefetch: {with:.1}%");
    println!("expected shape: prefetch speeds both modes up; sharing still wins on top.");
    json(&rows)
}

/// A6: sharing gains vs storage parallelism.
///
/// The paper's two boxes differ in storage (FAStT manager vs 16 SSA
/// disks). This experiment scales the striped array from 1 to 16 disks
/// and re-measures the 5-stream Table 1 comparison. More spindles soak
/// up contention until the run turns CPU-bound and the *time* gain
/// fades; the *read* savings persist at every width — which is the
/// paper's "reduced disk utilization may be used to scale to a larger
/// number of streams with the same hardware" point seen from the other
/// side.
fn disks(r: &mut Runs) -> Option<Value> {
    #[derive(Serialize)]
    struct DiskRow {
        n_disks: u32,
        base_s: f64,
        ss_s: f64,
        gain_pct: f64,
        base_reads: u64,
        ss_reads: u64,
    }
    let widths = [1u32, 2, 4, 8, 16];
    let (db, _) = edited_pair(r, |_| {});
    let specs: Vec<WorkloadSpec> = (widths.iter())
        .flat_map(|&n| edited_pair(r, |e| e.n_disks = n).1)
        .collect();
    let reports = r.run_all(&db, &specs);
    let rows: Vec<DiskRow> = (widths.iter().zip(reports.chunks(2)))
        .map(|(&n_disks, pair)| DiskRow {
            n_disks,
            base_s: secs(pair[0].makespan),
            ss_s: secs(pair[1].makespan),
            gain_pct: pct_gain(secs(pair[0].makespan), secs(pair[1].makespan)),
            base_reads: pair[0].disk.pages_read,
            ss_reads: pair[1].disk.pages_read,
        })
        .collect();
    println!("\n== A6: sharing gain vs number of disks (5-stream TPC-H) ==");
    println!("disks       base (s)      SS (s)     gain   base reads     SS reads");
    print_rows("<8 11.2 11.2 7.1% 12 12", &rows);
    println!("\nshape: end-to-end gains are large while the disk is the bottleneck and");
    println!("fade once enough spindles make the run CPU-bound — but the ~28% read");
    println!("savings persist at every width, which is the capacity the paper says can");
    println!("be spent on more streams with the same hardware.");
    json(&rows)
}

/// A7: throughput scaling with the number of streams.
///
/// The paper: "The reduced disk utilization may be used to scale to a
/// larger number of streams with the same hardware." This experiment
/// runs the TPC-H throughput workload at each stream count in three
/// modes: the base run's time grows with every added stream (the disk
/// serializes them), the pull-sharing run grows much more slowly
/// because overlapping scans collapse onto one page stream, and the
/// push-sharing run additionally collapses the *buffer-pool fixes* —
/// one group driver fixes each page once per group, so the per-group
/// fix count stays near one no matter how many consumers ride along.
///
/// ```sh
/// exp streams                                   # default 1–8 sweep
/// exp streams --streams 32,128,512 \
///             --out results/streams_push.json   # high-load push curve
/// ```
fn streams(r: &mut Runs) -> Option<Value> {
    #[derive(Serialize)]
    struct StreamsRow {
        streams: usize,
        base_s: f64,
        ss_s: f64,
        gain_pct: f64,
        base_reads_per_stream: u64,
        ss_reads_per_stream: u64,
        push_s: f64,
        push_gain_pct: f64,
        push_reads_per_stream: u64,
        push_fixes_per_page: f64,
        push_drivers: u64,
        push_attaches: u64,
    }
    let counts = r.opts.streams.clone().unwrap_or(vec![1, 2, 3, 5, 8]);
    let (db, _) = r.throughput(1, SharingMode::Base);
    let specs: Vec<WorkloadSpec> = (counts.iter())
        .flat_map(|&n| [SharingMode::Base, ss_mode(), push_mode()].map(|m| (n, m)))
        .map(|(n, mode)| r.throughput(n, mode).1)
        .collect();
    let reports = r.run_all(&db, &specs);
    let rows: Vec<StreamsRow> = (counts.iter().zip(reports.chunks(3)))
        .map(|(&n, runs)| {
            let [b, s, p] = [0, 1, 2].map(|i| secs(runs[i].makespan));
            let [rb, rs, rp] = [0, 1, 2].map(|i| runs[i].disk.pages_read / n as u64);
            let ps = runs[2].push.as_ref().expect("push run records its summary");
            StreamsRow {
                streams: n,
                base_s: b,
                ss_s: s,
                gain_pct: pct_gain(b, s),
                base_reads_per_stream: rb,
                ss_reads_per_stream: rs,
                push_s: p,
                push_gain_pct: pct_gain(b, p),
                push_reads_per_stream: rp,
                push_fixes_per_page: ps.fixes_per_page(),
                push_drivers: ps.drivers,
                push_attaches: ps.attaches,
            }
        })
        .collect();
    println!("\n== A7: scaling with streams (TPC-H mix) ==");
    println!("streams     base (s)    pull (s)     gain    push (s)     gain   fixes/pg");
    print_rows("<8 11.2 11.2 7.1% - - 11.2 7.1% - 10.3", &rows);
    println!("\nexpected shape: per-stream physical reads stay flat for base but FALL");
    println!("with more streams under sharing (more overlap to exploit), so the gain");
    println!("widens as load grows — the paper's scaling argument. Push delivery");
    println!("keeps fixes-per-page near 1 regardless of group size, so its gain");
    println!("overtakes pull as the stream count climbs.");
    json(&rows)
}

/// One stream per `(name, access, cpu)` scan summing `table`'s column
/// `col`, each starting `gap_ms` after the one before.
fn scan_streams(
    table: &str,
    col: usize,
    gap_ms: u64,
    scans: &[(&str, Access, CpuClass)],
) -> Vec<Stream> {
    let stream = |(i, (name, access, cpu)): (usize, &(&str, Access, CpuClass))| {
        let spec = ScanSpec {
            table: table.into(),
            access: access.clone(),
            pred: Pred::True,
            agg: AggSpec::sums(vec![col]),
            cpu: *cpu,
            require_order: false,
            query_priority: Default::default(),
            repeat: 1,
        };
        let start_offset = SimDuration::from_millis(gap_ms * i as u64);
        Stream {
            queries: vec![Query::single(*name, spec)],
            start_offset,
        }
    };
    scans.iter().enumerate().map(stream).collect()
}

/// A workload of `streams` under `mode` with the default engine.
fn workload(streams: &[Stream], pool_pages: usize, mode: &SharingMode) -> WorkloadSpec {
    WorkloadSpec {
        streams: streams.to_vec(),
        pool_pages,
        engine: EngineConfig::default(),
        mode: mode.clone(),
        faults: Default::default(),
        slo: Default::default(),
    }
}

/// A8: QPipe-style attach vs the paper's placement + throttling.
///
/// Related work \[19\] (Harizopoulos et al.) shares scans by letting new
/// operators *attach* to an ongoing scan's page stream. The paper's
/// critique: "while this approach works well for scans with similar
/// speeds, in practice scan speeds can vary by large margins … the
/// benefit can be lower as scans may start drifting apart."
///
/// Workload A (homogeneous): several Q6-like scans of the same year —
/// attach should do almost as well as the full mechanism.
/// Workload B (heterogeneous): the same ranges scanned by a mix of
/// CPU-heavy and I/O-light queries — attach drifts, the paper's
/// throttled groups hold together.
fn attach(r: &mut Runs) -> Option<Value> {
    #[derive(Serialize)]
    struct AttachRow {
        workload: String,
        mode: String,
        makespan_s: f64,
        pages_read: u64,
        gain_vs_base_pct: f64,
    }
    let cfg = r.cfg.clone();
    let db = r.tpch_db(&cfg);
    let access = Access::IndexRange {
        lo: cfg.last_month() - 23,
        hi: cfg.last_month(),
    };
    // A slow reader does 6x the per-row work of a fast one.
    let (fast, slow) = (CpuClass::io_bound(), CpuClass::cpu_bound());
    let scan = |name, cpu| (name, access.clone(), cpu);
    let lineitem = |scans: &[_]| scan_streams("lineitem", li::EXTENDEDPRICE, 80, scans);
    let homogeneous = lineitem(&vec![scan("even", fast); 4]);
    let heterogeneous = lineitem(&[0, 1, 2, 3].map(|i| match i % 2 {
        0 => scan("fast", fast),
        _ => scan("slow", slow),
    }));
    let attach = SharingMode::ScanSharing(SharingConfig::attach_baseline(0));
    let modes = [SharingMode::Base, attach, ss_mode()];
    let names = ["base", "attach (QPipe [19])", "full SS (paper)"];
    let pool = scanshare_tpch::workload::paper_pool_pages(&db);
    let mut rows = Vec::new();
    for (wname, streams) in [
        ("homogeneous", homogeneous),
        ("heterogeneous", heterogeneous),
    ] {
        let specs: Vec<_> = modes.iter().map(|m| workload(&streams, pool, m)).collect();
        let reports = r.run_all(&db, &specs);
        let base_s = secs(reports[0].makespan);
        let section: Vec<AttachRow> = (names.iter().zip(&reports))
            .map(|(mode, r)| AttachRow {
                workload: wname.to_string(),
                mode: mode.to_string(),
                makespan_s: secs(r.makespan),
                pages_read: r.disk.pages_read,
                gain_vs_base_pct: pct_gain(base_s, secs(r.makespan)),
            })
            .collect();
        println!("\n== A8/{wname}: 4 overlapping 2-year scans ==");
        println!("mode                     time (s)   pages read     gain");
        print_rows("- <22 10.2 12 7.1%", &section);
        rows.extend(section);
    }
    println!("\nexpected shape: attach ~ full SS on homogeneous speeds; on mixed");
    println!("speeds attach drifts apart and the paper's throttled groups win.");
    json(&rows)
}

/// Rows in key order, shuffled within a sliding window: key k lands
/// within ~`window` rows of its sorted position.
fn correlated_rows(n: u64, keys: i64, window: usize, seed: u64) -> Vec<Vec<Cell>> {
    let mut rng = scanshare_prng::Rng::seed_from_u64(seed);
    let mut order: Vec<u64> = (0..n).collect();
    for start in (0..order.len()).step_by(window) {
        let end = (start + window).min(order.len());
        rng.shuffle(&mut order[start..end]);
    }
    order
        .into_iter()
        .map(|i| {
            let key = (i as i64 * keys) / n as i64;
            vec![Cell::I32(key as i32), Cell::F64(1.0)]
        })
        .collect()
}

/// E-RID: sharing between general RID index scans (extension).
///
/// The papers' prototype covers MDC block index scans but is explicitly
/// designed to carry over to RID index scans ("can be modified for other
/// index scans very easily"); §3.2 explains why they are the hard case —
/// key order and page order disagree, so distance between scans cannot
/// be read off the locations, and cold scans seek per page run.
///
/// The workload: a 200k-row heap table whose insertion order is key
/// order with local shuffling (a *correlated but unclustered* index, the
/// common real-world case), and three analysts scanning overlapping key
/// ranges moments apart.
fn rid(r: &mut Runs) -> Option<Value> {
    #[derive(Serialize)]
    struct RidRow {
        scan: String,
        base_s: f64,
        ss_s: f64,
        gain_pct: f64,
    }
    #[derive(Serialize)]
    struct RidOut {
        scans: Vec<RidRow>,
        base_reads: u64,
        ss_reads: u64,
        base_seeks: u64,
        ss_seeks: u64,
    }
    let db = r.database("rid", || {
        let mut db = Database::new(16);
        let schema = Schema::new(vec![
            Column::new("key", ColType::Int32),
            Column::new("v", ColType::Float64),
        ]);
        eprintln!("building correlated RID-indexed table ...");
        let rows = correlated_rows(200_000, 1000, 2048, 11);
        db.create_heap_table_with_index("events", schema, 0, rows)
            .expect("load");
        db
    });
    let pages = db.table("events").unwrap().num_pages();
    eprintln!("  events: {pages} pages");

    // Three overlapping range reports within the same key region.
    let scans = [
        ("r0_600", 0, 600),
        ("r50_650", 50, 650),
        ("r100_700", 100, 700),
    ];
    let rid_scans =
        scans.map(|(name, lo, hi)| (name, Access::RidRange { lo, hi }, CpuClass::io_bound()));
    let streams = scan_streams("events", 1, 60, &rid_scans);
    let pool = (pages as usize / 20).max(32);
    let [base, ss] = [SharingMode::Base, ss_mode()].map(|m| workload(&streams, pool, &m));
    let (rb, rs) = r.pair(&db, &base, &ss);
    let rows: Vec<RidRow> = (scans.iter().enumerate())
        .map(|(i, &(name, ..))| {
            let (b, s) = (secs(rb.stream_elapsed[i]), secs(rs.stream_elapsed[i]));
            let (scan, gain_pct) = (name.to_string(), pct_gain(b, s));
            RidRow {
                scan,
                base_s: b,
                ss_s: s,
                gain_pct,
            }
        })
        .collect();
    println!("\n== E-RID: overlapping RID index scans ==");
    println!("scan         base (s)     SS (s)     gain");
    print_rows("<10 10.2 10.2 7.1%", &rows);
    let (b, s) = (&rb.disk, &rs.disk);
    let fewer = |b: u64, s: u64| pct_gain(b as f64, s as f64);
    let (br, sr, bk, sk) = (b.pages_read, s.pages_read, b.seeks, s.seeks);
    print!("\nreads: {br} -> {sr} ({:.1}% fewer); ", fewer(br, sr));
    println!("seeks: {bk} -> {sk} ({:.1}% fewer)", fewer(bk, sk));
    let sh = &rs.sharing;
    println!(
        "anchor machinery: {} joins, {} anchor merges, {} throttle waits",
        sh.scans_joined + sh.scans_joined_finished,
        sh.anchor_merges,
        sh.waits_injected
    );
    json(&RidOut {
        scans: rows,
        base_reads: b.pages_read,
        ss_reads: s.pages_read,
        base_seeks: b.seeks,
        ss_seeks: s.seeks,
    })
}

/// E-POL: general-purpose replacement policies vs coordinated sharing.
///
/// The paper's related work (§2) surveys LRU variants — LRU-K, 2Q, LFU,
/// ARC — and argues they target *general* access patterns, while
/// concurrent ordered scans need coordination. This experiment runs the
/// 5-stream TPC-H workload under plain LRU, LRU-2, and the full
/// scan-sharing prototype: a smarter victimizer alone barely moves the
/// needle, coordination does.
fn policies(r: &mut Runs) -> Option<Value> {
    #[derive(Serialize)]
    struct PolicyRow {
        variant: String,
        makespan_s: f64,
        pages_read: u64,
        seeks: u64,
        hit_ratio_pct: f64,
        gain_vs_lru_pct: f64,
    }
    let names = ["LRU (vanilla)", "LRU-2", "scan-sharing"];
    let lru2 = SharingMode::BasePolicy(ReplacementPolicy::Lru2);
    let reports = r.throughput_runs(&[SharingMode::Base, lru2, ss_mode()]);
    let lru_s = secs(reports[0].makespan);
    let rows: Vec<PolicyRow> = (names.iter().zip(&reports))
        .map(|(name, r)| PolicyRow {
            variant: name.to_string(),
            makespan_s: secs(r.makespan),
            pages_read: r.disk.pages_read,
            seeks: r.disk.seeks,
            hit_ratio_pct: r.pool.hit_ratio() * 100.0,
            gain_vs_lru_pct: pct_gain(lru_s, secs(r.makespan)),
        })
        .collect();
    println!("\n== E-POL: replacement policy vs coordination (5-stream TPC-H) ==");
    println!("variant            time (s)   pages read    seeks    hit %     gain");
    print_rows("<16 10.2 12 8 8.1 7.1%", &rows);
    println!("\nexpected shape: LRU-2 ~ LRU (general-purpose replacement cannot");
    println!("coordinate ordered scans); scan-sharing wins by synchronizing them.");
    json(&rows)
}

#[derive(Serialize)]
struct PolicyRow {
    workload: String,
    policy: String,
    makespan_s: f64,
    pages_read: u64,
    hit_ratio_pct: f64,
    /// Worst per-query stretch: max over queries of this run's average
    /// query time divided by the base (no sharing) run's. 1.0 = no
    /// query paid anything for the sharing; higher = some query was
    /// slowed that much.
    worst_stretch: f64,
}

/// One workload shape of the `policy` ablation: base + all three
/// sharing policies over `streams` streams of `cfg`'s database.
fn ablate(r: &mut Runs, label: &str, cfg: &TpchConfig, streams: usize) -> Vec<PolicyRow> {
    use SharingPolicyKind::*;
    let db = r.tpch_db(cfg);
    let (months, seed) = (cfg.months as i64, cfg.seed);
    let spec = |mode| throughput_workload(&db, streams, months, seed, mode);
    let mut specs = vec![spec(SharingMode::Base)];
    let policies = [Grouping, Attach, Elevator];
    for p in policies {
        specs.push(spec(SharingMode::ScanSharing(SharingConfig::with_policy(
            0, p,
        ))));
    }
    eprintln!("[{label}] running base + {} policies ...", policies.len());
    let reports = r.run_all(&db, &specs);
    let base = &reports[0];
    let stretch = |run: &RunReport| {
        let times = |q| Some((base.avg_query_time(q)?, run.avg_query_time(q)?));
        (QUERY_NAMES.iter().filter_map(|&q| times(q)))
            .filter(|(b, _)| secs(*b) > 0.0)
            .fold(1.0f64, |worst, (b, s)| worst.max(secs(s) / secs(b)))
    };
    let row = |policy: &str, run: &RunReport, worst_stretch| PolicyRow {
        workload: label.to_string(),
        policy: policy.to_string(),
        makespan_s: secs(run.makespan),
        pages_read: run.disk.pages_read,
        hit_ratio_pct: run.pool.hit_ratio() * 100.0,
        worst_stretch,
    };
    println!("\n== policy ablation: {label} ({streams} streams) ==");
    println!("policy       time (s)   pages read  hit ratio  worst stretch");
    let cols = "- <10 10.2 12 9.1% 13.2x";
    print_rows(cols, &[row("(base)", base, 1.0)]);
    let mut rows = Vec::new();
    for (p, run) in policies.into_iter().zip(&reports[1..]) {
        // The report stamps the policy only when it is not the default.
        let stamped = run.policy.unwrap_or_default();
        assert_eq!(
            stamped, p,
            "report policy stamp disagrees with the requested policy"
        );
        r.record_metrics(&format!("{label}/{p}"), run);
        rows.push(row(p.as_str(), run, stretch(run)));
    }
    print_rows(cols, &rows);
    rows
}

/// A9: sharing-policy ablation — grouping vs attach vs elevator.
///
/// The paper's mechanism is the *grouping* policy: group-aware
/// placement plus throttling and page priorities. This experiment pits
/// it against the two classic alternatives it improves on, re-expressed
/// inside the same simulator:
///
/// * **attach** — a new scan simply jumps to the newest compatible
///   scan's position (shared-cursor attach, no feedback loops);
/// * **elevator** — one circulating read cursor per table; scans attach
///   at the cursor and wrap around.
///
/// Two workloads run under all three policies: the pinned CI smoke
/// workload (3 streams, tiny scale — the same spec `bench_gate` pins)
/// and the 5-stream TPC-H throughput workload at the experiment scale.
/// For each run the table reports pages read, buffer-pool hit ratio,
/// and the worst per-query *stretch* (slowest query's time relative to
/// the no-sharing base run — the fairness axis the grouping policy's
/// throttle cap is designed to bound).
///
/// `--smoke` runs only the tiny workload and skips the JSON dump; CI
/// uses it as a cheap informational signal without touching the
/// committed `results/policy_ablation.json` artifact.
fn policy(r: &mut Runs) -> Option<Value> {
    // Smoke workload: exactly the spec bench_gate pins, so these
    // numbers are directly comparable against the gated baseline.
    let mut rows = ablate(r, "smoke", &TpchConfig::tiny(), 3);
    if r.opts.smoke {
        println!("\n(--smoke: skipping the 5-stream workload and the JSON dump)");
        return None;
    }
    // Full workload: the Table-1-style 5-stream throughput run.
    let cfg = r.cfg.clone();
    rows.extend(ablate(r, "throughput", &cfg, 5));
    println!("\ngrouping is the paper's policy: placement + throttling + priorities.");
    println!("attach/elevator share pages opportunistically but never throttle,");
    println!("so their worst per-query stretch is whatever the overlap dictates.");
    json(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare_storage::SimTime;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_split_into_experiments_and_options() {
        let (named, opts) =
            parse_args(&args("fig19 table1 --metrics-out m --streams 2,4")).unwrap();
        let names: Vec<_> = named.iter().map(|e| e.name).collect();
        assert_eq!(names, ["fig19", "table1"]);
        assert_eq!(opts.metrics_out.as_deref(), Some("m"));
        assert_eq!(opts.streams, Some(vec![2, 4]));
        assert_eq!(parse_args(&[]).unwrap().0.len(), EXPERIMENTS.len());
        for bad in ["table1 --metrics-out", "nosuch", "--streams 0", "--bogus"] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn out_redirects_only_the_streams_sweep() {
        let opts = Options {
            out: Some("sweep.json".into()),
            ..Options::default()
        };
        let path = |name| find(name).unwrap().output_path(&opts);
        assert_eq!(path("streams"), Path::new("sweep.json"));
        assert_eq!(path("policy"), Path::new("results/policy_ablation.json"));
    }

    #[test]
    fn columns_format_like_their_spec() {
        let v = |x: f64| x.to_json_value();
        assert_eq!(cell("<6", &"Q1".to_json_value()), "Q1    ");
        assert_eq!(cell("7.1%", &v(23.75)), "   23.8%");
        assert_eq!(cell("12", &157548u64.to_json_value()), "      157548");
        assert_eq!(cell("13.2x", &v(1.0)), "         1.00x");
    }

    #[test]
    fn ascii_series_is_fixed_width() {
        let mut s = TimeSeries::new(1000);
        for i in 0..100 {
            s.add(SimTime::from_micros(i * 1000), i);
        }
        let line = ascii_series("base", &s, 40, s.buckets().iter().copied().max().unwrap());
        assert_eq!(line.chars().filter(|&c| c == '|').count(), 2);
        assert!(line.len() >= 40);
    }
}
