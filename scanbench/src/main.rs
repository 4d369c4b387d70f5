//! The scanshare benchmark: host cost and the paper's result on three
//! TPC-H throughput workloads, with a traced per-layer run.
//!
//! ```sh
//! cargo run --release --manifest-path scanbench/Cargo.toml -- \
//!     --workload tpch64_pull --seed 42 --seconds 20 --trace 1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` measures the per-layer metrics through the traced copy of
//! the event loop in [`traced`] and the manager replay in [`replay`].
//! Either way the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; a human-readable table
//! goes to standard error. See `scanbench/README.md` for the workloads
//! and what each layer metric should move.

mod replay;
mod traced;

use std::process::ExitCode;
use std::time::Instant;

use scanshare::{DeliveryMode, SharingConfig};
use scanshare_engine::{
    run_workload, Database, QueryRecord, QueryResult, RunReport, SharingMode, WorkloadSpec,
};
use scanshare_tpch::{generate, throughput_workload, TpchConfig};

use traced::{Span, TracedRun};

/// Instances per `--trace 0` run at least, however short `--seconds` is,
/// so `setup_s` is always a median.
const MIN_INSTANCES: usize = 3;

/// Traced runs whose named spans cover less of their wall time fail.
const MIN_COVERAGE: f64 = 0.95;

/// Relative tolerance on answer sums against the base-mode reference
/// (scan sharing changes the order rows are summed in).
const SUM_RTOL: f64 = 1e-9;

#[derive(Clone, Copy)]
struct Workload {
    name: &'static str,
    scale: f64,
    streams: usize,
    delivery: DeliveryMode,
    /// Host seconds one instance (set-up, reference and measured run)
    /// took on the development host. It only sizes a run: the instance
    /// count derives from it and `--seconds`, never from a measurement,
    /// so every commit runs the same instances.
    instance_s: f64,
}

impl Workload {
    fn instances(&self, seconds: f64) -> usize {
        ((seconds / self.instance_s).round() as usize).max(MIN_INSTANCES)
    }
}

/// The three workloads; README.md records why each was chosen.
const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "tpch64_pull",
        scale: 0.1,
        streams: 64,
        delivery: DeliveryMode::Pull,
        instance_s: 5.5,
    },
    Workload {
        name: "tpch64_push",
        scale: 0.1,
        streams: 64,
        delivery: DeliveryMode::Push,
        instance_s: 5.5,
    },
    Workload {
        name: "tpch5_sf1_pull",
        scale: 1.0,
        streams: 5,
        delivery: DeliveryMode::Pull,
        instance_s: 1.5,
    },
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: scanbench --workload <tpch64_pull|tpch64_push|tpch5_sf1_pull> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Metrics in output order, each with its unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Checks that failed: wrong answers count per query, everything else
/// (query count, fidelity, coverage) fails the run outright.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Verdict {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `xs` (non-empty).
fn pct(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Nearest-rank percentile of nanosecond samples in microseconds; 0 for
/// a call the run never made.
fn pct_us(ns: &[u64], p: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let us: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    pct(&us, p)
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn sharing_mode(w: Workload) -> SharingMode {
    SharingMode::ScanSharing(SharingConfig {
        delivery: w.delivery,
        ..SharingConfig::new(0)
    })
}

/// Queries grouped by stream, each stream in execution order.
fn by_stream(queries: &[QueryRecord]) -> Vec<Vec<&QueryRecord>> {
    let mut out: Vec<Vec<&QueryRecord>> = Vec::new();
    // `queries` is sorted by end time, so per stream it is in execution
    // order already.
    for q in queries {
        if out.len() <= q.stream {
            out.resize_with(q.stream + 1, Vec::new);
        }
        out[q.stream].push(q);
    }
    out
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= SUM_RTOL * a.abs().max(b.abs())
}

fn same_answer(a: &QueryResult, b: &QueryResult) -> bool {
    a.count == b.count
        && a.sums.len() == b.sums.len()
        && a.sums.iter().zip(&b.sums).all(|(x, y)| close(*x, *y))
        && a.groups.len() == b.groups.len()
        && a.groups.iter().zip(&b.groups).all(|((ka, ga), (kb, gb))| {
            ka == kb
                && ga.count == gb.count
                && ga.sums.len() == gb.sums.len()
                && ga.sums.iter().zip(&gb.sums).all(|(x, y)| close(*x, *y))
        })
}

/// Count the reference's queries whose answer in `got` is wrong or
/// missing; queries `got` has beyond the reference are an error.
fn check_answers(reference: &RunReport, got: &[QueryRecord], v: &mut Verdict) {
    let want = by_stream(&reference.queries);
    let have = by_stream(got);
    v.attempted += reference.queries.len() as u64;
    for (s, want) in want.iter().enumerate() {
        let have = have.get(s).map_or(&[][..], |h| &h[..]);
        v.failed += want
            .iter()
            .enumerate()
            .filter(|(i, w)| {
                !have
                    .get(*i)
                    .is_some_and(|h| h.name == w.name && same_answer(&h.result, &w.result))
            })
            .count() as u64;
    }
    v.require(got.len() == reference.queries.len(), || {
        format!(
            "run completed {} queries, reference {}",
            got.len(),
            reference.queries.len()
        )
    });
}

/// The traced run must reproduce the untraced one exactly.
fn check_fidelity(untraced: &RunReport, traced: &TracedRun, v: &mut Verdict) {
    v.require(traced.makespan == untraced.makespan, || {
        format!(
            "traced makespan {} != untraced {}",
            traced.makespan, untraced.makespan
        )
    });
    v.require(traced.pages_read == untraced.disk.pages_read, || {
        format!(
            "traced pages_read {} != untraced {}",
            traced.pages_read, untraced.disk.pages_read
        )
    });
    let same = traced.queries.len() == untraced.queries.len()
        && traced.queries.iter().zip(&untraced.queries).all(|(a, b)| {
            a.name == b.name
                && a.stream == b.stream
                && a.start == b.start
                && a.end == b.end
                && a.result == b.result
        });
    v.require(same, || {
        "traced per-query records differ from untraced".into()
    });
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Seed of the `j`-th instance of a run; instance 0 is the run's seed.
fn instance_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_add((j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One seeded instance of a workload: its database (generated from the
/// instance seed, which also parameterizes the streams), how long that
/// set-up took, and the base-mode reference run. The reference is the
/// answer key and fixes the instance's scan-page count (its pool logical
/// reads).
struct Instance {
    db: Database,
    months: i64,
    seed: u64,
    setup_s: f64,
    reference: RunReport,
}

impl Instance {
    fn new(w: Workload, seed: u64) -> Instance {
        let cfg = TpchConfig {
            scale: w.scale,
            seed,
            ..TpchConfig::default()
        };
        let months = cfg.months as i64;
        let (db, setup_s) = timed(|| {
            let db = generate(&cfg);
            std::hint::black_box(throughput_workload(
                &db,
                w.streams,
                months,
                seed,
                sharing_mode(w),
            ));
            db
        });
        let base = throughput_workload(&db, w.streams, months, seed, SharingMode::Base);
        let reference = run_workload(&db, &base).expect("base-mode reference runs");
        Instance {
            db,
            months,
            seed,
            setup_s,
            reference,
        }
    }

    fn spec(&self, w: Workload) -> WorkloadSpec {
        throughput_workload(&self.db, w.streams, self.months, self.seed, sharing_mode(w))
    }
}

/// The end-to-end run: `instances(seconds)` seeded instances, each set
/// up, checked against its reference and timed once with tracing off.
fn end_to_end(w: Workload, seed: u64, seconds: f64, v: &mut Verdict, m: &mut Metrics) {
    let n = w.instances(seconds);
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut base_reads = 0u64;
    let (mut makespan, mut pages_read, mut seeks) = (0.0, 0.0, 0.0);
    let mut elapsed: Vec<f64> = Vec::new();
    for j in 0..n {
        let inst = Instance::new(w, instance_seed(seed, j));
        let spec = inst.spec(w);
        let (r, wall) = timed(|| run_workload(&inst.db, &spec).expect("workload runs"));
        check_answers(&inst.reference, &r.queries, v);
        setups.push(inst.setup_s);
        walls.push(wall);
        base_reads += inst.reference.pool.logical_reads;
        makespan += r.makespan.as_secs_f64();
        pages_read += r.disk.pages_read as f64;
        seeks += r.disk.seeks as f64;
        elapsed.extend(r.queries.iter().map(|q| q.elapsed().as_secs_f64()));
    }
    let n = n as f64;
    let total_wall: f64 = walls.iter().sum();
    eprintln!(
        "{}: {} instances, walls {:?} s, set-ups {:?} s; {} query samples for p50/p90",
        w.name,
        walls.len(),
        walls,
        setups,
        elapsed.len()
    );
    m.put("wall_s", total_wall / n, "s");
    m.put("sim_pages_per_s", base_reads as f64 / total_wall, "1/s");
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mib", peak_rss_mib(), "MiB");
    m.put("virt_makespan_s", makespan / n, "s");
    m.put("virt_query_p50_s", pct(&elapsed, 0.50), "s");
    m.put("virt_query_p90_s", pct(&elapsed, 0.90), "s");
    m.put("virt_pages_read", pages_read / n, "count");
    m.put("virt_seeks", seeks / n, "count");
}

fn span_metrics(m: &mut Metrics, t: &TracedRun, span: Span, percentiles: bool) {
    let d = t.spans.durations(span);
    let total: u64 = d.iter().sum();
    let name = span.name();
    m.put(format!("{name}.calls"), d.len() as f64, "count");
    m.put(format!("{name}.total_s"), total as f64 / 1e9, "s");
    m.put(
        format!("{name}.share"),
        total as f64 / t.wall_ns as f64,
        "fraction",
    );
    if percentiles {
        m.put(format!("{name}.p50_us"), pct_us(d, 0.50), "us");
        m.put(format!("{name}.p99_us"), pct_us(d, 0.99), "us");
    }
}

/// The per-layer run: instance 0 (the run's own seed), alternately run
/// untraced and traced until `seconds` are used, then the manager replay.
fn per_layer(w: Workload, seed: u64, seconds: f64, v: &mut Verdict, m: &mut Metrics) {
    let inst = Instance::new(w, seed);
    let (db, reference) = (&inst.db, &inst.reference);
    let spec = inst.spec(w);
    let t0 = Instant::now();
    let mut walls = Vec::new();
    let mut runs: Vec<TracedRun> = Vec::new();
    let mut untraced: Option<RunReport> = None;
    // Alternate untraced and traced runs so both see the same host state;
    // stop before a further pair (as long as the average so far) would
    // overrun `seconds`.
    while runs.is_empty() || t0.elapsed().as_secs_f64() * (1.0 + 1.0 / runs.len() as f64) <= seconds
    {
        let (report, wall) = timed(|| run_workload(db, &spec).expect("workload runs"));
        walls.push(wall);
        let t = traced::run_traced(db, &spec).expect("traced workload runs");
        check_answers(reference, &report.queries, v);
        check_answers(reference, &t.queries, v);
        check_fidelity(&report, &t, v);
        let coverage = t.spans.covered_ns() as f64 / t.wall_ns as f64;
        v.require(coverage >= MIN_COVERAGE, || {
            format!("named spans cover {coverage:.4} of traced wall time, below {MIN_COVERAGE}")
        });
        runs.push(t);
        untraced.get_or_insert(report);
    }
    let r = untraced.expect("at least one pair");
    runs.sort_by_key(|t| t.wall_ns);
    let t = &runs[runs.len() / 2];
    eprintln!(
        "{}: {} traced/untraced pairs, traced walls {:?} s",
        w.name,
        runs.len(),
        runs.iter()
            .map(|t| t.wall_ns as f64 / 1e9)
            .collect::<Vec<_>>()
    );

    for span in [
        Span::ExecStart,
        Span::ExecStep,
        Span::PushAdmit,
        Span::PushStep,
    ] {
        span_metrics(m, t, span, true);
    }
    span_metrics(m, t, Span::Sample, false);
    let covered = t.spans.covered_ns();
    m.put("loop.events", t.events as f64, "count");
    m.put(
        "loop.self_s",
        t.wall_ns.saturating_sub(covered) as f64 / 1e9,
        "s",
    );
    m.put(
        "trace.overhead_frac",
        t.wall_ns as f64 / 1e9 / median(&walls) - 1.0,
        "fraction",
    );
    m.put(
        "trace.coverage_frac",
        covered as f64 / t.wall_ns as f64,
        "fraction",
    );

    m.put("pool.logical_reads", r.pool.logical_reads as f64, "count");
    m.put("pool.hit_ratio", r.pool.hit_ratio(), "fraction");
    m.put("pool.evictions", r.pool.evictions as f64, "count");
    m.put(
        "pool.reprioritizations",
        r.pool.reprioritizations as f64,
        "count",
    );
    m.put("disk.requests", r.disk.requests as f64, "count");
    m.put(
        "disk.seek_distance_pages",
        r.disk.seek_distance_pages as f64,
        "count",
    );
    m.put("disk.busy_s", r.disk.busy.as_secs_f64(), "s");
    let s = &r.sharing;
    m.put("mgr.scans_started", s.scans_started as f64, "count");
    m.put("mgr.scans_joined", s.scans_joined as f64, "count");
    m.put("mgr.anchor_merges", s.anchor_merges as f64, "count");
    m.put("mgr.waits_injected", s.waits_injected as f64, "count");
    m.put("mgr.total_wait_s", s.total_wait.as_secs_f64(), "s");
    m.put("mgr.decisions", r.decisions.len() as f64, "count");
    let p = r.push.clone().unwrap_or_default();
    m.put("push.fixes_per_page", p.fixes_per_page(), "ratio");
    m.put("push.drivers", p.drivers as f64, "count");
    m.put("push.handoffs", p.handoffs as f64, "count");
    m.put("push.attaches", p.attaches as f64, "count");
    m.put("push.catchup_pages", p.catchup_pages as f64, "count");
    m.put("cpu.user_s", r.breakdown.user.as_secs_f64(), "s");
    m.put("cpu.sys_s", r.breakdown.system.as_secs_f64(), "s");
    m.put("cpu.io_wait_s", r.breakdown.io_wait.as_secs_f64(), "s");

    let lineitem = db
        .table("lineitem")
        .expect("TPC-H database has lineitem")
        .num_pages() as u64;
    let (times, replay_s) = timed(|| {
        replay::replay(
            w.streams,
            lineitem,
            spec.pool_pages as u64,
            spec.engine.extent_pages as u64,
        )
    });
    eprintln!(
        "{}: manager replay of {} scans over {lineitem} pages took {replay_s:.2} s",
        w.name, w.streams
    );
    for (name, ns) in [
        ("start_scan", &times.start_scan),
        ("update_location", &times.update_location),
        ("end_scan", &times.end_scan),
        ("probe", &times.probe),
    ] {
        m.put(format!("mgr.{name}.p50_us"), pct_us(ns, 0.50), "us");
        m.put(format!("mgr.{name}.p99_us"), pct_us(ns, 0.99), "us");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scanbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut v = Verdict::default();
    let mut m = Metrics::default();
    if args.trace {
        per_layer(args.workload, args.seed, args.seconds, &mut v, &mut m);
    } else {
        end_to_end(args.workload, args.seed, args.seconds, &mut v, &mut m);
    }
    let correct = v.failed == 0 && v.errors.is_empty() && m.0.iter().all(|(_, x, _)| x.is_finite());
    for (name, value, unit) in &m.0 {
        eprintln!("  {name:<28} {value:>16.6} {unit}");
    }
    eprintln!(
        "  failed_query_frac {:.6} ({} of {} queries)",
        v.failed as f64 / v.attempted.max(1) as f64,
        v.failed,
        v.attempted
    );
    for e in &v.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        v.attempted,
        v.failed,
        m.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
