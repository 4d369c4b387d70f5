//! The traced run: a copy of `engine::workload`'s event loop, built only
//! from the engine's public calls, with a wall-clock span around each
//! call into a layer.
//!
//! The copy must stay behaviourally identical to `run_workload`: the
//! benchmark compares its makespan, pages read and every answer with an
//! untraced run of the same spec and fails on any difference, so drift
//! between this file and the engine cannot go unnoticed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use scanshare::{DecisionLog, ScanSharingManager, SharingConfig};
use scanshare_engine::exec::ExecWorld;
use scanshare_engine::push::{ConsumerId, PushEngine};
use scanshare_engine::scan_exec::{ScanExec, ScanMetrics};
use scanshare_engine::workload::DEFAULT_DECISION_CAP;
use scanshare_engine::{
    Database, EngineResult, Query, QueryRecord, QueryResult, SharingMode, WorkloadSpec,
};
use scanshare_storage::{BufferPool, PoolConfig, ReplacementPolicy, SimDuration, SimTime};

/// A named span kind: one per public call the loop makes into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `ExecWorld::new` plus the manager it is handed.
    WorldNew,
    /// `ScanExec::start`: planning and, with a manager, placement.
    ExecStart,
    /// `ScanExec::step`: one extent through pool, disk model, row
    /// pipeline and the manager's location update.
    ExecStep,
    /// `PushEngine::admit`.
    PushAdmit,
    /// `PushEngine::step_consumer`.
    PushStep,
    /// `PushEngine::take_result`.
    PushTake,
    /// One metrics-sample tick (`ScanSharingManager::probe` and the
    /// registry pushes of the engine's sampler).
    Sample,
}

impl Span {
    /// Every span kind, in report order.
    pub const ALL: [Span; 7] = [
        Span::WorldNew,
        Span::ExecStart,
        Span::ExecStep,
        Span::PushAdmit,
        Span::PushStep,
        Span::PushTake,
        Span::Sample,
    ];

    /// The span's metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Span::WorldNew => "world.new",
            Span::ExecStart => "exec.start",
            Span::ExecStep => "exec.step",
            Span::PushAdmit => "push.admit",
            Span::PushStep => "push.step",
            Span::PushTake => "push.take",
            Span::Sample => "sample",
        }
    }
}

/// Per-kind span durations in nanoseconds, kept in memory for the run.
#[derive(Default)]
pub struct Spans {
    durs: [Vec<u64>; Span::ALL.len()],
}

impl Spans {
    fn time<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.durs[span as usize].push(t0.elapsed().as_nanos() as u64);
        out
    }

    /// The recorded durations of one span kind.
    pub fn durations(&self, span: Span) -> &[u64] {
        &self.durs[span as usize]
    }

    /// Total nanoseconds inside any span.
    pub fn covered_ns(&self) -> u64 {
        self.durs.iter().flatten().sum()
    }
}

/// What the traced run produces: the virtual results to compare with the
/// untraced report, plus the spans and loop counters.
pub struct TracedRun {
    /// Simulated makespan.
    pub makespan: SimDuration,
    /// Simulated disk pages read.
    pub pages_read: u64,
    /// One record per query, sorted like `RunReport::queries`.
    pub queries: Vec<QueryRecord>,
    /// Span durations.
    pub spans: Spans,
    /// Events popped off the event queue.
    pub events: u64,
    /// Host nanoseconds from world creation to the closing sample.
    pub wall_ns: u64,
}

enum CurScan {
    Pull(Box<ScanExec>),
    Push(ConsumerId),
}

struct StreamTask<'q> {
    stream_idx: usize,
    queries: &'q [Query],
    qpos: usize,
    scan_pos: usize,
    rep: u32,
    current: Option<CurScan>,
    qstart: SimTime,
    qresult: QueryResult,
    qmetrics: ScanMetrics,
    records: Vec<QueryRecord>,
}

impl<'q> StreamTask<'q> {
    fn new(stream_idx: usize, queries: &'q [Query]) -> Self {
        StreamTask {
            stream_idx,
            queries,
            qpos: 0,
            scan_pos: 0,
            rep: 0,
            current: None,
            qstart: SimTime::ZERO,
            qresult: QueryResult::default(),
            qmetrics: ScanMetrics::default(),
            records: Vec::new(),
        }
    }

    fn step(
        &mut self,
        db: &Database,
        world: &mut ExecWorld<'_>,
        push: &mut Option<PushEngine>,
        spans: &mut Spans,
        now: SimTime,
    ) -> EngineResult<Option<SimTime>> {
        loop {
            if self.current.is_none() {
                let Some(q) = self.queries.get(self.qpos) else {
                    return Ok(None);
                };
                if self.scan_pos == 0 && self.rep == 0 {
                    self.qstart = now;
                    self.qresult = QueryResult::default();
                    self.qmetrics = ScanMetrics::default();
                }
                if self.scan_pos < q.scans.len() && self.rep >= q.scans[self.scan_pos].repeat.max(1)
                {
                    self.scan_pos += 1;
                    self.rep = 0;
                }
                if self.scan_pos >= q.scans.len() {
                    self.records.push(QueryRecord {
                        name: q.name.clone(),
                        stream: self.stream_idx,
                        start: self.qstart,
                        end: now,
                        cpu: self.qmetrics.cpu,
                        io_wait: self.qmetrics.io_wait,
                        throttle_wait: self.qmetrics.throttle_wait,
                        logical_reads: self.qmetrics.logical_reads,
                        physical_reads: self.qmetrics.physical_reads,
                        result: std::mem::take(&mut self.qresult),
                    });
                    self.qpos += 1;
                    self.scan_pos = 0;
                    self.rep = 0;
                    continue;
                }
                let spec = &q.scans[self.scan_pos];
                let admitted = match push.as_mut() {
                    Some(pe) => spans.time(Span::PushAdmit, || pe.admit(db, world, spec, now))?,
                    None => None,
                };
                let cur = match admitted {
                    Some(cid) => CurScan::Push(cid),
                    None => CurScan::Pull(Box::new(
                        spans.time(Span::ExecStart, || ScanExec::start(db, world, spec, now))?,
                    )),
                };
                self.current = Some(cur);
            }
            let stepped = match self.current.as_mut().expect("just set") {
                CurScan::Pull(scan) => spans.time(Span::ExecStep, || scan.step(world, now))?,
                CurScan::Push(cid) => {
                    let pe = push.as_mut().expect("push scan implies push engine");
                    spans.time(Span::PushStep, || pe.step_consumer(world, *cid, now))?
                }
            };
            match stepped {
                Some(next) => return Ok(Some(next)),
                None => {
                    let (result, m) = match self.current.take().expect("present") {
                        CurScan::Pull(scan) => (scan.result(), scan.metrics.clone()),
                        CurScan::Push(cid) => {
                            let pe = push.as_mut().expect("push engine");
                            spans.time(Span::PushTake, || pe.take_result(cid))
                        }
                    };
                    self.qresult.absorb(result);
                    self.qmetrics.cpu += m.cpu;
                    self.qmetrics.io_wait += m.io_wait;
                    self.qmetrics.throttle_wait += m.throttle_wait;
                    self.qmetrics.logical_reads += m.logical_reads;
                    self.qmetrics.physical_reads += m.physical_reads;
                    self.rep += 1;
                }
            }
        }
    }
}

/// The engine's interval sampler, rebuilt from public calls: the same
/// registry pushes and the same `probe` per tick.
fn sample(world: &ExecWorld<'_>, mgr: Option<&ScanSharingManager>, at: SimTime) {
    let reg = &world.metrics;
    let pool = world.pool.stats();
    reg.series("pool.hit_ratio").push(at, pool.hit_ratio());
    reg.series("pool.evictions").push(at, pool.evictions as f64);
    reg.series("disk.seek_distance")
        .push(at, world.disk.stats().seek_distance_pages as f64);
    let Some(mgr) = mgr else { return };
    let probe = mgr.probe();
    reg.gauge("mgr.groups").set(probe.groups.len() as f64);
    reg.gauge("mgr.active_scans").set(probe.scans.len() as f64);
    reg.series("mgr.shared_groups")
        .push(at, probe.shared_groups() as f64);
    for g in &probe.groups {
        reg.series(&format!("group.{}.distance_pages", g.anchor.0))
            .push(at, g.extent as f64);
    }
    for s in &probe.scans {
        reg.series(&format!("scan.{}.slowdown_frac", s.id.0))
            .push(at, s.slowdown_frac);
    }
}

/// Run `spec` to completion through the traced copy of the event loop.
pub fn run_traced(db: &Database, spec: &WorkloadSpec) -> EngineResult<TracedRun> {
    assert!(
        spec.faults.is_empty() && spec.slo.is_empty(),
        "the traced driver mirrors fault-free, SLO-free runs only"
    );
    let mut spans = Spans::default();
    let t0 = Instant::now();
    let (mut world, mgr) = spans.time(Span::WorldNew, || {
        let (policy, mgr) = match &spec.mode {
            SharingMode::Base => (ReplacementPolicy::Lru, None),
            SharingMode::BasePolicy(p) => (*p, None),
            SharingMode::ScanSharing(cfg) => {
                let cfg = SharingConfig {
                    pool_pages: spec.pool_pages as u64,
                    extent_pages: spec.engine.extent_pages as u64,
                    ..cfg.clone()
                };
                let policy = if cfg.enable_priorities {
                    ReplacementPolicy::PriorityLru
                } else {
                    ReplacementPolicy::Lru
                };
                let mgr = Arc::new(ScanSharingManager::new(cfg));
                mgr.attach_decision_log(DecisionLog::new(DEFAULT_DECISION_CAP));
                (policy, Some(mgr))
            }
        };
        let pool = BufferPool::new(PoolConfig::new(spec.pool_pages, policy));
        let world = ExecWorld::new(db.store(), pool, spec.engine.clone(), mgr.clone());
        (world, mgr)
    });
    let mut push = match &spec.mode {
        SharingMode::ScanSharing(cfg) if cfg.delivery == scanshare::DeliveryMode::Push => {
            Some(PushEngine::new())
        }
        _ => None,
    };
    let mut tasks: Vec<StreamTask<'_>> = spec
        .streams
        .iter()
        .enumerate()
        .map(|(i, s)| StreamTask::new(i, &s.queries))
        .collect();

    let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    let mut seq = 0u64;
    for (i, s) in spec.streams.iter().enumerate() {
        heap.push(Reverse((s.start_offset.as_micros(), seq, i)));
        seq += 1;
    }
    let mut makespan = SimTime::ZERO;
    let mut events = 0u64;
    let interval = spec.engine.metrics_interval;
    let mut next_sample = SimTime::ZERO + interval;
    while let Some(Reverse((t_us, _, i))) = heap.pop() {
        events += 1;
        let now = SimTime::from_micros(t_us);
        if interval > SimDuration::ZERO {
            while next_sample <= now {
                spans.time(Span::Sample, || sample(&world, mgr.as_deref(), next_sample));
                next_sample += interval;
            }
        }
        match tasks[i].step(db, &mut world, &mut push, &mut spans, now)? {
            Some(next) => {
                heap.push(Reverse((next.as_micros(), seq, i)));
                seq += 1;
            }
            None => makespan = makespan.max(now),
        }
    }
    spans.time(Span::Sample, || sample(&world, mgr.as_deref(), makespan));
    let wall_ns = t0.elapsed().as_nanos() as u64;

    let mut queries: Vec<QueryRecord> = Vec::new();
    for t in &mut tasks {
        queries.append(&mut t.records);
    }
    queries.sort_by_key(|q| (q.end, q.stream));
    Ok(TracedRun {
        makespan: makespan.since(SimTime::ZERO),
        pages_read: world.disk.stats().pages_read,
        queries,
        spans,
        events,
        wall_ns,
    })
}
