//! The paper's claims as executable checks.
//!
//! Runs the experiments through the same library entry point as the
//! `exp` binary, at scale 0.1 and seed 42, and asserts over the JSON
//! `exp` would write to `results/`. Only claims that hold at both scale
//! 0.1 and scale 1.0 are asserted; the ones that do not are listed
//! under "Known deviations" in EXPERIMENTS.md.

use scanshare_bench::exp::{find, Options, Runs};
use scanshare_tpch::TpchConfig;
use serde_json::Value;
use std::collections::HashMap;
use std::sync::OnceLock;

const NAMES: [&str; 9] = [
    "table1", "fig17", "fig19", "overhead", "fig15", "fig16", "policies", "streams", "fairness",
];

/// Every experiment's JSON, run once for all tests through one shared
/// run cache.
fn outputs() -> &'static HashMap<&'static str, Value> {
    static OUT: OnceLock<HashMap<&'static str, Value>> = OnceLock::new();
    OUT.get_or_init(|| {
        let cfg = TpchConfig {
            scale: 0.1,
            seed: 42,
            ..TpchConfig::default()
        };
        let mut runs = Runs::new(cfg, Options::default());
        NAMES
            .iter()
            .map(|&name| {
                let json = find(name).unwrap().run(&mut runs).expect("writes JSON");
                (name, serde_json::from_str(&json).expect("valid JSON"))
            })
            .collect()
    })
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing number {key}"))
}

fn nums(v: &Value, key: &str) -> Vec<f64> {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("missing array {key}"))
        .iter()
        .map(|x| x.as_f64().expect("number"))
        .collect()
}

fn rows(name: &str) -> &'static [Value] {
    outputs()[name].as_array().expect("row array")
}

#[test]
fn table1_sharing_reads_and_seeks_less_and_finishes_sooner() {
    let t = &outputs()["table1"];
    assert!(num(t, "ss_makespan_s") < num(t, "base_makespan_s"));
    assert!(num(t, "ss_pages_read") < num(t, "base_pages_read"));
    assert!(num(t, "ss_seeks") < num(t, "base_seeks"));
}

#[test]
fn fig17_sharing_reads_less_in_most_time_units() {
    // Compare the 1 s buckets where both runs were still reading.
    let f = &outputs()["fig17"];
    let (base, ss) = (nums(f, "base_kb_per_bucket"), nums(f, "ss_kb_per_bucket"));
    let both: Vec<(f64, f64)> = base
        .iter()
        .zip(&ss)
        .map(|(&b, &s)| (b, s))
        .filter(|&(b, s)| b > 0.0 && s > 0.0)
        .collect();
    let lower = both.iter().filter(|&&(b, s)| s < b).count();
    assert!(
        2 * lower > both.len(),
        "lower in {lower} of {} buckets",
        both.len()
    );
}

#[test]
fn fig19_every_stream_gains_similarly() {
    let gains = nums(&outputs()["fig19"], "gain_pct");
    assert_eq!(gains.len(), 5);
    assert!(gains.iter().all(|&g| g > 0.0), "{gains:?}");
    let (lo, hi) = gains
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &g| (lo.min(g), hi.max(g)));
    assert!(hi - lo < 5.0, "gains spread {lo:.1}..{hi:.1}");
}

#[test]
fn single_stream_overhead_is_below_one_percent() {
    let overhead = num(&outputs()["overhead"], "overhead_pct");
    assert!(overhead < 1.0, "overhead {overhead:.2}%");
}

#[test]
fn fig15_every_q6_run_gains_the_middle_most_and_io_wait_falls() {
    let f = &outputs()["fig15"];
    let gains = nums(f, "per_run_gain_pct");
    assert!(gains.iter().all(|&g| g > 0.0), "{gains:?}");
    assert!(gains[1] > gains[0] && gains[1] > gains[2], "{gains:?}");
    let io_wait = |key| nums(f, key)[3];
    assert!(io_wait("ss_breakdown_pct") < io_wait("base_breakdown_pct"));
}

#[test]
fn fig16_every_q1_run_gains() {
    let gains = nums(&outputs()["fig16"], "per_run_gain_pct");
    assert!(gains.iter().all(|&g| g > 0.0), "{gains:?}");
}

#[test]
fn coordination_beats_smarter_replacement() {
    let gain = |variant: &str| {
        let row = rows("policies")
            .iter()
            .find(|r| r.get("variant").and_then(Value::as_str) == Some(variant))
            .unwrap_or_else(|| panic!("no {variant} row"));
        num(row, "gain_vs_lru_pct")
    };
    assert!(gain("scan-sharing") > gain("LRU-2"));
}

#[test]
fn fairness_cap_sweep_keeps_the_gain_at_a_flat_makespan() {
    // Every cap from 0 to 100 % still beats base, and the end-to-end
    // time barely moves across caps: the cap is a safety valve, not a
    // tuning knob. (Whether any query regresses depends on scale; see
    // EXPERIMENTS.md "Known deviations".)
    let base = num(&outputs()["table1"], "base_makespan_s");
    let spans: Vec<f64> = rows("fairness")
        .iter()
        .map(|r| num(r, "makespan_s"))
        .collect();
    assert_eq!(spans.len(), 5);
    assert!(spans.iter().all(|&m| m < base), "{spans:?} vs base {base}");
    let (lo, hi) = spans
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &m| (lo.min(m), hi.max(m)));
    assert!(hi / lo < 1.05, "makespans spread {lo:.2}..{hi:.2}");
}

#[test]
fn pull_gain_grows_with_streams() {
    let streams: Vec<f64> = rows("streams").iter().map(|r| num(r, "streams")).collect();
    assert_eq!(streams, [1.0, 2.0, 3.0, 5.0, 8.0]);
    let gains: Vec<f64> = rows("streams").iter().map(|r| num(r, "gain_pct")).collect();
    assert!(gains.windows(2).all(|w| w[0] < w[1]), "{gains:?}");
}

#[test]
fn views_of_one_run_share_it() {
    let cfg = TpchConfig::tiny();
    let mut runs = Runs::new(cfg, Options::default());
    find("table1").unwrap().run(&mut runs);
    assert_eq!(runs.executed(), 2);
    for name in ["fig17", "fig18", "fig19", "fig20"] {
        find(name).unwrap().run(&mut runs);
    }
    assert_eq!(runs.executed(), 2, "the 5-stream pair ran more than once");
}
