//! The repository's benchmark: three closed-loop workloads that drive the
//! simulator through its public API, time what users wait for, and check
//! the simulated outputs against exact digests.
//!
//! * `dc-fattree` — the Figs 12–16 packet scenario at a large event
//!   population (netsim + transport dominate);
//! * `hybrid-fattree` — the `hybrid_scale --quick` cell shape (the fluid
//!   RK4 integration dominates);
//! * `wireless-sweep` — a Fig 17 grid of 100 cells run through the
//!   crash-safe sweep fabric, then resumed from its journal.
//!
//! A run repeats its workload back to back until the time budget is spent
//! (each repetition is one closed-loop job; there is no arrival process)
//! and reports medians over the repetitions. With tracing on, repetitions
//! alternate between untraced and traced, so one run yields both the
//! per-layer breakdown and the tracing overhead. See `README.md`.

pub mod dc;
pub mod digest;
pub mod hybrid;
pub mod probe;
pub mod wireless;

use netsim::{SimTime, Simulator};
use probe::{ProbeCost, Probes, SpanLog, Tallies, Tally};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// FatTree(k=8) permutation traffic, 8 subflows per connection, DTS.
    DcFattree,
    /// FatTree(k=8) on the hybrid engine, LIA and DTS-Φ cells.
    HybridFattree,
    /// Fig 17 wireless grid through the sweep fabric plus a resume pass.
    WirelessSweep,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 3] =
        [Workload::DcFattree, Workload::HybridFattree, Workload::WirelessSweep];

    /// The name used on the command line and in `digests.txt`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DcFattree => "dc-fattree",
            Workload::HybridFattree => "hybrid-fattree",
            Workload::WirelessSweep => "wireless-sweep",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input size. `Full` is the benchmark; `Reduced` keeps the shape of each
/// workload at a fraction of its cost, for the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// Small enough for an unoptimized test build.
    Reduced,
}

/// Failures the self-test injects into every repetition to show that they
/// are counted against the attempts instead of aborting the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Faults {
    /// This cell panics instead of running.
    pub panic_cell: Option<usize>,
    /// From the second repetition on, this cell's output digest is
    /// perturbed before it is checked, as if the cell were nondeterministic.
    pub corrupt_cell: Option<usize>,
}

/// Exact work counts by metric name.
pub type Counts = BTreeMap<&'static str, u64>;

/// What one repetition needs to know.
pub struct RepCtx<'a> {
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Input size.
    pub size: Size,
    /// Whether this repetition wraps the per-call layers and records spans.
    pub traced: bool,
    /// Injected failures.
    pub faults: Faults,
    /// Span log of the run (only written to when `traced`).
    pub spans: &'a mut SpanLog,
    /// Scratch directory for this repetition (sweep journals).
    pub work_dir: PathBuf,
    /// What one probe costs on this machine.
    pub probe_cost: ProbeCost,
}

/// One sweep cell's result inside a repetition.
#[derive(Clone, Debug)]
pub struct CellRun {
    /// Cell name, unique within the workload (`digests.txt` key).
    pub name: String,
    /// Host time of the cell, seconds.
    pub host_s: f64,
    /// The output digest, or why the cell produced none.
    pub outcome: Result<u64, String>,
}

/// One closed-loop repetition of a workload.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Whether the per-call layers were wrapped.
    pub traced: bool,
    /// Host time of each set-up in the repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Host time of the timed simulation loop, seconds.
    pub run_s: f64,
    /// Simulated seconds advanced, summed over cells.
    pub sim_s: f64,
    /// Link-level packet transmissions, summed over cells.
    pub tx_pkts: u64,
    /// Per-cell results.
    pub cells: Vec<CellRun>,
    /// Exact work counts.
    pub counts: Counts,
    /// Per-layer host times, seconds (traced repetitions).
    pub times: BTreeMap<&'static str, f64>,
    /// Per-call layer totals (traced repetitions).
    pub tallies: Tallies,
    /// Terms that, with `unexplained_s`, add up to `run_s` (traced
    /// repetitions).
    pub terms: Vec<(&'static str, f64)>,
}

impl Rep {
    fn unexplained_s(&self) -> f64 {
        self.run_s - self.terms.iter().map(|(_, v)| v).sum::<f64>()
    }
}

/// The per-call layers' reconciliation terms, scaled by `scale` (1 for a
/// serial loop; 1/jobs where cells ran in parallel).
pub fn per_call_terms(t: &Tallies, cost: &ProbeCost, scale: f64) -> Vec<(&'static str, f64)> {
    vec![
        ("congestion.self_s", scale * cost.net_self_s(t.cc())),
        ("obs.self_s", scale * cost.net_self_s(t.sink)),
        ("energy.self_s", scale * cost.net_self_s(t.power)),
        ("probes_s", scale * cost.total_s(t.all().calls)),
    ]
}

/// Exact counts read from a finished simulation: link statistics and the
/// transport counters of `flows` (via `scenarios::counters_of`).
pub fn sim_counts(sim: &Simulator, flows: &[transport::FlowHandle], counts: &mut Counts) {
    let snap = mptcp_energy::scenarios::counters_of(sim, flows);
    add_snapshot(&snap, counts);
}

/// Adds a counter snapshot to `counts`.
pub fn add_snapshot(snap: &obs::CounterSnapshot, counts: &mut Counts) {
    let qmax = snap.links.iter().map(|l| l.queue_high_water as u64).max().unwrap_or(0);
    max_count(counts, "netsim.queue_high_water_max", qmax);
    let mut add = |k: &'static str, v: u64| *counts.entry(k).or_insert(0) += v;
    for l in &snap.links {
        add("netsim.link_tx_pkts", l.tx_pkts);
        add("netsim.queue_drops", l.drops_queue);
        add("netsim.ecn_marks", l.ecn_marks);
        add("netsim.impairments", l.drops_fault + l.reordered + l.duplicated + l.corrupted);
    }
    for s in &snap.subflows {
        add("transport.rtos", s.rtos);
        add("transport.fast_rexmits", s.fast_rexmits);
        add("transport.spurious_rexmits", s.spurious_rexmits);
        add("transport.recoveries", s.recoveries);
    }
    for c in &snap.conns {
        add("transport.ooo_dropped", c.ooo_dropped);
        add("transport.duplicates", c.duplicates);
        add("transport.corrupt_discards", c.corrupt_discards);
    }
}

/// Adds `from` into `into`: population high-water marks (`*_max`) take
/// the larger value, every other count adds.
pub fn merge_counts(into: &mut Counts, from: &Counts) {
    for (&k, &v) in from {
        if k.ends_with("_max") {
            max_count(into, k, v);
        } else {
            *into.entry(k).or_insert(0) += v;
        }
    }
}

/// Raises `counts[key]` to at least `v`.
pub fn max_count(counts: &mut Counts, key: &'static str, v: u64) {
    let e = counts.entry(key).or_insert(0);
    *e = (*e).max(v);
}

/// Runs `sim` to `end` in `slices` equal `run_until` slices, sampling the
/// pending-event and armed-timer populations between slices. Slicing
/// leaves the outputs identical (the digests pin it). With `spans`, each
/// slice is a span under `parent`.
pub fn run_sliced(
    sim: &mut Simulator,
    end_s: f64,
    slices: usize,
    counts: &mut Counts,
    mut spans: Option<(&mut SpanLog, Option<usize>, &Probes)>,
) {
    let start_s = sim.now().as_secs_f64();
    for i in 1..=slices {
        let to = SimTime::from_secs_f64(start_s + (end_s - start_s) * i as f64 / slices as f64);
        match spans.as_mut() {
            Some((log, parent, probes)) => {
                log.span("slice", *parent, Some(probes), |_, _| sim.run_until(to));
            }
            None => sim.run_until(to),
        }
        max_count(counts, "netsim.pending_events_max", sim.pending_events() as u64);
        max_count(counts, "netsim.armed_timers_max", sim.armed_timers());
    }
}

/// Sum of the per-slice self time of the event loop: slice spans under
/// `parent` minus the wrapped per-call layers that ran inside them and the
/// probes' cost outside their own intervals.
pub fn loop_self_s(log: &SpanLog, parent: usize, cost: &ProbeCost) -> f64 {
    log.spans()
        .iter()
        .filter(|s| s.name == "slice" && s.parent == Some(parent))
        .map(|s| {
            let inner = s.inner.cc() + s.inner.sink;
            s.dur_ns as f64 * 1e-9 - inner.nanos as f64 * 1e-9 - cost.outside_s(inner.calls)
        })
        .sum()
}

/// Set-ups per untraced repetition. Set-up takes milliseconds, so one
/// sample per repetition would leave `setup_s` at the mercy of a few
/// noisy timings; every set-up but the last is dropped unused.
pub const SETUPS_PER_REP: usize = 5;

/// Runs `build` [`SETUPS_PER_REP`] times, appending each host time to
/// `samples`, and returns the last result.
pub fn setup_n<T>(samples: &mut Vec<f64>, mut build: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..SETUPS_PER_REP {
        let (built, secs) = timed(&mut build);
        samples.push(secs);
        last = Some(built);
    }
    last.expect("SETUPS_PER_REP is at least 1")
}

/// Runs `f`, returning its result and host seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Runs one repetition of `workload`.
pub fn run_rep(workload: Workload, ctx: &mut RepCtx<'_>) -> Rep {
    match workload {
        Workload::DcFattree => dc::rep(ctx),
        Workload::HybridFattree => hybrid::rep(ctx),
        Workload::WirelessSweep => wireless::rep(ctx),
    }
}

/// How to run the benchmark.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Host seconds to keep repeating for.
    pub seconds: f64,
    /// Whether to alternate traced repetitions in.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Injected failures.
    pub faults: Faults,
    /// Scratch directory (created and removed by [`measure`]).
    pub work_dir: PathBuf,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// The options it ran with.
    pub opts: Options,
    /// Every repetition, in order.
    pub reps: Vec<Rep>,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that failed (panicked, were quarantined, or produced a
    /// mismatching digest).
    pub failed: u64,
    /// Every correctness problem found, failed cells included.
    pub problems: Vec<String>,
    /// Spans of the traced repetitions.
    pub spans: SpanLog,
    /// What one probe costs on this machine.
    pub probe_cost: ProbeCost,
    /// Peak resident memory of the process, MiB.
    pub peak_rss_mb: f64,
}

/// Smallest number of repetitions of each kind a run makes, whatever the
/// time budget: medians need a few samples.
const MIN_REPS: usize = 3;

/// Runs `opts.workload` back to back for `opts.seconds` and checks every
/// cell's output digest: against `digests.txt` where a digest is recorded
/// for this seed, else against the first repetition. Exact counts must
/// repeat across repetitions, traced or not.
pub fn measure(opts: &Options) -> Outcome {
    let probe_cost = ProbeCost::measure();
    let mut spans = SpanLog::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut expected: BTreeMap<String, u64> = BTreeMap::new();
    let mut reference: Counts = Counts::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems = Vec::new();
    let mut rep_walls = Vec::new();
    let start = Instant::now();
    loop {
        let traced = opts.trace && reps.len() % 2 == 1;
        let work_dir = opts.work_dir.join(format!("rep{}", reps.len()));
        let mut ctx = RepCtx {
            seed: opts.seed,
            size: opts.size,
            traced,
            faults: opts.faults,
            spans: &mut spans,
            work_dir,
            probe_cost,
        };
        let (rep, rep_s) = timed(|| run_rep(opts.workload, &mut ctx));
        rep_walls.push(rep_s);
        for (i, cell) in rep.cells.iter().enumerate() {
            attempted += 1;
            let flip = u64::from(!reps.is_empty() && opts.faults.corrupt_cell == Some(i));
            let bad = match cell.outcome.as_ref().map(|d| d ^ flip) {
                Err(why) => Some(why.clone()),
                Ok(d) => {
                    let recorded = (opts.size == Size::Full)
                        .then(|| digest::recorded(opts.workload.name(), opts.seed, &cell.name))
                        .flatten();
                    let want = *expected.entry(cell.name.clone()).or_insert(recorded.unwrap_or(d));
                    (want != d).then(|| format!("digest {d:016x}, expected {want:016x}"))
                }
            };
            if let Some(why) = bad {
                failed += 1;
                problems.push(format!("rep {} cell {}: {why}", reps.len(), cell.name));
            }
        }
        for (&k, &v) in &rep.counts {
            let want = *reference.entry(k).or_insert(v);
            if want != v {
                problems.push(format!("rep {}: count {k} = {v}, earlier {want}", reps.len()));
            }
        }
        eprintln!(
            "perfbench: rep {} traced={} setup_s={:.6} run_s={:.6}",
            reps.len(),
            rep.traced,
            rep.setup_s.iter().sum::<f64>(),
            rep.run_s
        );
        reps.push(rep);
        let kinds_done = |t: bool| reps.iter().filter(|r| r.traced == t).count() >= MIN_REPS;
        let enough = kinds_done(false) && (!opts.trace || kinds_done(true));
        // Stop before a repetition that would overrun the budget, so a run
        // lasts `seconds` whatever the repetition length.
        if enough && start.elapsed().as_secs_f64() + median(&rep_walls) > opts.seconds {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    Outcome {
        opts: opts.clone(),
        reps,
        attempted,
        failed,
        problems,
        spans,
        probe_cost,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB; 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                let kb = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated quantile `q` in `[0, 1]`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// A metric as printed: name, value, unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The end-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("sim_s_per_s", "sim-s/s"),
    ("pkts_per_s", "pkt/s"),
    ("cell_s_p50", "s"),
    ("cell_s_p90", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics: name and unit. Every workload reports every one;
/// a layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("topology.build_s", "s"),
    ("topology.links", "count"),
    ("transport.attach_s", "s"),
    ("hybrid.add_flows_s", "s"),
    ("netsim.link_tx_pkts", "pkt"),
    ("netsim.pending_events_max", "count"),
    ("netsim.armed_timers_max", "count"),
    ("netsim.queue_drops", "pkt"),
    ("netsim.ecn_marks", "pkt"),
    ("netsim.queue_high_water_max", "pkt"),
    ("netsim.impairments", "pkt"),
    ("loop.self_s", "s"),
    ("loop.ns_per_pkt", "ns"),
    ("transport.rtos", "count"),
    ("transport.fast_rexmits", "count"),
    ("transport.spurious_rexmits", "count"),
    ("transport.recoveries", "count"),
    ("transport.ooo_dropped", "pkt"),
    ("transport.duplicates", "pkt"),
    ("transport.corrupt_discards", "pkt"),
    ("congestion.on_ack_calls", "count"),
    ("congestion.on_loss_calls", "count"),
    ("congestion.on_timeout_calls", "count"),
    ("congestion.self_s", "s"),
    ("congestion.ns_per_call", "ns"),
    ("energy.power_calls", "count"),
    ("energy.self_s", "s"),
    ("energy.ns_per_call", "ns"),
    ("fluid.rk4_steps", "count"),
    ("fluid.paths", "count"),
    ("fluid.path_steps", "count"),
    ("fluid.price_cap_hits", "count"),
    ("fluid.self_s", "s"),
    ("fluid.ns_per_path_step", "ns"),
    ("hybrid.epoch_s_p50", "s"),
    ("hybrid.epoch_s_max", "s"),
    ("hybrid.coupling_s", "s"),
    ("hybrid.handoffs", "count"),
    ("hybrid.background_links", "count"),
    ("obs.trace_events", "count"),
    ("obs.self_s", "s"),
    ("obs.trace_overhead", "ratio"),
    ("fabric.cells_executed", "count"),
    ("fabric.cells_replayed", "count"),
    ("fabric.retries", "count"),
    ("fabric.quarantined", "count"),
    ("fabric.journal_bytes", "B"),
    ("fabric.replay_s", "s"),
    ("fabric.overhead_s", "s"),
    ("fabric.parallel_efficiency", "ratio"),
    ("probes_s", "s"),
    ("probes.inner_ns", "ns"),
    ("probes.total_ns", "ns"),
    ("unexplained_s", "s"),
    ("reps_untraced", "count"),
    ("reps_traced", "count"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Outcome {
    /// Whether every cell's output checked out and every count repeated.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Failed cells ÷ attempted cells.
    pub fn fail_ratio(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    fn reps(&self, traced: bool) -> impl Iterator<Item = &Rep> {
        self.reps.iter().filter(move |r| r.traced == traced && r.run_s > 0.0)
    }

    fn med(&self, traced: bool, f: impl Fn(&Rep) -> f64) -> f64 {
        median(&self.reps(traced).map(f).collect::<Vec<_>>())
    }

    /// The end-to-end metrics, from the untraced repetitions.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let setups: Vec<f64> = self.reps(false).flat_map(|r| r.setup_s.iter().copied()).collect();
        let cells: Vec<f64> = self
            .reps(false)
            .flat_map(|r| r.cells.iter().filter(|c| c.outcome.is_ok()).map(|c| c.host_s))
            .collect();
        let values = [
            median(&setups),
            self.med(false, |r| r.run_s),
            self.med(false, |r| r.sim_s / r.run_s),
            self.med(false, |r| r.tx_pkts as f64 / r.run_s),
            quantile(&cells, 0.5),
            quantile(&cells, 0.9),
            self.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    }

    /// The per-layer metrics, from the traced repetitions.
    pub fn per_layer(&self) -> Vec<Metric> {
        let cost = self.probe_cost;
        let first = self.reps(true).next();
        let count = |k: &str| first.and_then(|r| r.counts.get(k)).copied().unwrap_or(0) as f64;
        let time = |k: &str| self.med(true, |r| r.times.get(k).copied().unwrap_or(0.0));
        let calls = |f: fn(&Tallies) -> Tally| first.map_or(0.0, |r| f(&r.tallies).calls as f64);
        let net = |f: fn(&Tallies) -> Tally| self.med(true, |r| cost.net_self_s(f(&r.tallies)));
        let cc_calls = calls(Tallies::cc);
        let (cc_s, power_s, sink_s) = (net(Tallies::cc), net(|t| t.power), net(|t| t.sink));
        let probes_s = self.med(true, |r| cost.total_s(r.tallies.all().calls));
        let mut m: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, _) in PER_LAYER {
            m.insert(name, count(name));
        }
        for name in [
            "topology.build_s",
            "transport.attach_s",
            "hybrid.add_flows_s",
            "loop.self_s",
            "fluid.self_s",
            "hybrid.epoch_s_p50",
            "hybrid.epoch_s_max",
            "hybrid.coupling_s",
            "fabric.replay_s",
            "fabric.overhead_s",
            "fabric.parallel_efficiency",
        ] {
            m.insert(name, time(name));
        }
        m.insert("loop.ns_per_pkt", ratio(m["loop.self_s"] * 1e9, m["netsim.link_tx_pkts"]));
        m.insert("congestion.on_ack_calls", calls(|t| t.on_ack));
        m.insert("congestion.on_loss_calls", calls(|t| t.on_loss));
        m.insert("congestion.on_timeout_calls", calls(|t| t.on_timeout));
        m.insert("congestion.self_s", cc_s);
        m.insert("congestion.ns_per_call", ratio(cc_s * 1e9, cc_calls));
        m.insert("energy.power_calls", calls(|t| t.power));
        m.insert("energy.self_s", power_s);
        m.insert("energy.ns_per_call", ratio(power_s * 1e9, calls(|t| t.power)));
        m.insert("fluid.ns_per_path_step", ratio(m["fluid.self_s"] * 1e9, m["fluid.path_steps"]));
        m.insert("obs.trace_events", calls(|t| t.sink));
        m.insert("obs.self_s", sink_s);
        m.insert(
            "obs.trace_overhead",
            ratio(self.med(true, |r| r.run_s), self.med(false, |r| r.run_s)) - 1.0,
        );
        m.insert("probes_s", probes_s);
        m.insert("probes.inner_ns", cost.inner_ns);
        m.insert("probes.total_ns", cost.total_ns);
        m.insert("unexplained_s", self.med(true, Rep::unexplained_s));
        m.insert("reps_untraced", self.reps(false).count() as f64);
        m.insert("reps_traced", self.reps(true).count() as f64);
        PER_LAYER.iter().map(|&(name, unit)| Metric { name, value: m[name], unit }).collect()
    }

    /// The traced repetition whose `run_s` is the median one, broken into
    /// layer terms plus explicit unexplained time that add up to its
    /// `run_s`.
    pub fn reconciliation(&self) -> Option<String> {
        let mut traced: Vec<&Rep> = self.reps(true).collect();
        traced.sort_by(|a, b| a.run_s.total_cmp(&b.run_s));
        let rep = traced.get(traced.len() / 2)?;
        let mut line = format!("reconcile {}: run_s {:.6} =", self.opts.workload.name(), rep.run_s);
        for (name, v) in &rep.terms {
            line.push_str(&format!(" {name} {v:.6} +"));
        }
        line.push_str(&format!(" unexplained_s {:.6}", rep.unexplained_s()));
        Some(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_the_usual_definition() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert!((median(&v) - 2.5).abs() < 1e-12);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!((quantile(&[5.0], 0.9) - 5.0).abs() < 1e-12);
        assert!(median(&[]).abs() < 1e-12);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
