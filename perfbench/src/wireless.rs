//! `wireless-sweep`: a Fig 17 grid through the crash-safe sweep fabric —
//! {lia, olia, balia, dts, dts-phi} × 20 seeds = 100 cells, each a 200
//! simulated-second MPTCP upload over WiFi (10 Mb/s, 40 ms) + LTE
//! (20 Mb/s, 100 ms) with Pareto cross traffic, 1 % loss plus reorder,
//! duplicate and corrupt impairments on the WiFi uplink and 0.5 % loss on
//! the LTE uplink, energy from `PhoneModel::nexus5_uplink` and its RRC
//! machine.
//!
//! Set-up builds every cell's simulator with the same public calls
//! `scenarios::run_wireless` makes (the self-test pins equal outputs), so
//! the traced run can wrap the congestion controller, the power model and
//! the trace sink. `run_fabric` then executes the cells with a fresh
//! journal, and a second `run_fabric` over the same journal must replay
//! every cell, execute none, and report the same outputs. Few events are
//! pending at a time but simulated time is long, transport runs its
//! loss-recovery and reordering paths, and per-cell costs (RRC energy
//! model, planning, `catch_unwind`, journaling) are a visible share.

use crate::digest::Digest;
use crate::probe::{Probes, SpanLog, Tallies, TimedCc, TimedPower, TimedSink};
use crate::{add_snapshot, loop_self_s, merge_counts, per_call_terms, run_sliced, setup_n, timed};
use crate::{CellRun, Counts, Rep, RepCtx, Size};
use bench_harness::fabric::journal::{JournalValue, ValueReader};
use bench_harness::fabric::{
    run_fabric, CellOutcome, FabricCell, FabricOptions, Fingerprint, JournalCodec, RetryPolicy,
};
use congestion::AlgorithmKind;
use energy_model::{energy_of_flow, PhoneModel};
use mptcp_energy::scenarios::{counters_of, CcChoice, ImpairmentKnobs, WirelessOptions};
use netsim::{LossModel, ReorderModel, SimDuration, Simulator};
use obs::CounterSnapshot;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use topology::TwoPath;
use transport::{attach_flow, FlowConfig, FlowHandle};
use workload::{attach_pareto_cross_traffic, ParetoOnOffConfig};

/// Worker threads for the execute pass: the machine's parallelism, capped
/// at two so the figure is comparable across machines and the benchmark
/// stays small.
pub const MAX_JOBS: usize = 2;

/// The grid's shape.
#[derive(Clone, Debug, PartialEq)]
pub struct WirelessParams {
    /// Algorithms, by cell-name prefix.
    pub ccs: Vec<(&'static str, CcChoice)>,
    /// Seeds per algorithm.
    pub seeds: usize,
    /// Simulated seconds per cell.
    pub sim_s: f64,
    /// `run_until` slices per cell.
    pub slices: usize,
}

impl WirelessParams {
    /// The shape at `size`.
    pub fn at(size: Size) -> WirelessParams {
        let lia = ("lia", CcChoice::Base(AlgorithmKind::Lia));
        let phi = ("dts-phi", CcChoice::dts_phi());
        match size {
            Size::Full => WirelessParams {
                ccs: vec![
                    lia,
                    ("olia", CcChoice::Base(AlgorithmKind::Olia)),
                    ("balia", CcChoice::Base(AlgorithmKind::Balia)),
                    ("dts", CcChoice::dts()),
                    phi,
                ],
                seeds: 20,
                sim_s: 200.0,
                slices: 100,
            },
            Size::Reduced => {
                WirelessParams { ccs: vec![lia, phi], seeds: 2, sim_s: 8.0, slices: 8 }
            }
        }
    }

    /// The `scenarios::WirelessOptions` of one cell.
    pub fn options(&self, cell_seed: u64) -> WirelessOptions {
        WirelessOptions {
            seed: cell_seed,
            duration_s: self.sim_s,
            wifi_loss: 0.01,
            lte_loss: 0.005,
            wifi_impair: ImpairmentKnobs {
                reorder_p: 0.02,
                reorder_max_s: 0.02,
                duplicate_p: 0.005,
                corrupt_p: 0.005,
            },
            ..WirelessOptions::default()
        }
    }

    /// Every cell: name, algorithm, cell seed.
    pub fn cells(&self, seed: u64) -> Vec<(String, CcChoice, u64)> {
        let mut out = Vec::new();
        for (c, (name, cc)) in self.ccs.iter().enumerate() {
            for s in 0..self.seeds {
                let cell_seed = seed.wrapping_mul(10_000).wrapping_add((c * 100 + s) as u64);
                out.push((format!("{name}/{s:02}"), *cc, cell_seed));
            }
        }
        out
    }
}

/// One cell's journaled outputs.
#[derive(Clone, Debug, PartialEq)]
pub struct CellOut {
    /// Mean goodput, bits/second.
    pub goodput_bps: f64,
    /// Phone energy, joules.
    pub energy_j: f64,
    /// Retransmissions.
    pub rexmits: u64,
    /// RTO events.
    pub timeouts: u64,
    /// Most events pending between slices.
    pub pending_max: u64,
    /// Most slot timers armed between slices.
    pub armed_max: u64,
}

impl JournalCodec for CellOut {
    fn encode(&self, out: &mut Vec<JournalValue>) {
        self.goodput_bps.encode(out);
        self.energy_j.encode(out);
        self.rexmits.encode(out);
        self.timeouts.encode(out);
        self.pending_max.encode(out);
        self.armed_max.encode(out);
    }

    fn decode(r: &mut ValueReader<'_>) -> Result<Self, String> {
        Ok(CellOut {
            goodput_bps: f64::decode(r)?,
            energy_j: f64::decode(r)?,
            rexmits: u64::decode(r)?,
            timeouts: u64::decode(r)?,
            pending_max: u64::decode(r)?,
            armed_max: u64::decode(r)?,
        })
    }
}

/// Exact counts of one cell: its counter snapshot plus the sampled
/// populations.
fn cell_counts(out: &CellOut, snap: &CounterSnapshot) -> Counts {
    let mut counts = Counts::new();
    add_snapshot(snap, &mut counts);
    counts.insert("netsim.pending_events_max", out.pending_max);
    counts.insert("netsim.armed_timers_max", out.armed_max);
    counts
}

/// Digest of one cell's outputs and exact counts.
pub fn digest_of(out: &CellOut, snap: &CounterSnapshot) -> u64 {
    let d = Digest::new().f64(out.goodput_bps).f64(out.energy_j).u64(out.rexmits).u64(out.timeouts);
    cell_counts(out, snap).values().fold(d, |d, &v| d.u64(v)).value()
}

/// A cell's simulator, built in set-up and consumed by the cell's one run.
struct Prepared {
    sim: Simulator,
    flow: FlowHandle,
}

/// Builds one cell's simulator in the order `scenarios::run_wireless`
/// does, returning it with the topology and attach times.
fn prepare(
    opts: &WirelessOptions,
    cc: &CcChoice,
    probes: Option<&Arc<Probes>>,
) -> (Prepared, f64, f64) {
    let mut sim = Simulator::new(opts.seed);
    if let Some(probes) = probes {
        sim.set_trace_sink(TimedSink::boxed(probes));
    }
    let (tp, build_s) = timed(|| {
        let tp = TwoPath::wireless(&mut sim);
        let w = sim.world_mut();
        w.link_mut(tp.p1.fwd).impairment_mut().set_loss(LossModel::iid(opts.wifi_loss));
        w.link_mut(tp.p2.fwd).impairment_mut().set_loss(LossModel::iid(opts.lte_loss));
        for (link, k) in [(tp.p1.fwd, opts.wifi_impair), (tp.p2.fwd, opts.lte_impair)] {
            let imp = w.link_mut(link).impairment_mut();
            imp.set_reorder(ReorderModel::uniform(
                k.reorder_p,
                SimDuration::from_secs_f64(k.reorder_max_s),
            ));
            imp.set_duplicate(k.duplicate_p);
            imp.set_corrupt(k.corrupt_p);
        }
        tp
    });
    let (flow, attach_s) = timed(|| {
        let mut cross = ParetoOnOffConfig::paper_fig5b();
        cross.burst_rate_bps = opts.wifi_cross_bps;
        attach_pareto_cross_traffic(&mut sim, vec![tp.p1.fwd], cross);
        cross.burst_rate_bps = opts.lte_cross_bps;
        attach_pareto_cross_traffic(&mut sim, vec![tp.p2.fwd], cross);
        let mut algo = cc.build(2);
        if let Some(probes) = probes {
            algo = TimedCc::wrap(algo, probes);
        }
        attach_flow(
            &mut sim,
            FlowConfig::new(0)
                .rcv_buf_bytes(opts.rcv_buf_bytes)
                .sample_every(SimDuration::from_millis(50)),
            algo,
            &tp.both(),
            SimDuration::ZERO,
        )
    });
    (Prepared { sim, flow }, build_s, attach_s)
}

/// Runs a prepared cell to the end and collects its outputs.
fn run_prepared(
    mut prep: Prepared,
    p: &WirelessParams,
    mut traced: Option<(&mut SpanLog, usize, &Probes)>,
) -> (CellOut, CounterSnapshot) {
    let mut counts = Counts::new();
    let spans = traced.as_mut().map(|(log, id, probes)| (&mut **log, Some(*id), *probes));
    run_sliced(&mut prep.sim, p.sim_s, p.slices, &mut counts, spans);
    let mut model = PhoneModel::nexus5_uplink();
    let sender = prep.flow.sender_ref(&prep.sim);
    let energy = match traced {
        Some((_, _, probes)) => {
            energy_of_flow(&mut TimedPower::new(&mut model, probes), sender.samples())
        }
        None => energy_of_flow(&mut model, sender.samples()),
    };
    let out = CellOut {
        goodput_bps: sender.goodput_bps(prep.sim.now()),
        energy_j: energy.joules,
        rexmits: sender.total_rexmits(),
        timeouts: sender.total_timeouts(),
        pending_max: counts["netsim.pending_events_max"],
        armed_max: counts["netsim.armed_timers_max"],
    };
    let snap = counters_of(&prep.sim, &[prep.flow]);
    drop(prep.sim.take_trace_sink());
    (out, snap)
}

/// Runs one cell the way `scenarios::run_wireless` would, untraced and
/// outside the fabric: goodput, joules, rexmits, timeouts.
pub fn outputs(p: &WirelessParams, cc: &CcChoice, cell_seed: u64) -> (f64, f64, u64, u64) {
    let (prep, _, _) = prepare(&p.options(cell_seed), cc, None);
    let (out, _) = run_prepared(prep, p, None);
    (out.goodput_bps, out.energy_j, out.rexmits, out.timeouts)
}

/// What a cell reports about itself besides its journaled output.
#[derive(Debug)]
struct CellLog {
    index: usize,
    host_s: f64,
    spans: SpanLog,
    tallies: Tallies,
}

type Logs = Arc<Mutex<Vec<CellLog>>>;

fn fabric_options(work: &std::path::Path) -> FabricOptions {
    let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    FabricOptions {
        jobs: jobs.min(MAX_JOBS),
        journal: Some(work.join("journal.jsonl")),
        deadline: None,
        retry: RetryPolicy::none(),
        artifacts: None,
    }
}

fn fingerprint(p: &WirelessParams) -> Fingerprint {
    Fingerprint::new().str("perfbench/wireless-sweep").f64(p.sim_s).u64(p.slices as u64)
}

/// One repetition: set-up, execute pass, resume pass, checks.
pub fn rep(ctx: &mut RepCtx<'_>) -> Rep {
    let p = WirelessParams::at(ctx.size);
    let mut rep = Rep { traced: ctx.traced, ..Rep::default() };
    let grid = p.cells(ctx.seed);
    let logs: Logs = Arc::new(Mutex::new(Vec::new()));
    let origin = ctx.spans.origin();
    let (traced, panic_cell) = (ctx.traced, ctx.faults.panic_cell);
    let fp = fingerprint(&p);

    // Set-up: every cell's simulator, then the fabric cells around them.
    let build_cells = || {
        let (mut build_s, mut attach_s) = (0.0, 0.0);
        let cells = grid
            .iter()
            .enumerate()
            .map(|(i, (name, cc, cell_seed))| {
                let probes = traced.then(|| Arc::new(Probes::default()));
                let (prep, b, a) = prepare(&p.options(*cell_seed), cc, probes.as_ref());
                build_s += b;
                attach_s += a;
                let slot = Mutex::new(Some(prep));
                let (logs, p, panic_here) = (Arc::clone(&logs), p.clone(), panic_cell == Some(i));
                FabricCell::with_counters(name.clone(), *cell_seed, move || {
                    assert!(!panic_here, "injected panic in wireless-sweep cell {i}");
                    let start = Instant::now();
                    let prep = slot
                        .lock()
                        .expect("no cell panics while holding its own slot")
                        .take()
                        .expect("a cell runs at most once per pass");
                    let mut spans = SpanLog::since(origin);
                    let result = match &probes {
                        Some(probes) => spans.span("cell", None, Some(probes), |log, id| {
                            run_prepared(prep, &p, Some((log, id, probes)))
                        }),
                        None => run_prepared(prep, &p, None),
                    };
                    let tallies = probes.as_ref().map(|pr| pr.tallies()).unwrap_or_default();
                    let log =
                        CellLog { index: i, host_s: start.elapsed().as_secs_f64(), spans, tallies };
                    logs.lock().expect("no cell panics while holding the log").push(log);
                    result
                })
                .config(fp)
            })
            .collect::<Vec<_>>();
        (cells, build_s, attach_s)
    };
    let (cells, build_s, attach_s) = if traced {
        let (built, secs) = timed(build_cells);
        rep.setup_s.push(secs);
        built
    } else {
        setup_n(&mut rep.setup_s, build_cells)
    };
    let opts = fabric_options(&ctx.work_dir);
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    if let Err(e) = std::fs::create_dir_all(&ctx.work_dir) {
        rep.cells = grid
            .iter()
            .map(|(n, _, _)| CellRun { name: n.clone(), host_s: 0.0, outcome: Err(e.to_string()) })
            .collect();
        return rep;
    }

    // Execute pass, then a resume pass whose cells must never run.
    let exec_id = ctx.traced.then(|| ctx.spans.open("execute", None, None));
    let (executed, exec_s) = timed(|| run_fabric(cells, &opts));
    if let Some(id) = exec_id {
        ctx.spans.close(id, None);
    }
    let journal_bytes =
        opts.journal.as_ref().and_then(|j| std::fs::metadata(j).ok()).map_or(0, |m| m.len());
    let stubs: Vec<FabricCell<CellOut>> = grid
        .iter()
        .map(|(name, _, cell_seed)| {
            let name_owned = name.clone();
            FabricCell::with_counters(
                name.clone(),
                *cell_seed,
                move || -> (CellOut, CounterSnapshot) {
                    panic!("resume pass re-executed cell {name_owned}")
                },
            )
            .config(fp)
        })
        .collect();
    let resume_id = ctx.traced.then(|| ctx.spans.open("resume", None, None));
    let (resumed, resume_s) = timed(|| run_fabric(stubs, &opts));
    if let Some(id) = resume_id {
        ctx.spans.close(id, None);
    }
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    rep.run_s = exec_s + resume_s;

    // Checks and accounting.
    let mut cell_logs = std::mem::take(&mut *logs.lock().expect("every cell has finished"));
    cell_logs.sort_by_key(|l| l.index);
    let mut host_s = vec![0.0; grid.len()];
    for l in &cell_logs {
        host_s[l.index] = l.host_s;
    }
    let (executed, resumed) = match (executed, resumed) {
        (Ok(e), Ok(r)) => (e, r),
        (Err(e), _) | (_, Err(e)) => {
            rep.cells = grid
                .iter()
                .map(|(n, _, _)| CellRun { name: n.clone(), host_s: 0.0, outcome: Err(e.clone()) })
                .collect();
            return rep;
        }
    };
    for (i, (name, _, _)) in grid.iter().enumerate() {
        let outcome = match (&executed.outcomes[i], &resumed.outcomes[i]) {
            (
                CellOutcome::Done { summary: a, .. },
                CellOutcome::Done { summary: b, replayed, .. },
            ) => {
                if !replayed || a.output != b.output || a.counters != b.counters {
                    Err("resume pass disagrees with the execute pass".to_owned())
                } else {
                    let counts = cell_counts(&a.output, &a.counters);
                    merge_counts(&mut rep.counts, &counts);
                    rep.sim_s += p.sim_s;
                    Ok(digest_of(&a.output, &a.counters))
                }
            }
            (CellOutcome::Quarantined(q), _) | (_, CellOutcome::Quarantined(q)) => {
                Err(format!("quarantined: {}", q.message))
            }
        };
        rep.cells.push(CellRun { name: name.clone(), host_s: host_s[i], outcome });
    }
    rep.tx_pkts = rep.counts.get("netsim.link_tx_pkts").copied().unwrap_or(0);
    let links: u64 = executed.results().map(|r| r.counters.links.len() as u64).sum();
    rep.counts.insert("topology.links", links);
    let fc = (executed.counters, resumed.counters);
    rep.counts.insert("fabric.cells_executed", fc.0.executed + fc.1.executed);
    rep.counts.insert("fabric.cells_replayed", fc.0.replayed + fc.1.replayed);
    rep.counts.insert("fabric.retries", fc.0.retries + fc.1.retries);
    rep.counts.insert("fabric.quarantined", fc.0.quarantined + fc.1.quarantined);
    rep.counts.insert("fabric.journal_bytes", journal_bytes);

    let jobs = opts.jobs as f64;
    let cell_total: f64 = host_s.iter().sum();
    let overhead_s = jobs * exec_s - cell_total;
    rep.times.insert("topology.build_s", build_s);
    rep.times.insert("transport.attach_s", attach_s);
    rep.times.insert("fabric.replay_s", resume_s);
    rep.times.insert("fabric.overhead_s", overhead_s);
    rep.times.insert("fabric.parallel_efficiency", cell_total / (jobs * exec_s));
    if ctx.traced {
        let mut loop_s = 0.0;
        for l in cell_logs {
            rep.tallies = rep.tallies + l.tallies;
            if let Some(cell) = l.spans.spans().iter().position(|s| s.name == "cell") {
                loop_s += loop_self_s(&l.spans, cell, &ctx.probe_cost);
            }
            ctx.spans.adopt(l.spans, exec_id);
        }
        rep.times.insert("loop.self_s", loop_s);
        // Cells ran on `jobs` threads: thread-seconds count 1/jobs of
        // wall time, and the fabric's own share is what the threads spent
        // outside cells.
        let scale = 1.0 / jobs;
        let mut terms = vec![("loop.self_s", scale * loop_s)];
        terms.extend(per_call_terms(&rep.tallies, &ctx.probe_cost, scale));
        terms.push(("fabric.overhead_s", scale * overhead_s));
        terms.push(("fabric.replay_s", resume_s));
        rep.terms = terms;
    }
    rep
}
