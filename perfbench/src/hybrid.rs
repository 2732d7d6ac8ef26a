//! `hybrid-fattree`: the `hybrid_scale --quick` cell shape on the hybrid
//! fluid/packet engine — FatTree(k=8), 2048 two-path fluid flows plus 64
//! short packet flows, 6 epochs of 0.2 s, fluid `dt` = 5e-4 — run once
//! with LIA and once with DTS-Φ, whose Ψ/Φ terms differ in the ODE's
//! right-hand side.
//!
//! The benchmark calls `HybridEngine::advance_epoch` itself, one span per
//! epoch. Fluid integration happens inside the epoch, so the traced run
//! replays each epoch's `FluidSolver::from_flat_state` + `run` from
//! outside, on the engine's net as that epoch used it, and reports the
//! replay time as the fluid layer's self time; the rest of the epoch is
//! the packet side and the fluid/packet exchange. Replays are not part of
//! `run_s`.

use crate::digest::Digest;
use crate::probe::{Probes, SpanLog, TimedSink};
use crate::{max_count, merge_counts, per_call_terms, setup_n, sim_counts, timed};
use crate::{CellRun, Counts, Rep};
use crate::{RepCtx, Size};
use congestion::AlgorithmKind;
use energy_model::WiredCpuModel;
use mptcp_energy::fluid::FluidSolver;
use mptcp_energy::hybrid::{fluid_model_of, HybridConfig, HybridEngine};
use mptcp_energy::scenarios::CcChoice;
use netsim::{SimDuration, Simulator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;
use topology::{FatTree, LinkParams};
use transport::{FlowConfig, FlowHandle};
use workload::permutation_pairs;

const HOST_BPS: u64 = 100_000_000;

/// The scenario's shape (the `hybrid_scale` tier structure).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HybridParams {
    /// FatTree arity.
    pub k: usize,
    /// Long-lived fluid flows, two paths each.
    pub long_flows: usize,
    /// Short packet-level transfers.
    pub short_flows: usize,
    /// Coupling epochs.
    pub epochs: usize,
    /// Epoch length, seconds.
    pub epoch_s: f64,
    /// Fluid RK4 step, seconds.
    pub fluid_dt: f64,
}

impl HybridParams {
    /// The shape at `size`.
    pub fn at(size: Size) -> HybridParams {
        match size {
            Size::Full => HybridParams {
                k: 8,
                long_flows: 2_048,
                short_flows: 64,
                epochs: 6,
                epoch_s: 0.2,
                fluid_dt: 5e-4,
            },
            Size::Reduced => HybridParams {
                k: 4,
                long_flows: 64,
                short_flows: 12,
                epochs: 3,
                epoch_s: 0.1,
                fluid_dt: 1e-3,
            },
        }
    }
}

/// The cells of one repetition: name and algorithm.
pub fn cells() -> [(&'static str, CcChoice); 2] {
    [("lia", CcChoice::Base(AlgorithmKind::Lia)), ("dts-phi", CcChoice::dts_phi())]
}

/// The inter-pod path RTT the fluid price curves are calibrated for (six
/// hops of propagation and serialization each way), as `hybrid_scale`
/// computes it.
fn calib_rtt_s() -> f64 {
    let ser_data = 1500.0 * 8.0 / HOST_BPS as f64;
    let ser_ack = 40.0 * 8.0 / HOST_BPS as f64;
    6.0 * (2.0 * 100e-6 + ser_data + ser_ack)
}

struct Built {
    eng: HybridEngine,
    short: Vec<FlowHandle>,
    links: u64,
    build_s: f64,
    add_flows_s: f64,
}

/// Builds the FatTree, the engine and its flow population.
fn build(p: &HybridParams, seed: u64, cc: &CcChoice, probes: Option<&Arc<Probes>>) -> Built {
    let mut sim = Simulator::new(seed);
    if let Some(probes) = probes {
        sim.set_trace_sink(TimedSink::boxed(probes));
    }
    let params = LinkParams::new(HOST_BPS, SimDuration::from_micros(100)).queue(32);
    let (ft, build_s) = timed(|| FatTree::build(&mut sim, p.k, params));
    let hosts = ft.hosts();
    let links = sim.world().link_count() as u64;
    let cfg = HybridConfig {
        epoch_s: p.epoch_s,
        fluid_dt: p.fluid_dt,
        handoff_age_s: 2.0 * p.epoch_s,
        calib_rtt_s: calib_rtt_s(),
        ..HybridConfig::default()
    };
    let model = fluid_model_of(cc).expect("both cells' algorithms have a fluid form");
    let ((eng, short), add_flows_s) = timed(|| {
        let mut eng =
            HybridEngine::new(sim, hosts, WiredCpuModel::energy_proportional_server(), cfg);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD0C5);
        let cap_pps = HOST_BPS as f64 / (8.0 * 1500.0);
        let per_host = p.long_flows.div_ceil(hosts).max(1);
        let x0 = (cap_pps / (2.0 * per_host as f64)).max(1.0);
        let mut placed = 0;
        while placed < p.long_flows {
            let pairs = permutation_pairs(hosts, &mut rng);
            for &(src, dst) in pairs.iter().take(p.long_flows - placed) {
                let paths = ft.sample_paths(src, dst, 2, &mut rng);
                eng.add_fluid_flow(model, &paths, x0, src);
                placed += 1;
            }
        }
        let pairs = permutation_pairs(hosts, &mut rng);
        let short = (0..p.short_flows)
            .map(|j| {
                let (src, dst) = pairs[j % pairs.len()];
                let paths = ft.sample_paths(src, dst, 2, &mut rng);
                let pkts = rng.gen_range(32..256u64);
                let fc = FlowConfig::new(j as u64)
                    .transfer_pkts(pkts)
                    .min_rto(SimDuration::from_millis(10))
                    .rcv_buf_pkts(512);
                let jitter = SimDuration::from_millis((j as u64 * 7) % (p.epoch_s * 1e3) as u64);
                eng.add_packet_flow_from(fc, cc, &paths, jitter, src)
            })
            .collect();
        (eng, short)
    });
    Built { eng, short, links, build_s, add_flows_s }
}

/// What one cell measured.
struct CellTimes {
    setups: Vec<f64>,
    run_s: f64,
    epochs_s: Vec<f64>,
    fluid_s: f64,
}

/// Runs one cell: build, advance every epoch, collect outputs. Returns the
/// output digest; counts and layer times go into `rep`.
fn run_cell(
    p: &HybridParams,
    seed: u64,
    cc: &CcChoice,
    mut traced: Option<(&mut SpanLog, &Arc<Probes>)>,
    rep: &mut Rep,
) -> (u64, CellTimes) {
    let cell_span = traced.as_mut().map(|(log, probes)| log.open("cell", None, Some(probes)));
    let mut setups = Vec::new();
    let mut b = match traced.as_mut() {
        Some((log, probes)) => log.span("setup", cell_span, Some(probes), |_, _| {
            let (b, secs) = timed(|| build(p, seed, cc, Some(probes)));
            setups.push(secs);
            b
        }),
        None => setup_n(&mut setups, || build(p, seed, cc, None)),
    };
    *rep.times.entry("topology.build_s").or_insert(0.0) += b.build_s;
    *rep.times.entry("hybrid.add_flows_s").or_insert(0.0) += b.add_flows_s;
    let steps = (p.epoch_s / p.fluid_dt).round() as u64;
    let mut counts = Counts::from([("topology.links", b.links)]);
    let mut t = CellTimes { setups, run_s: 0.0, epochs_s: Vec::new(), fluid_s: 0.0 };
    for _ in 0..p.epochs {
        let paths_before = b.eng.fluid_rates().len();
        let flows_before = b.eng.net().flows.len();
        let start = Instant::now();
        match traced.as_mut() {
            Some((log, probes)) => {
                log.span("epoch", cell_span, Some(probes), |_, _| b.eng.advance_epoch());
            }
            None => b.eng.advance_epoch(),
        }
        let epoch_s = start.elapsed().as_secs_f64();
        t.epochs_s.push(epoch_s);
        t.run_s += epoch_s;
        *counts.entry("fluid.path_steps").or_insert(0) += paths_before as u64 * steps;
        max_count(&mut counts, "netsim.pending_events_max", b.eng.sim().pending_events() as u64);
        max_count(&mut counts, "netsim.armed_timers_max", b.eng.sim().armed_timers());
        if let Some((log, _)) = traced.as_mut() {
            // The net as the epoch integrated it: flows handed off at the
            // end of the epoch were not part of its fluid step.
            let mut net = b.eng.net().clone();
            net.flows.truncate(flows_before);
            let x = &b.eng.fluid_rates()[..paths_before];
            let id = log.span("fluid_replay", cell_span, None, |_, id| {
                let mut solver = FluidSolver::from_flat_state(&net, x);
                solver.run(p.fluid_dt, steps as usize);
                std::hint::black_box(solver.x());
                id
            });
            t.fluid_s += log.secs(id);
        }
    }
    let ((d, hc), collect_s) = timed(|| {
        let eng = &mut b.eng;
        drop(eng.sim_mut().take_trace_sink());
        sim_counts(eng.sim(), &b.short, &mut counts);
        let hc = eng.counters();
        let sim_s = p.epochs as f64 * p.epoch_s;
        let d = Digest::new()
            .f64(eng.energy_joules())
            .f64(eng.delivered_bits())
            .f64(eng.joules_per_gbit())
            .f64(eng.delivered_bits() / sim_s);
        (d, hc)
    });
    t.run_s += collect_s;
    if let (Some((log, probes)), Some(id)) = (traced.as_mut(), cell_span) {
        log.close(id, Some(probes));
    }
    let mut add = |k: &'static str, v: u64| *counts.entry(k).or_insert(0) += v;
    add("fluid.rk4_steps", hc.fluid_steps);
    add("fluid.paths", b.eng.fluid_rates().len() as u64);
    add("fluid.price_cap_hits", hc.price_cap_hits);
    add("hybrid.handoffs", hc.handoffs);
    add("hybrid.background_links", hc.background_links);
    let d = [hc.epochs, hc.fluid_flows, hc.packet_flows]
        .into_iter()
        .chain(counts.values().copied())
        .fold(d, Digest::u64);
    merge_counts(&mut rep.counts, &counts);
    (d.value(), t)
}

/// One repetition: the LIA cell, then the DTS-Φ cell.
pub fn rep(ctx: &mut RepCtx<'_>) -> Rep {
    let p = HybridParams::at(ctx.size);
    let mut rep = Rep { traced: ctx.traced, ..Rep::default() };
    let probes = ctx.traced.then(|| Arc::new(Probes::default()));
    let mut epochs = Vec::new();
    let (mut epochs_total, mut fluid_s) = (0.0, 0.0);
    for (i, (name, cc)) in cells().into_iter().enumerate() {
        let seed = ctx.seed.wrapping_mul(1_000).wrapping_add(i as u64);
        let panic_here = ctx.faults.panic_cell == Some(i);
        let traced = probes.as_ref().map(|pr| (&mut *ctx.spans, pr));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assert!(!panic_here, "injected panic in hybrid-fattree cell {i}");
            run_cell(&p, seed, &cc, traced, &mut rep)
        }));
        let (outcome, host_s) = match result {
            Ok((d, t)) => {
                let host_s = t.setups.last().copied().unwrap_or(0.0) + t.run_s;
                rep.setup_s.extend(t.setups);
                rep.run_s += t.run_s;
                rep.sim_s += p.epochs as f64 * p.epoch_s;
                epochs_total += t.epochs_s.iter().sum::<f64>();
                epochs.extend(t.epochs_s);
                fluid_s += t.fluid_s;
                (Ok(d), host_s)
            }
            Err(payload) => {
                (Err(format!("panicked: {}", bench_harness::runner::panic_message(&*payload))), 0.0)
            }
        };
        rep.cells.push(CellRun { name: name.to_owned(), host_s, outcome });
    }
    rep.tx_pkts = rep.counts.get("netsim.link_tx_pkts").copied().unwrap_or(0);
    if let Some(probes) = &probes {
        rep.tallies = probes.tallies();
        // Every trace sink call is probed; what is left of the epochs after
        // the fluid replay estimate and the probed sink is the packet side
        // and the fluid/packet exchange.
        let sink = rep.tallies.sink;
        let sink_s = sink.nanos as f64 * 1e-9 + ctx.probe_cost.outside_s(sink.calls);
        let coupling_s = epochs_total - fluid_s - sink_s;
        rep.times.insert("fluid.self_s", fluid_s);
        rep.times.insert("hybrid.coupling_s", coupling_s);
        rep.times.insert("hybrid.epoch_s_p50", crate::median(&epochs));
        rep.times.insert("hybrid.epoch_s_max", epochs.iter().copied().fold(0.0, f64::max));
        let mut terms = vec![("fluid.self_s", fluid_s), ("hybrid.coupling_s", coupling_s)];
        terms.extend(per_call_terms(&rep.tallies, &ctx.probe_cost, 1.0));
        rep.terms = terms;
    }
    rep
}
