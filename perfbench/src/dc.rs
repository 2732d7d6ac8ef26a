//! `dc-fattree`: the Figs 12–16 datacenter packet scenario at a large event
//! population — FatTree(k=8), 128 hosts, random-permutation traffic with 8
//! ECMP subflows per connection (1024 subflows), DTS, 100 Mb/s links with
//! 100 µs delay and 32-packet queues.
//!
//! Built from the same public calls as `scenarios::run_datacenter`, so its
//! outputs equal that function's (the self-test pins it), with the run cut
//! into `run_until` slices and the congestion controller, power model and
//! trace sink wrapped when traced. netsim and transport do nearly all the
//! work; there is no fluid or fabric work and energy accounting is a
//! rounding error, which makes this the workload that settles event-loop
//! questions.

use crate::digest::Digest;
use crate::probe::{Probes, TimedCc, TimedPower, TimedSink};
use crate::{
    loop_self_s, per_call_terms, run_sliced, setup_n, sim_counts, timed, CellRun, Rep, RepCtx,
};
use crate::{Counts, Size};
use energy_model::{energy_of_flow, PowerModel, WiredCpuModel};
use mptcp_energy::scenarios::CcChoice;
use netsim::{SimDuration, Simulator};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use topology::{FatTree, LinkParams};
use transport::{attach_flow, FlowConfig, FlowHandle};
use workload::permutation_pairs;

/// The scenario's shape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DcParams {
    /// FatTree arity (hosts = k³/4).
    pub k: usize,
    /// ECMP subflows per connection.
    pub subflows: usize,
    /// Simulated seconds per repetition.
    pub sim_s: f64,
    /// `run_until` slices per repetition.
    pub slices: usize,
}

impl DcParams {
    /// The shape at `size`.
    pub fn at(size: Size) -> DcParams {
        match size {
            Size::Full => DcParams { k: 8, subflows: 8, sim_s: 0.25, slices: 50 },
            Size::Reduced => DcParams { k: 4, subflows: 2, sim_s: 0.25, slices: 10 },
        }
    }

    /// The `scenarios::DcOptions` this shape corresponds to.
    pub fn options(&self, seed: u64) -> mptcp_energy::scenarios::DcOptions {
        mptcp_energy::scenarios::DcOptions {
            seed,
            n_subflows: self.subflows,
            duration_s: self.sim_s,
            ..mptcp_energy::scenarios::DcOptions::default()
        }
    }
}

/// Fleet outputs, as `scenarios::FleetResult` reports them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DcOutput {
    /// Total sender-host energy, joules.
    pub energy_j: f64,
    /// Aggregate goodput, bits/second.
    pub goodput_bps: f64,
    /// Bits delivered.
    pub delivered_bits: f64,
    /// Joules per gigabit delivered.
    pub joules_per_gbit: f64,
}

struct Built {
    sim: Simulator,
    flows: Vec<FlowHandle>,
}

fn build(p: &DcParams, seed: u64, probes: Option<&Arc<Probes>>, rep: &mut Rep) -> Built {
    let opts = p.options(seed);
    let mut sim = Simulator::new(seed);
    if let Some(probes) = probes {
        sim.set_trace_sink(TimedSink::boxed(probes));
    }
    let params = LinkParams::new(opts.host_bps, opts.link_delay).queue(opts.queue_pkts);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xDC);
    let (ft, build_s) = timed(|| FatTree::build(&mut sim, p.k, params));
    let cc = CcChoice::dts();
    let (flows, attach_s) = timed(|| {
        let pairs = permutation_pairs(ft.hosts(), &mut rng);
        pairs
            .iter()
            .enumerate()
            .map(|(i, &(src, dst))| {
                let paths = ft.sample_paths(src, dst, p.subflows, &mut rng);
                let mut algo = cc.build(paths.len());
                if let Some(probes) = probes {
                    algo = TimedCc::wrap(algo, probes);
                }
                attach_flow(
                    &mut sim,
                    FlowConfig::new(i as u64)
                        .min_rto(SimDuration::from_millis(10))
                        .rcv_buf_pkts(512)
                        .sample_every(SimDuration::from_millis(100)),
                    algo,
                    &paths,
                    SimDuration::from_millis((i as u64 * 7) % 100),
                )
            })
            .collect::<Vec<_>>()
    });
    rep.times.insert("topology.build_s", build_s);
    rep.times.insert("transport.attach_s", attach_s);
    rep.counts.insert("topology.links", sim.world().link_count() as u64);
    Built { sim, flows }
}

/// Fleet outputs of a finished run, computed the way
/// `scenarios::run_datacenter` does, with `model` as the host power model.
fn fleet(sim: &Simulator, flows: &[FlowHandle], model: &mut dyn PowerModel) -> DcOutput {
    let (mut energy_j, mut delivered_bits, mut goodput_bps) = (0.0, 0.0, 0.0);
    for f in flows {
        let sender = f.sender_ref(sim);
        energy_j += energy_of_flow(model, sender.samples()).joules;
        delivered_bits += sender.data_acked() as f64 * f64::from(sender.config().mss_bytes) * 8.0;
        goodput_bps += sender.goodput_bps(sim.now());
    }
    let joules_per_gbit =
        if delivered_bits > 0.0 { energy_j / (delivered_bits / 1e9) } else { f64::INFINITY };
    DcOutput { energy_j, goodput_bps, delivered_bits, joules_per_gbit }
}

/// Digest of a run's outputs and exact counts.
pub fn digest_of(out: &DcOutput, counts: &Counts) -> u64 {
    let d = Digest::new()
        .f64(out.energy_j)
        .f64(out.goodput_bps)
        .f64(out.delivered_bits)
        .f64(out.joules_per_gbit);
    counts.values().fold(d, |d, &v| d.u64(v)).value()
}

/// Runs the scenario untraced and unsliced-equivalent, returning the fleet
/// outputs (for comparison with `scenarios::run_datacenter`).
pub fn outputs(p: &DcParams, seed: u64) -> DcOutput {
    let mut scratch = Rep::default();
    let mut b = build(p, seed, None, &mut scratch);
    run_sliced(&mut b.sim, p.sim_s, p.slices, &mut scratch.counts, None);
    let mut model = WiredCpuModel::energy_proportional_server();
    fleet(&b.sim, &b.flows, &mut model)
}

/// One repetition: build, run, account energy, digest.
pub fn rep(ctx: &mut RepCtx<'_>) -> Rep {
    let p = DcParams::at(ctx.size);
    let mut rep = Rep { traced: ctx.traced, ..Rep::default() };
    let probes = ctx.traced.then(|| Arc::new(Probes::default()));
    let panic_here = ctx.faults.panic_cell == Some(0);
    let seed = ctx.seed;
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        assert!(!panic_here, "injected panic in dc-fattree cell 0");
        let traced_spans = ctx.traced.then_some(&mut *ctx.spans);
        run(&p, seed, probes.as_ref(), traced_spans, &mut rep)
    }));
    let outcome = match result {
        Ok(out) => Ok(digest_of(&out, &rep.counts)),
        Err(payload) => {
            Err(format!("panicked: {}", bench_harness::runner::panic_message(&*payload)))
        }
    };
    if let Some(probes) = &probes {
        rep.tallies = probes.tallies();
        let run_span = ctx.spans.spans().iter().rposition(|s| s.name == "run");
        let loop_s = run_span.map_or(0.0, |id| loop_self_s(ctx.spans, id, &ctx.probe_cost));
        rep.times.insert("loop.self_s", loop_s);
        let mut terms = vec![("loop.self_s", loop_s)];
        terms.extend(per_call_terms(&rep.tallies, &ctx.probe_cost, 1.0));
        rep.terms = terms;
    }
    let host_s = rep.setup_s.last().copied().unwrap_or(0.0) + rep.run_s;
    rep.cells.push(CellRun { name: "permutation".to_owned(), host_s, outcome });
    rep
}

fn run(
    p: &DcParams,
    seed: u64,
    probes: Option<&Arc<Probes>>,
    spans: Option<&mut crate::probe::SpanLog>,
    rep: &mut Rep,
) -> DcOutput {
    let mut model = WiredCpuModel::energy_proportional_server();
    match (spans, probes) {
        (Some(log), Some(probes)) => {
            let mut b = log.span("setup", None, Some(probes), |_, _| {
                timed(|| build(p, seed, Some(probes), rep))
            });
            rep.setup_s.push(b.1);
            let (out, run_s) = timed(|| {
                log.span("run", None, Some(probes), |log, run| {
                    run_sliced(
                        &mut b.0.sim,
                        p.sim_s,
                        p.slices,
                        &mut rep.counts,
                        Some((log, Some(run), probes)),
                    );
                    let out = log.span("energy", Some(run), Some(probes), |_, _| {
                        fleet(&b.0.sim, &b.0.flows, &mut TimedPower::new(&mut model, probes))
                    });
                    drop(b.0.sim.take_trace_sink());
                    out
                })
            });
            rep.run_s = run_s;
            finish(rep, p, &b.0);
            out
        }
        _ => {
            let mut setups = Vec::new();
            let mut b = setup_n(&mut setups, || build(p, seed, None, rep));
            rep.setup_s = setups;
            let (out, run_s) = timed(|| {
                run_sliced(&mut b.sim, p.sim_s, p.slices, &mut rep.counts, None);
                fleet(&b.sim, &b.flows, &mut model)
            });
            rep.run_s = run_s;
            finish(rep, p, &b);
            out
        }
    }
}

fn finish(rep: &mut Rep, p: &DcParams, b: &Built) {
    sim_counts(&b.sim, &b.flows, &mut rep.counts);
    rep.sim_s = p.sim_s;
    rep.tx_pkts = rep.counts.get("netsim.link_tx_pkts").copied().unwrap_or(0);
}
