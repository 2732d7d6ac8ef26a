//! The benchmark's own checks, at reduced input sizes: exact counts repeat
//! across runs and across traced/untraced repetitions, failing cells are
//! counted instead of aborting the run, the workloads reproduce the
//! scenario functions they are built from, and `BENCHMARK.json` and
//! `digests.txt` agree with what the binary prints and checks.

use perfbench::digest::{recorded, DEFAULT_SEED, HELD_OUT_SEED};
use perfbench::{measure, Faults, Options, Outcome, Size, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn options(workload: Workload, faults: Faults, tag: &str) -> Options {
    Options {
        workload,
        seed: 3,
        seconds: 0.0,
        trace: true,
        size: Size::Reduced,
        faults,
        work_dir: std::env::temp_dir().join(format!(
            "perfbench-selftest-{}-{}-{tag}",
            std::process::id(),
            workload.name()
        )),
    }
}

fn run(workload: Workload, faults: Faults, tag: &str) -> Outcome {
    measure(&options(workload, faults, tag))
}

/// Names of the count metrics a workload must report identically in every
/// repetition.
fn expected_counts(workload: Workload) -> Vec<&'static str> {
    let mut keys = vec![
        "topology.links",
        "netsim.link_tx_pkts",
        "netsim.pending_events_max",
        "netsim.armed_timers_max",
        "netsim.queue_drops",
        "netsim.ecn_marks",
        "netsim.queue_high_water_max",
        "netsim.impairments",
        "transport.rtos",
        "transport.fast_rexmits",
        "transport.spurious_rexmits",
        "transport.recoveries",
        "transport.ooo_dropped",
        "transport.duplicates",
        "transport.corrupt_discards",
    ];
    match workload {
        Workload::DcFattree => {}
        Workload::HybridFattree => keys.extend([
            "fluid.rk4_steps",
            "fluid.paths",
            "fluid.path_steps",
            "fluid.price_cap_hits",
            "hybrid.handoffs",
            "hybrid.background_links",
        ]),
        Workload::WirelessSweep => keys.extend([
            "fabric.cells_executed",
            "fabric.cells_replayed",
            "fabric.retries",
            "fabric.quarantined",
            "fabric.journal_bytes",
        ]),
    }
    keys
}

#[test]
fn every_count_repeats_exactly_across_runs_and_tracing() {
    for workload in Workload::ALL {
        let a = run(workload, Faults::default(), "a");
        let b = run(workload, Faults::default(), "b");
        for o in [&a, &b] {
            assert!(o.correct(), "{}: {:?}", workload.name(), o.problems);
            assert!(o.reps.iter().any(|r| r.traced) && o.reps.iter().any(|r| !r.traced));
        }
        let first = &a.reps[0];
        for key in expected_counts(workload) {
            assert!(first.counts.contains_key(key), "{}: no count {key}", workload.name());
        }
        let traced: Vec<_> = a.reps.iter().chain(&b.reps).filter(|r| r.traced).collect();
        for rep in a.reps.iter().chain(&b.reps) {
            assert_eq!(rep.counts, first.counts, "{}", workload.name());
            let digests: Vec<_> = rep.cells.iter().map(|c| c.outcome.clone()).collect();
            let want: Vec<_> = first.cells.iter().map(|c| c.outcome.clone()).collect();
            assert_eq!(digests, want, "{}: traced and untraced digests differ", workload.name());
        }
        // Per-call counts exist only where the layers are wrapped; they
        // repeat exactly too.
        for rep in &traced {
            let (t, t0) = (&rep.tallies, &traced[0].tallies);
            assert_eq!(t.on_ack.calls, t0.on_ack.calls, "{}", workload.name());
            assert_eq!(t.on_loss.calls, t0.on_loss.calls, "{}", workload.name());
            assert_eq!(t.on_timeout.calls, t0.on_timeout.calls, "{}", workload.name());
            assert_eq!(t.power.calls, t0.power.calls, "{}", workload.name());
            assert_eq!(t.sink.calls, t0.sink.calls, "{}", workload.name());
        }
        assert!(traced[0].tallies.sink.calls > 0, "{}: sink saw nothing", workload.name());
        if workload != Workload::HybridFattree {
            assert!(traced[0].tallies.on_ack.calls > 0, "{}", workload.name());
            assert!(traced[0].tallies.power.calls > 0, "{}", workload.name());
        }
    }
}

#[test]
fn every_metric_is_reported_and_the_traced_run_reconciles() {
    for workload in Workload::ALL {
        let o = run(workload, Faults::default(), "metrics");
        let e2e = o.end_to_end();
        assert_eq!(e2e.len(), END_TO_END.len());
        for m in &e2e {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", workload.name());
        }
        let layers = o.per_layer();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.iter().all(|m| m.value.is_finite()), "{}", workload.name());
        let line = o.reconciliation().expect("a traced repetition");
        assert!(line.contains("unexplained_s"), "{line}");
        for rep in o.reps.iter().filter(|r| r.traced) {
            let sum: f64 = rep.terms.iter().map(|(_, v)| v).sum();
            assert!(sum > 0.0 && sum <= rep.run_s * 1.05, "{}: {:?}", workload.name(), rep.terms);
        }
    }
}

#[test]
fn failing_cells_count_against_the_attempts_without_aborting_the_run() {
    let cases = [
        (Workload::DcFattree, Faults { panic_cell: Some(0), corrupt_cell: None }),
        (Workload::HybridFattree, Faults { panic_cell: Some(1), corrupt_cell: None }),
        (Workload::WirelessSweep, Faults { panic_cell: Some(1), corrupt_cell: None }),
        (Workload::WirelessSweep, Faults { panic_cell: None, corrupt_cell: Some(2) }),
        (Workload::HybridFattree, Faults { panic_cell: None, corrupt_cell: Some(0) }),
    ];
    for (workload, faults) in cases {
        let o = run(workload, faults, "faults");
        let reps = o.reps.len() as u64;
        let cells = o.attempted / reps;
        assert_eq!(o.attempted, reps * cells);
        let want = if faults.panic_cell.is_some() { reps } else { reps - 1 };
        assert_eq!(o.failed, want, "{}: {faults:?} {:?}", workload.name(), o.problems);
        assert!(!o.correct());
        assert!(o.fail_ratio() > 0.0 && o.fail_ratio() < 1.0 || cells == 1);
        assert_eq!(o.end_to_end().len(), END_TO_END.len());
    }
}

#[test]
fn dc_fattree_reproduces_run_datacenter() {
    use mptcp_energy::scenarios::{run_datacenter, CcChoice, DcKind};
    let p = perfbench::dc::DcParams::at(Size::Reduced);
    let mine = perfbench::dc::outputs(&p, 5);
    let theirs = run_datacenter(DcKind::FatTree { k: p.k }, &CcChoice::dts(), &p.options(5));
    assert_eq!(mine.energy_j.to_bits(), theirs.total_energy_j.to_bits());
    assert_eq!(mine.goodput_bps.to_bits(), theirs.aggregate_goodput_bps.to_bits());
    assert_eq!(mine.delivered_bits.to_bits(), theirs.delivered_bits.to_bits());
    assert_eq!(mine.joules_per_gbit.to_bits(), theirs.joules_per_gbit.to_bits());
}

#[test]
fn wireless_cells_reproduce_run_wireless() {
    use mptcp_energy::scenarios::run_wireless;
    let p = perfbench::wireless::WirelessParams::at(Size::Reduced);
    for (_, cc, cell_seed) in p.cells(4) {
        let (goodput, joules, rexmits, timeouts) = perfbench::wireless::outputs(&p, &cc, cell_seed);
        let r = run_wireless(&cc, &p.options(cell_seed));
        assert_eq!(goodput.to_bits(), r.goodput_bps.to_bits());
        assert_eq!(joules.to_bits(), r.energy.joules.to_bits());
        assert_eq!((rexmits, timeouts), (r.rexmits, r.timeouts));
        assert!(rexmits > 0, "the impairments must exercise loss recovery");
    }
}

#[test]
fn digests_are_recorded_for_every_cell_at_the_default_and_held_out_seeds() {
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        assert!(recorded("dc-fattree", seed, "permutation").is_some());
        for (name, _) in perfbench::hybrid::cells() {
            assert!(recorded("hybrid-fattree", seed, name).is_some(), "{name} @ {seed}");
        }
        let p = perfbench::wireless::WirelessParams::at(Size::Full);
        for (name, _, _) in p.cells(seed) {
            assert!(recorded("wireless-sweep", seed, &name).is_some(), "{name} @ {seed}");
        }
    }
}

#[test]
fn benchmark_json_names_the_workloads_and_metrics_this_binary_reports() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let section = |key: &str, next: &str| -> String {
        let start = text.find(&format!("\"{key}\"")).expect(key);
        let end = text[start..].find(&format!("\"{next}\"")).map_or(text.len(), |e| start + e);
        text[start..end].to_owned()
    };
    let workloads = section("workloads", "end_to_end");
    for w in Workload::ALL {
        assert!(workloads.contains(&format!("\"name\": \"{}\"", w.name())), "{}", w.name());
    }
    for (key, next, list) in
        [("end_to_end", "per_layer", &END_TO_END[..]), ("per_layer", "no-such-key", &PER_LAYER[..])]
    {
        let s = section(key, next);
        assert_eq!(s.matches("\"name\":").count(), list.len(), "{key}");
        for (name, unit) in list {
            assert!(
                s.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{key}: {name} [{unit}]"
            );
        }
    }
}
