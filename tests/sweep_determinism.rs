//! Pins the sweep runner's central guarantee: running the same cells with
//! `--jobs 1` and `--jobs 8` yields *byte-identical* summaries, including
//! their order. Each cell owns a whole `Simulator`, so thread scheduling can
//! decide only *when* a cell runs, never *what* it computes.
//!
//! Comparison is on `format!("{:?}")` of the full result vector: `f64`'s
//! `Debug` is the shortest round-trip representation, so two outputs render
//! identically iff every float is bit-equal.

use bench_harness::fabric::Fingerprint;
use bench_harness::runner::{run_sweep_jobs, RunSummary, SweepCell};
use congestion::AlgorithmKind;
use mptcp_energy::scenarios::{
    run_two_path_bursty, run_two_path_bursty_traced, BurstyOptions, CcChoice, FlowResult,
};
use obs::TraceEvent;
use std::sync::{Arc, Mutex};

fn cells(seeds: &[u64]) -> Vec<SweepCell<'static, FlowResult>> {
    let choices = [CcChoice::Base(AlgorithmKind::Lia), CcChoice::dts()];
    seeds
        .iter()
        .flat_map(|&seed| {
            choices.into_iter().map(move |cc| {
                let opts = BurstyOptions {
                    seed,
                    transfer_bytes: Some(2_000_000),
                    duration_s: 60.0,
                    ..BurstyOptions::default()
                };
                SweepCell::new(format!("{}-seed{}", cc.label(), seed), seed, move || {
                    run_two_path_bursty(&cc, &opts)
                })
            })
        })
        .collect()
}

fn render(results: &[RunSummary<FlowResult>]) -> String {
    format!("{results:?}")
}

#[test]
fn serial_and_parallel_sweeps_are_byte_identical() {
    let seeds = [1u64, 2, 3];
    let serial = run_sweep_jobs(cells(&seeds), 1);
    let parallel = run_sweep_jobs(cells(&seeds), 8);
    assert_eq!(serial.len(), parallel.len());
    // Labels come back in input order under both job counts.
    let labels: Vec<&str> = serial.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(labels, parallel.iter().map(|r| r.label.as_str()).collect::<Vec<_>>());
    assert_eq!(
        render(&serial),
        render(&parallel),
        "jobs=1 and jobs=8 sweeps must produce byte-identical summaries"
    );
    // And the runs themselves must have done real work.
    for r in &serial {
        assert!(r.output.finish_s.is_some(), "{}: transfer did not finish", r.label);
    }
}

/// The second half of the determinism contract: installing a trace sink must
/// not perturb the simulation. Sinks only observe — they never consume RNG
/// draws or schedule events — so a traced run's `FlowResult` renders
/// byte-identical to the untraced run's.
#[test]
fn tracing_on_and_off_are_byte_identical() {
    let opts = BurstyOptions {
        seed: 11,
        transfer_bytes: Some(2_000_000),
        duration_s: 60.0,
        ..BurstyOptions::default()
    };
    for cc in [CcChoice::Base(AlgorithmKind::Lia), CcChoice::dts()] {
        let untraced = run_two_path_bursty(&cc, &opts);
        let events: Arc<Mutex<Vec<TraceEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let (traced, counters) =
            run_two_path_bursty_traced(&cc, &opts, Some(Box::new(events.clone())));
        assert_eq!(
            format!("{untraced:?}"),
            format!("{traced:?}"),
            "{}: tracing changed the simulation",
            cc.label()
        );
        // The comparison is meaningful only if the sink actually saw the run.
        let n = events.lock().unwrap().len();
        assert!(n > 1_000, "{}: trace sink saw only {n} events", cc.label());
        assert!(
            counters.links.iter().any(|l| l.tx_pkts > 0),
            "{}: counter snapshot is empty",
            cc.label()
        );
    }
}

/// FNV digests ([`Fingerprint`] over the `Debug` renderings of the
/// `FlowResult`, the counter snapshot and the full trace stream) of each
/// `(seed, algorithm)` cell, recorded at commit 35b4ae1 — the last commit
/// with several event-loop engines, where all eight engine combinations
/// were pinned byte-identical to each other. The single event loop must keep
/// reproducing them bit for bit.
const GOLDEN_DIGESTS: [(u64, &str, u64); 4] = [
    (5, "lia", 0xffb0_78b5_e20c_4c75),
    (5, "dts", 0x4440_c141_bd3d_ebb4),
    (23, "lia", 0x6170_3723_9d0e_4bb1),
    (23, "dts", 0x44b2_69c1_b9f8_aa24),
];

/// The third leg of the determinism contract: the event loop's output is
/// pinned against golden digests, across seeds and algorithms, so any
/// change to event order, queueing or packet storage that perturbs a run
/// shows up here.
#[test]
fn event_loop_reproduces_golden_digests() {
    let actual: Vec<(u64, &str, u64)> = GOLDEN_DIGESTS
        .iter()
        .map(|&(seed, label, _)| {
            let cc = [CcChoice::Base(AlgorithmKind::Lia), CcChoice::dts()]
                .into_iter()
                .find(|cc| cc.label() == label)
                .expect("golden digest names a known algorithm");
            let opts = BurstyOptions {
                seed,
                transfer_bytes: Some(2_000_000),
                duration_s: 60.0,
                ..BurstyOptions::default()
            };
            let events: Arc<Mutex<Vec<TraceEvent>>> = Arc::new(Mutex::new(Vec::new()));
            let (result, counters) =
                run_two_path_bursty_traced(&cc, &opts, Some(Box::new(events.clone())));
            let trace = std::mem::take(&mut *events.lock().unwrap());
            assert!(trace.len() > 1_000, "{label}/seed {seed}: only {} trace events", trace.len());
            let digest = Fingerprint::new()
                .str(&format!("{result:?}"))
                .str(&format!("{counters:?}"))
                .str(&format!("{trace:?}"))
                .digest();
            (seed, label, digest)
        })
        .collect();
    let hex = |v: &[(u64, &str, u64)]| -> Vec<String> {
        v.iter().map(|(s, l, d)| format!("({s}, {l:?}, {d:#018x})")).collect()
    };
    assert_eq!(hex(&actual), hex(&GOLDEN_DIGESTS), "sweep outputs drifted from the golden digests");
}
