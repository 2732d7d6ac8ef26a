//! Outside-in instrumentation for the traced run.
//!
//! Nothing here reaches into the program: the benchmark wraps the objects
//! it hands to the program's public API (a congestion controller, a power
//! model, a trace sink) and times each call, and it records coarse spans
//! around the calls it makes itself (set-up, `run_until` slices, epochs,
//! fluid replays, sweep cells, the resume pass). Per-call layers only add
//! to a count and a time; they never emit a span of their own, so a
//! million-call layer costs a million clock-read pairs and no memory.

use congestion::{MultipathCongestionControl, SubflowCc};
use energy_model::{PathLoad, PowerModel};
use obs::{RingSink, TraceEvent, TraceSink};
use std::ops::{Add, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Events the traced run's sink keeps (a flight-recorder tail, the way a
/// harness uses the trace to explain a failure).
const RING_EVENTS: usize = 4096;

fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Call count and accumulated time of one per-call layer. Atomics because
/// wrapped objects live inside a `Send` simulator; each probe is owned by
/// one repetition or one sweep cell, so they are never contended. The
/// values are statistics that publish nothing else, hence `Relaxed`.
#[derive(Debug, Default)]
pub struct Probe {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Probe {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.nanos.fetch_add(nanos_since(t), Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        r
    }

    fn tally(&self) -> Tally {
        Tally {
            calls: self.calls.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of one [`Probe`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds spent inside them, clock reads included.
    pub nanos: u64,
}

impl Add for Tally {
    type Output = Tally;
    fn add(self, o: Tally) -> Tally {
        Tally { calls: self.calls + o.calls, nanos: self.nanos + o.nanos }
    }
}

impl Sub for Tally {
    type Output = Tally;
    fn sub(self, o: Tally) -> Tally {
        Tally { calls: self.calls - o.calls, nanos: self.nanos - o.nanos }
    }
}

/// The per-call probes of one traced unit of work.
#[derive(Debug, Default)]
pub struct Probes {
    on_ack: Probe,
    on_loss: Probe,
    on_timeout: Probe,
    power: Probe,
    sink: Probe,
}

impl Probes {
    /// Current totals of every probe.
    pub fn tallies(&self) -> Tallies {
        Tallies {
            on_ack: self.on_ack.tally(),
            on_loss: self.on_loss.tally(),
            on_timeout: self.on_timeout.tally(),
            power: self.power.tally(),
            sink: self.sink.tally(),
        }
    }
}

/// Snapshot of a [`Probes`]; differences of two snapshots give what a span
/// accumulated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tallies {
    /// `MultipathCongestionControl::on_ack`.
    pub on_ack: Tally,
    /// `MultipathCongestionControl::on_loss`.
    pub on_loss: Tally,
    /// `MultipathCongestionControl::on_timeout`.
    pub on_timeout: Tally,
    /// `PowerModel::power_w`.
    pub power: Tally,
    /// `TraceSink::record`.
    pub sink: Tally,
}

impl Tallies {
    /// All congestion-control callbacks together.
    pub fn cc(&self) -> Tally {
        self.on_ack + self.on_loss + self.on_timeout
    }

    /// Every probed call.
    pub fn all(&self) -> Tally {
        self.cc() + self.power + self.sink
    }
}

impl Add for Tallies {
    type Output = Tallies;
    fn add(self, o: Tallies) -> Tallies {
        Tallies {
            on_ack: self.on_ack + o.on_ack,
            on_loss: self.on_loss + o.on_loss,
            on_timeout: self.on_timeout + o.on_timeout,
            power: self.power + o.power,
            sink: self.sink + o.sink,
        }
    }
}

impl Sub for Tallies {
    type Output = Tallies;
    fn sub(self, o: Tallies) -> Tallies {
        Tallies {
            on_ack: self.on_ack - o.on_ack,
            on_loss: self.on_loss - o.on_loss,
            on_timeout: self.on_timeout - o.on_timeout,
            power: self.power - o.power,
            sink: self.sink - o.sink,
        }
    }
}

/// What one probe costs when the wrapped call does nothing, in host
/// nanoseconds (medians over a few batches of empty probes). Per-call self
/// times are reported net of `inner_ns`; the traced run's reconciliation
/// charges `total_ns` per call to its own `probes_s` term.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProbeCost {
    /// The part that falls inside the probe's own measured interval.
    pub inner_ns: f64,
    /// The whole cost to the caller.
    pub total_ns: f64,
}

impl ProbeCost {
    /// Measures the probe cost on this machine.
    pub fn measure() -> ProbeCost {
        const CALLS: u64 = 20_000;
        let probe = Probe::default();
        let (mut inner, mut total) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            let before = probe.tally();
            let start = Instant::now();
            for i in 0..CALLS {
                std::hint::black_box(probe.time(|| std::hint::black_box(i)));
            }
            total.push(nanos_since(start) as f64 / CALLS as f64);
            inner.push((probe.tally() - before).nanos as f64 / CALLS as f64);
        }
        ProbeCost { inner_ns: crate::median(&inner), total_ns: crate::median(&total) }
    }

    /// Self time of a per-call layer net of the probes' own cost, seconds.
    pub fn net_self_s(&self, t: Tally) -> f64 {
        (t.nanos as f64 - self.inner_ns * t.calls as f64) * 1e-9
    }

    /// Host seconds the caller spent on `calls` probes outside their
    /// measured intervals.
    pub fn outside_s(&self, calls: u64) -> f64 {
        (self.total_ns - self.inner_ns) * calls as f64 * 1e-9
    }

    /// Host seconds `calls` probes cost in all.
    pub fn total_s(&self, calls: u64) -> f64 {
        self.total_ns * calls as f64 * 1e-9
    }
}

/// A congestion controller whose callbacks are counted and timed.
#[derive(Debug)]
pub struct TimedCc {
    inner: Box<dyn MultipathCongestionControl>,
    probes: Arc<Probes>,
}

impl TimedCc {
    /// Wraps `inner`, accumulating into `probes`.
    pub fn wrap(
        inner: Box<dyn MultipathCongestionControl>,
        probes: &Arc<Probes>,
    ) -> Box<dyn MultipathCongestionControl> {
        Box::new(TimedCc { inner, probes: Arc::clone(probes) })
    }
}

impl MultipathCongestionControl for TimedCc {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_ack(&mut self, r: usize, flows: &mut [SubflowCc], newly_acked: u64, ecn_echo: bool) {
        let inner = &mut self.inner;
        self.probes.on_ack.time(|| inner.on_ack(r, flows, newly_acked, ecn_echo));
    }

    fn on_loss(&mut self, r: usize, flows: &mut [SubflowCc]) {
        let inner = &mut self.inner;
        self.probes.on_loss.time(|| inner.on_loss(r, flows));
    }

    fn on_timeout(&mut self, r: usize, flows: &mut [SubflowCc]) {
        let inner = &mut self.inner;
        self.probes.on_timeout.time(|| inner.on_timeout(r, flows));
    }

    fn wants_ecn(&self) -> bool {
        self.inner.wants_ecn()
    }

    fn fresh_box(&self) -> Box<dyn MultipathCongestionControl> {
        TimedCc::wrap(self.inner.fresh_box(), &self.probes)
    }
}

/// A power model whose `power_w` calls are counted and timed.
pub struct TimedPower<'a> {
    inner: &'a mut dyn PowerModel,
    probes: &'a Probes,
}

impl<'a> TimedPower<'a> {
    /// Wraps `inner`, accumulating into `probes`.
    pub fn new(inner: &'a mut dyn PowerModel, probes: &'a Probes) -> TimedPower<'a> {
        TimedPower { inner, probes }
    }
}

impl PowerModel for TimedPower<'_> {
    fn power_w(&mut self, at_s: f64, paths: &[PathLoad]) -> f64 {
        let inner = &mut self.inner;
        self.probes.power.time(|| inner.power_w(at_s, paths))
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// The traced run's trace sink: a bounded ring whose `record` calls are
/// counted and timed.
pub struct TimedSink {
    ring: RingSink,
    probes: Arc<Probes>,
}

impl TimedSink {
    /// A ring sink accumulating into `probes`.
    pub fn boxed(probes: &Arc<Probes>) -> Box<dyn TraceSink> {
        Box::new(TimedSink { ring: RingSink::new(RING_EVENTS), probes: Arc::clone(probes) })
    }
}

impl TraceSink for TimedSink {
    fn record(&mut self, ev: &TraceEvent) {
        let ring = &mut self.ring;
        self.probes.sink.time(|| ring.record(ev));
    }
}

/// One coarse span: a call the benchmark made into the program, with the
/// per-call layer work that happened inside it.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called (`setup`, `slice`, `epoch`, `fluid_replay`, `cell`,
    /// `execute`, `resume`, `energy`).
    pub name: &'static str,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the log's origin.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Per-call layer work accumulated inside the span.
    pub inner: Tallies,
}

/// Spans kept in memory and written out when the benchmark ends.
#[derive(Clone, Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog::since(Instant::now())
    }

    /// An empty log sharing `origin` (sweep cells build their own log on
    /// their worker thread and [`SpanLog::adopt`] it afterwards).
    pub fn since(origin: Instant) -> SpanLog {
        SpanLog { origin, spans: Vec::new() }
    }

    /// The clock origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span named `name` under `parent`; `probes` (if any) supplies
    /// the per-call work done until [`SpanLog::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        probes: Option<&Probes>,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start_ns: nanos_since(self.origin),
            dur_ns: 0,
            inner: probes.map(Probes::tallies).unwrap_or_default(),
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, opened with the same `probes`.
    pub fn close(&mut self, id: usize, probes: Option<&Probes>) {
        let now_ns = nanos_since(self.origin);
        let after = probes.map(Probes::tallies).unwrap_or_default();
        let span = &mut self.spans[id];
        span.dur_ns = now_ns - span.start_ns;
        span.inner = after - span.inner;
    }

    /// Runs `f` inside a span; `f` gets the log and the span's id.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        probes: Option<&Probes>,
        f: impl FnOnce(&mut SpanLog, usize) -> R,
    ) -> R {
        let id = self.open(name, parent, probes);
        let r = f(self, id);
        self.close(id, probes);
        r
    }

    /// Duration of span `id`, seconds.
    pub fn secs(&self, id: usize) -> f64 {
        self.spans[id].dur_ns as f64 * 1e-9
    }

    /// Appends another log's spans, re-parenting its roots under `parent`.
    pub fn adopt(&mut self, other: SpanLog, parent: Option<usize>) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset).or(parent);
            s
        }));
    }

    /// The log as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let t = &s.inner;
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\
                 \"dur_ns\":{},\"cc_calls\":{},\"cc_ns\":{},\"power_calls\":{},\
                 \"power_ns\":{},\"sink_events\":{},\"sink_ns\":{}}}",
                s.name,
                s.start_ns,
                s.dur_ns,
                t.cc().calls,
                t.cc().nanos,
                t.power.calls,
                t.power.nanos,
                t.sink.calls,
                t.sink.nanos
            );
        }
        out
    }
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_collect_the_calls_made_inside_them() {
        let probes = Probes::default();
        let mut log = SpanLog::new();
        log.span("outer", None, Some(&probes), |log, outer| {
            probes.sink.time(|| ());
            log.span("inner", Some(outer), Some(&probes), |_, _| {
                probes.on_ack.time(|| ());
                probes.on_ack.time(|| ());
            });
        });
        let s = log.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].inner.on_ack.calls, 2);
        assert_eq!(s[0].inner.sink.calls, 1);
        assert_eq!(s[1].inner.on_ack.calls, 2);
        assert_eq!(s[1].inner.sink.calls, 0);
        assert!(s[0].dur_ns >= s[1].dur_ns);

        let mut top = SpanLog::since(log.origin());
        top.span("root", None, None, |_, _| ());
        top.adopt(log, Some(0));
        assert_eq!(top.spans()[1].parent, Some(0));
        assert_eq!(top.spans()[2].parent, Some(1));
        assert_eq!(top.to_jsonl().lines().count(), 3);
    }
}
