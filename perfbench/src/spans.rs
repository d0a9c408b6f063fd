//! In-memory span log for traced runs.
//!
//! Every span is a closed interval `[start_ns, end_ns)` against one epoch,
//! with a name, an optional parent span and an id that groups the spans of
//! one job or request. The benchmark records one span around each call it
//! makes into a layer's public function; the simulator's own
//! [`HostReport`] phases are folded in as child spans of the `GpuSim::run`
//! span that produced them. Spans stay in memory and are written out once,
//! when the run ends.
//!
//! Host phases overlap (the L2 sub-phase runs inside the interconnect
//! tick), so per-layer cost comes from *self time*: a span's duration minus
//! the part of its interval that its children cover.

use gmh_types::prof::{HostPhase, HostReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What ran: a public function ("GpuSim::run") or a folded host phase
    /// ("icnt_tick").
    pub name: &'static str,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Workload job or request id shared by related spans.
    pub id: u64,
    /// Calls the span stands for: 1 for a timed call, the phase count for a
    /// folded host phase.
    pub calls: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time and call count summed over every span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus child coverage).
    pub self_ns: u64,
    /// Sum of `calls`.
    pub calls: u64,
}

/// The span log. A disabled log records nothing and costs one branch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// Order in which a serial run's top-level host phases are laid out when
/// folded into child spans (they partition the coordinator lane's time, so
/// the layout order does not change any self time).
const TOP_LEVEL: [HostPhase; 8] = [
    HostPhase::SchedPop,
    HostPhase::FfProbe,
    HostPhase::FfJump,
    HostPhase::IcntTick,
    HostPhase::Telemetry,
    HostPhase::DramTick,
    HostPhase::CoreTick,
    HostPhase::SchedResched,
];

impl SpanLog {
    /// A log timestamping against "now"; records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the epoch for an instant.
    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span from two instants; returns its index when recorded.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let (s, e) = (self.ns(start), self.ns(end));
        Some(self.push(name, s, e.max(s), parent, id, 1))
    }

    /// Opens a span now; close it with [`SpanLog::close`]. Children may be
    /// recorded under it in between.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.ns(Instant::now());
        Some(self.push(name, now, now, parent, id, 1))
    }

    /// Closes a span opened by [`SpanLog::open`] at the current instant.
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            let now = self.ns(Instant::now());
            let s = &mut self.spans[i];
            s.end_ns = now.max(s.start_ns);
        }
    }

    /// Records a span from raw epoch offsets.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        id: u64,
        calls: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
            calls,
        });
        self.spans.len() - 1
    }

    /// Folds a serial run's host-phase totals in as children of the
    /// `GpuSim::run` span at `run`: top-level phases back to back from the
    /// run's start (each as long as its accumulated total), and the L2
    /// sub-phase nested inside the interconnect span, which is where the
    /// profiler measured it. Children are clipped to their parent.
    pub fn fold_host_report(&mut self, run: usize, report: &HostReport) {
        let (run_start, run_end, id) = {
            let s = &self.spans[run];
            (s.start_ns, s.end_ns, s.id)
        };
        let mut cursor = run_start;
        for phase in TOP_LEVEL {
            let calls = report.phase_count(phase);
            if calls == 0 {
                continue;
            }
            let end = (cursor + report.phase_total_ns(phase)).min(run_end);
            let child = self.push(phase.name(), cursor, end, Some(run), id, calls);
            if phase == HostPhase::IcntTick {
                let l2_calls = report.phase_count(HostPhase::L2Tick);
                if l2_calls > 0 {
                    let l2_end = (cursor + report.phase_total_ns(HostPhase::L2Tick)).min(end);
                    self.push(
                        HostPhase::L2Tick.name(),
                        cursor,
                        l2_end,
                        Some(child),
                        id,
                        l2_calls,
                    );
                }
            }
            cursor = end;
        }
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals over the whole log.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
            t.calls += s.calls;
        }
        out
    }

    /// Durations, in nanoseconds, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Tab-separated dump: one header line, then `index name start_ns
    /// end_ns parent id calls self_ns` per span (parent `-` for roots).
    pub fn to_tsv(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::from("index\tname\tstart_ns\tend_ns\tparent\tid\tcalls\tself_ns\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}\t{self_ns}",
                s.name, s.start_ns, s.end_ns, s.id, s.calls
            );
        }
        out
    }
}

/// Self time of each span: its duration minus the length of the union of
/// its children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            let (a, b) = (s.start_ns.max(ps.start_ns), s.end_ns.min(ps.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, ivs)| s.dur_ns() - union_len(ivs))
        .collect()
}

/// Total length covered by a set of half-open intervals.
fn union_len(ivs: &mut [(u64, u64)]) -> u64 {
    ivs.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in ivs.iter() {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, s: u64, e: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: s,
            end_ns: e,
            parent,
            id: 0,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // run [0,100): children [10,40) and [30,60) overlap on [30,40), so
        // they cover 50 ns, not 60; a grandchild never counts against the
        // grandparent directly.
        let spans = vec![
            span("run", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 22, 30, 8]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("p", 10, 20, None), span("c", 5, 25, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 20]);
    }

    #[test]
    fn folded_host_phases_nest_l2_inside_icnt() {
        use gmh_types::prof::HostProfiler;
        use std::time::Duration;
        let mut hp = HostProfiler::new();
        let t0 = hp.epoch();
        let at = |us| t0 + Duration::from_micros(us);
        hp.coord.record_span(HostPhase::IcntTick, at(0), at(40));
        hp.coord.record_span(HostPhase::L2Tick, at(5), at(15));
        hp.coord.record_span(HostPhase::CoreTick, at(40), at(70));
        hp.coord.record_span(HostPhase::CoreTick, at(70), at(80));
        let report = hp.finish();
        let mut log = SpanLog::new(true);
        let run = log.push("GpuSim::run", 1_000, 101_000, None, 7, 1);
        log.fold_host_report(run, &report);
        let t = log.totals();
        // icnt self = 40 - 10 (its L2 child); run self = 100 - 40 - 40.
        assert_eq!(t["icnt_tick"].self_ns, 30_000);
        assert_eq!(t["l2_tick"].self_ns, 10_000);
        assert_eq!(t["core_tick"].self_ns, 40_000);
        assert_eq!(t["core_tick"].calls, 2);
        assert_eq!(t["GpuSim::run"].self_ns, 20_000);
        assert!(log.spans().iter().all(|s| s.id == 7));
    }

    #[test]
    fn folding_clips_phases_that_overrun_the_run_span() {
        use gmh_types::prof::HostProfiler;
        use std::time::Duration;
        let mut hp = HostProfiler::new();
        let t0 = hp.epoch();
        hp.coord
            .record_span(HostPhase::DramTick, t0, t0 + Duration::from_micros(50));
        let report = hp.finish();
        let mut log = SpanLog::new(true);
        let run = log.push("GpuSim::run", 0, 30_000, None, 0, 1);
        log.fold_host_report(run, &report);
        let t = log.totals();
        assert_eq!(t["dram_tick"].total_ns, 30_000);
        assert_eq!(t["GpuSim::run"].self_ns, 0);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        let now = Instant::now();
        assert!(log.record("x", now, now, None, 0).is_none());
        assert!(log.spans().is_empty());
    }

    #[test]
    fn tsv_has_one_line_per_span() {
        let mut log = SpanLog::new(true);
        let p = log.push("pass", 0, 10, None, 1, 1);
        log.push("job", 2, 5, Some(p), 1, 1);
        let tsv = log.to_tsv();
        assert_eq!(tsv.lines().count(), 3);
        assert!(tsv.contains("1\tjob\t2\t5\t0\t1\t1\t3"));
    }
}
