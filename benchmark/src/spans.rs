//! In-memory spans around the benchmark's calls into each layer,
//! written out at the end as Chrome-trace JSON, and each layer's self
//! time (a span's duration minus the part its children cover).

use clustered_stats::Json;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Identifier, unique within the log.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Layer boundary name (`point`, `sim.run.measure`, ...).
    pub name: &'static str,
    /// Free-form detail (a point's label, a repetition's mode).
    pub detail: String,
    /// Start, clock ns.
    pub start_ns: u64,
    /// End, clock ns.
    pub end_ns: u64,
}

/// The run's spans, in recording order.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

/// Aggregate time under one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Spans with that name.
    pub count: usize,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time (duration not covered by children), seconds.
    pub self_s: f64,
}

impl SpanLog {
    /// Records a span and returns its id.
    pub fn push(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        detail: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            detail: detail.into(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Moves the end of span `id` (a parent recorded before its
    /// children finished).
    pub fn close(&mut self, id: usize, end_ns: u64) {
        self.spans[id].end_ns = end_ns;
    }

    /// Self time per span name, in first-recorded order.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: Vec<SelfTime> = Vec::new();
        for (s, kids) in self.spans.iter().zip(&children) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = covered_ns(s.start_ns, s.end_ns, kids);
            let entry = match out.iter().position(|e| e.name == s.name) {
                Some(i) => &mut out[i],
                None => {
                    out.push(SelfTime {
                        name: s.name,
                        count: 0,
                        total_s: 0.0,
                        self_s: 0.0,
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            entry.count += 1;
            entry.total_s += dur as f64 / 1e9;
            entry.self_s += (dur - covered) as f64 / 1e9;
        }
        out
    }

    /// The log as a Chrome-trace document (`chrome://tracing`,
    /// Perfetto): one complete (`ph: "X"`) event per span, with its id
    /// and parent id in `args`.
    pub fn chrome_trace(&self) -> Json {
        let events: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or(Json::Null, Json::from);
                Json::object()
                    .set("name", s.name)
                    .set("cat", s.name.split('.').next().unwrap_or(s.name))
                    .set("ph", "X")
                    .set("pid", 1u64)
                    .set("tid", 1u64)
                    .set("ts", s.start_ns as f64 / 1e3)
                    .set("dur", s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
                    .set(
                        "args",
                        Json::object()
                            .set("id", s.id)
                            .set("parent", parent)
                            .set("detail", s.detail.as_str()),
                    )
            })
            .collect();
        Json::object()
            .set("traceEvents", Json::Arr(events))
            .set("displayTimeUnit", "ms")
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (a, b) in clipped {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_children_is_counted_once() {
        assert_eq!(covered_ns(0, 100, &[]), 0);
        assert_eq!(covered_ns(0, 100, &[(10, 20), (30, 40)]), 20);
        // Overlapping children are not double-counted.
        assert_eq!(covered_ns(0, 100, &[(10, 50), (20, 60)]), 50);
        // Children are clipped to the parent.
        assert_eq!(covered_ns(10, 20, &[(0, 15), (18, 40)]), 7);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::default();
        let rep = log.push(None, "repetition", "plain", 0, 1_000);
        let a = log.push(Some(rep), "point", "a", 100, 600);
        log.push(Some(rep), "point", "b", 600, 900);
        log.push(Some(a), "sim.run.measure", "", 150, 550);
        let times = log.self_times();
        let by = |n: &str| times.iter().find(|t| t.name == n).cloned().unwrap();
        assert_eq!(
            by("repetition").self_s,
            200e-9,
            "0..100 and 900..1000 uncovered"
        );
        assert_eq!(by("point").count, 2);
        assert!(
            (by("point").self_s - 400e-9).abs() < 1e-15,
            "a: 100 self, b: 300 self"
        );
        assert_eq!(by("sim.run.measure").self_s, 400e-9);
        assert_eq!(times[0].name, "repetition", "first-recorded order");
    }

    #[test]
    fn chrome_trace_carries_ids_and_parents() {
        let mut log = SpanLog::default();
        let root = log.push(None, "workload", "w", 0, 2_000);
        log.push(Some(root), "sim.new", "", 500, 1_500);
        let doc = log.chrome_trace();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let child = &events[1];
        assert_eq!(child.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(child.get("cat").and_then(Json::as_str), Some("sim"));
        assert_eq!(child.get("ts").and_then(Json::as_f64), Some(0.5));
        assert_eq!(child.get("dur").and_then(Json::as_f64), Some(1.0));
        let args = child.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(root as u64));
        let text = doc.to_string_compact();
        assert_eq!(clustered_stats::json::parse(&text).unwrap(), doc);
    }
}
