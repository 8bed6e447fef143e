//! In-memory span recorder for the traced replay: every span carries its
//! name, start, end, parent and the trace id of the replayed iteration. At
//! exit the spans are written as Chrome trace-event JSON and summarised as
//! self time per span name.

use crate::report::json_str;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub trace: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    trace: u64,
}

/// Total and self time of all spans sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTimes {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
        }
    }

    /// Sets the trace id stamped on spans opened from now on.
    pub fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent,
            trace: self.trace,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span. Returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.dur_ns()
    }

    /// Runs `f` inside a span; returns its result and the span's duration
    /// in nanoseconds.
    pub fn span<R>(
        &mut self,
        name: impl Into<String>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, u64) {
        let id = self.open(name);
        let r = f(self);
        let ns = self.close(id);
        (r, ns)
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Total and self time per span name; self time is a span's duration
    /// minus the part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<String, NameTimes> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<String, NameTimes> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name.clone()).or_default();
            e.count += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Self-time summary as a JSON object keyed by span name.
    pub fn self_times_json(&self) -> String {
        let items: Vec<String> = self
            .self_times()
            .iter()
            .map(|(name, t)| {
                format!(
                    "{}:{{\"count\":{},\"total_ms\":{},\"self_ms\":{}}}",
                    json_str(name),
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                )
            })
            .collect();
        format!("{{{}}}", items.join(","))
    }

    /// Chrome trace-event JSON: one complete (`X`) event per span on a
    /// single track, sorted by start (parents before children on ties),
    /// with the trace id and parent span id in `args`.
    pub fn chrome_json(&self) -> String {
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| (self.spans[i].start_ns, u64::MAX - self.spans[i].end_ns, i));
        let mut events = vec![
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"mdbench replay\"}}"
                .to_string(),
        ];
        for i in order {
            let s = &self.spans[i];
            let cat = s.name.split('.').next().unwrap_or("span");
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            events.push(format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"trace\":{},\"span\":{i},\"parent\":{parent}}}}}",
                json_str(&s.name),
                json_str(cat),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.trace,
            ));
        }
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            SpanRec {
                name: "a".into(),
                start_ns: 0,
                end_ns: 100,
                parent: None,
                trace: 0,
            },
            SpanRec {
                name: "b".into(),
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                trace: 0,
            },
            SpanRec {
                name: "c".into(),
                start_ns: 15,
                end_ns: 25,
                parent: Some(1),
                trace: 0,
            },
            SpanRec {
                name: "b".into(),
                start_ns: 50,
                end_ns: 70,
                parent: Some(0),
                trace: 0,
            },
        ];
        let st = t.self_times();
        assert_eq!(
            st["a"],
            NameTimes {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            st["b"],
            NameTimes {
                count: 2,
                total_ns: 50,
                self_ns: 40
            }
        );
        assert_eq!(
            st["c"],
            NameTimes {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
    }

    #[test]
    fn nested_spans_record_parents_and_traces() {
        let mut t = Tracer::new();
        t.set_trace(7);
        let ((), outer) = t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(0));
        });
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s.iter().all(|x| x.trace == 7));
        assert!(outer >= s[1].dur_ns());
        let json = t.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"inner\""));
    }
}
