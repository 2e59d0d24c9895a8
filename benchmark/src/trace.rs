//! Spans recorded by the benchmark around every phase and every call into
//! a layer. Kept in memory, written once at exit; an untraced run records
//! nothing, so end-to-end numbers never pay for them.

use std::cell::RefCell;
use std::time::Instant;

use proust_stm::obs::JsonValue;

struct Span {
    name: String,
    workload: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The span store. Single-threaded: only the orchestrating thread opens
/// spans; the worker threads inside a phase are covered by that phase's
/// span and by the counters the layers export.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: RefCell<Vec<Span>>,
    /// Currently open spans, innermost last: the parent of the next one.
    open: RefCell<Vec<usize>>,
    workload: RefCell<String>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            workload: RefCell::new(String::new()),
        }
    }

    /// Spans opened from now on carry this workload id.
    pub fn set_workload(&self, name: &str) {
        *self.workload.borrow_mut() = name.to_string();
    }

    /// Run `body` inside a span named `name`, child of whichever span is
    /// open on entry.
    pub fn span<T>(&self, name: &str, body: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return body();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                workload: self.workload.borrow().clone(),
                parent: self.open.borrow().last().copied(),
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = body();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Self time per span name: a span's duration minus what its children
    /// cover, summed over spans of that name, in first-seen order.
    pub fn self_times_ns(&self) -> Vec<(String, u64)> {
        let spans = self.spans.borrow();
        let mut covered = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: Vec<(String, u64)> = Vec::new();
        for (span, covered) in spans.iter().zip(covered) {
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            match out.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, total)) => *total += own,
                None => out.push((span.name.clone(), own)),
            }
        }
        out
    }

    pub fn to_json(&self) -> JsonValue {
        let spans = self.spans.borrow();
        JsonValue::obj([(
            "spans",
            JsonValue::Arr(
                spans
                    .iter()
                    .enumerate()
                    .map(|(id, span)| {
                        JsonValue::obj([
                            ("id", JsonValue::u64(id as u64)),
                            ("name", JsonValue::str(&span.name)),
                            ("workload", JsonValue::str(&span.workload)),
                            (
                                "parent",
                                span.parent.map_or(JsonValue::Null, |p| JsonValue::u64(p as u64)),
                            ),
                            ("start_ns", JsonValue::u64(span.start_ns)),
                            ("end_ns", JsonValue::u64(span.end_ns)),
                        ])
                    })
                    .collect(),
            ),
        )])
    }
}

/// `spans` (one run's, numbered from 0) renumbered to start at `base`, so
/// the suite can gather every run's spans into one document.
pub fn renumbered(spans: Vec<JsonValue>, base: u64) -> Vec<JsonValue> {
    let shift =
        |value: &JsonValue| value.as_u64().map_or(JsonValue::Null, |id| JsonValue::u64(id + base));
    spans
        .into_iter()
        .map(|span| match span {
            JsonValue::Obj(fields) => JsonValue::Obj(
                fields
                    .into_iter()
                    .map(|(key, value)| match key.as_str() {
                        "id" | "parent" => (key, shift(&value)),
                        _ => (key, value),
                    })
                    .collect(),
            ),
            other => other,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let spans = Spans::new(true);
        spans.set_workload("w");
        spans.span("outer", || {
            spans.span("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
            spans.span("inner", || ());
        });
        let doc = spans.to_json();
        let list = doc.get("spans").and_then(JsonValue::as_array).unwrap();
        assert_eq!(list.len(), 3);
        assert_eq!(list[0].get("parent"), Some(&JsonValue::Null));
        assert_eq!(list[1].get("parent").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(list[2].get("workload").and_then(JsonValue::as_str), Some("w"));
        let own = spans.self_times_ns();
        assert_eq!(own.len(), 2);
        let total = list[0].get("end_ns").unwrap().as_u64().unwrap()
            - list[0].get("start_ns").unwrap().as_u64().unwrap();
        assert_eq!(own[0].1 + own[1].1, total);
        assert!(own[1].1 >= 5_000_000);
    }

    #[test]
    fn renumbering_shifts_ids_and_parents_only() {
        let spans = Spans::new(true);
        spans.span("outer", || spans.span("inner", || ()));
        let JsonValue::Arr(list) = spans.to_json().get("spans").cloned().unwrap() else { panic!() };
        let moved = renumbered(list, 10);
        assert_eq!(moved[0].get("id").and_then(JsonValue::as_u64), Some(10));
        assert_eq!(moved[0].get("parent"), Some(&JsonValue::Null));
        assert_eq!(moved[1].get("parent").and_then(JsonValue::as_u64), Some(10));
        assert_eq!(moved[1].get("name").and_then(JsonValue::as_str), Some("inner"));
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let spans = Spans::new(false);
        assert_eq!(spans.span("x", || 7), 7);
        assert!(spans.self_times_ns().is_empty());
    }
}
