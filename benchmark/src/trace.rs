//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing inside the program is instrumented: a span covers one call
//! from the benchmark into a layer's public function, so a layer's time
//! includes whatever it calls below itself. Spans stay in memory and are
//! written out once, when the run ends.

use crate::json::Json;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One call into a layer. `name` is `<layer>.<function>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Meeting, query or repetition number; spans of one request share it.
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The part of `name` before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder for the benchmark's one driver thread.
pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: Cell::new(enabled),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.set(enabled);
    }

    /// Run `f` inside a span (or just run it, when tracing is off).
    pub fn span<R>(&self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let index = spans.len() as u32;
            spans.push(Span {
                name,
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                id,
            });
            index
        };
        self.open.borrow_mut().push(index);
        let result = f();
        self.open.borrow_mut().pop();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.borrow_mut()[index as usize].end_ns = end;
        result
    }

    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }

    /// The trace as a JSON document.
    pub fn to_json(&self) -> Json {
        let spans = self.spans.borrow();
        Json::obj([
            ("unit", Json::str("ns")),
            (
                "spans",
                Json::Arr(
                    spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::str(s.name)),
                                ("start", Json::Num(s.start_ns as f64)),
                                ("end", Json::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                                ),
                                ("id", Json::Num(s.id as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let t = Tracer::new(true);
        t.span("a.outer", 1, || {
            t.span("b.inner", 1, || ());
            t.span("b.inner", 2, || ());
        });
        t.span("a.outer", 3, || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!(spans[1].layer(), "b");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a.b", 0, || 7), 7);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.span("a.b", 0, || ());
        assert_eq!(t.spans().len(), 1);
    }
}
