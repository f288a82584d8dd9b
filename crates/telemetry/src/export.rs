//! Exporters: Prometheus text exposition, JSON snapshots, and a
//! human-readable rendering for the `jxp metrics` subcommand.
//!
//! The JSON format is this crate's own (the sanctioned dependency set
//! has no serde), so [`TelemetrySnapshot::from_json`] ships a minimal
//! recursive-descent parser for exactly what [`TelemetrySnapshot::to_json`]
//! emits — round-tripping is pinned by tests. Metric names may carry
//! Prometheus-style labels inline (`jxp_node_bytes_in_total{node="3"}`);
//! the exposition groups such series under one `# TYPE` header.

use crate::events::{Event, EventRecord};
use crate::metrics::HistogramSnapshot;
use crate::TelemetrySnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Base metric name without an inline `{label="…"}` suffix.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Format an `f64` so Prometheus and the JSON parser both accept it.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Bare integers are valid JSON numbers too, so this is shared.
        s
    } else if v.is_nan() {
        "0".to_string()
    } else if v > 0.0 {
        "1e308".to_string()
    } else {
        "-1e308".to_string()
    }
}

impl TelemetrySnapshot {
    /// Prometheus text exposition (metrics only; events are not part of
    /// the exposition format).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_type_line = String::new();
        let mut typed = |out: &mut String, name: &str, kind: &str| {
            let line = format!("# TYPE {} {kind}\n", base_name(name));
            if line != last_type_line {
                out.push_str(&line);
                last_type_line = line;
            }
        };
        for (name, value) in &self.metrics.counters {
            typed(&mut out, name, "counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.metrics.gauges {
            typed(&mut out, name, "gauge");
            let _ = writeln!(out, "{name} {}", fmt_f64(*value));
        }
        for (name, h) in &self.metrics.histograms {
            typed(&mut out, name, "histogram");
            let mut cumulative = 0u64;
            for (i, count) in h.counts.iter().enumerate() {
                cumulative += count;
                let le = match h.bounds.get(i) {
                    Some(b) => fmt_f64(*b),
                    None => "+Inf".to_string(),
                };
                let _ = writeln!(
                    out,
                    "{}_bucket{{le=\"{le}\"}} {cumulative}",
                    base_name(name)
                );
            }
            let _ = writeln!(out, "{}_sum {}", base_name(name), fmt_f64(h.sum));
            let _ = writeln!(out, "{}_count {cumulative}", base_name(name));
        }
        out
    }

    /// Serialize the full snapshot (metrics + events) as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_map(&mut out, self.metrics.counters.iter(), |v| v.to_string());
        out.push_str("},\n  \"gauges\": {");
        push_map(&mut out, self.metrics.gauges.iter(), |v| fmt_f64(*v));
        out.push_str("},\n  \"histograms\": {");
        push_map(&mut out, self.metrics.histograms.iter(), |h| {
            format!(
                "{{\"bounds\": [{}], \"counts\": [{}], \"sum\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                h.bounds
                    .iter()
                    .map(|b| fmt_f64(*b))
                    .collect::<Vec<_>>()
                    .join(", "),
                h.counts
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", "),
                fmt_f64(h.sum),
                fmt_f64(h.quantile(0.50)),
                fmt_f64(h.quantile(0.90)),
                fmt_f64(h.quantile(0.99))
            )
        });
        out.push_str("},\n  \"events\": [");
        for (i, r) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&event_to_json(r));
        }
        if !self.events.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parse a snapshot previously produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    /// Returns a description of the first syntax or schema violation.
    pub fn from_json(input: &str) -> Result<TelemetrySnapshot, String> {
        let value = JsonParser::new(input).parse()?;
        let root = value.as_object("top level")?;
        let mut snap = TelemetrySnapshot::default();
        for (name, v) in get_obj(root, "counters")? {
            snap.metrics.counters.insert(name.clone(), v.as_u64(name)?);
        }
        for (name, v) in get_obj(root, "gauges")? {
            snap.metrics.gauges.insert(name.clone(), v.as_f64(name)?);
        }
        for (name, v) in get_obj(root, "histograms")? {
            let h = v.as_object(name)?;
            snap.metrics.histograms.insert(
                name.clone(),
                HistogramSnapshot {
                    bounds: get_arr(h, "bounds")?
                        .iter()
                        .map(|b| b.as_f64("bounds"))
                        .collect::<Result<_, _>>()?,
                    counts: get_arr(h, "counts")?
                        .iter()
                        .map(|c| c.as_u64("counts"))
                        .collect::<Result<_, _>>()?,
                    sum: get_field(h, "sum")?.as_f64("sum")?,
                },
            );
        }
        for v in get_arr(root, "events")? {
            snap.events.push(event_from_json(v)?);
        }
        Ok(snap)
    }

    /// Plain-text table for terminals (`jxp metrics`).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.metrics.counters.is_empty() {
            let _ = writeln!(out, "{:<52} {:>14}", "counter", "total");
            for (name, v) in &self.metrics.counters {
                let _ = writeln!(out, "{name:<52} {v:>14}");
            }
        }
        if !self.metrics.gauges.is_empty() {
            let _ = writeln!(out, "{:<52} {:>14}", "gauge", "value");
            for (name, v) in &self.metrics.gauges {
                let _ = writeln!(out, "{name:<52} {v:>14.6}");
            }
        }
        if !self.metrics.histograms.is_empty() {
            let _ = writeln!(
                out,
                "{:<52} {:>8} {:>12} {:>12} {:>10} {:>10} {:>10}",
                "histogram", "count", "sum", "mean", "p50", "p90", "p99"
            );
            for (name, h) in &self.metrics.histograms {
                let count = h.count();
                let mean = if count > 0 { h.sum / count as f64 } else { 0.0 };
                let _ = writeln!(
                    out,
                    "{name:<52} {count:>8} {:>12.6} {mean:>12.6} {:>10.6} {:>10.6} {:>10.6}",
                    h.sum,
                    h.quantile(0.50),
                    h.quantile(0.90),
                    h.quantile(0.99)
                );
            }
        }
        let _ = writeln!(out, "events retained: {}", self.events.len());
        for r in &self.events {
            let _ = writeln!(out, "  [{:>6}] {:?}", r.seq, r.event);
        }
        out
    }
}

fn push_map<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    render: impl Fn(&V) -> String,
) {
    let mut first = true;
    for (name, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    \"{}\": {}", escape(name), render(v));
    }
    if !first {
        out.push_str("\n  ");
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn event_to_json(r: &EventRecord) -> String {
    let fields = match &r.event {
        Event::MeetingStarted {
            meeting,
            initiator,
            partner,
        } => format!("\"meeting\": {meeting}, \"initiator\": {initiator}, \"partner\": {partner}"),
        Event::MeetingCompleted {
            meeting,
            initiator,
            partner,
            bytes,
        } => format!(
            "\"meeting\": {meeting}, \"initiator\": {initiator}, \"partner\": {partner}, \
             \"bytes\": {bytes}"
        ),
        Event::MeetingFailed {
            meeting,
            initiator,
            partner,
        } => format!("\"meeting\": {meeting}, \"initiator\": {initiator}, \"partner\": {partner}"),
        Event::RoundExecuted { round, pairs } => {
            format!("\"round\": {round}, \"pairs\": {pairs}")
        }
        Event::PrIterated {
            iteration,
            residual,
        } => format!(
            "\"iteration\": {iteration}, \"residual\": {}",
            fmt_f64(*residual)
        ),
        Event::Churn { peer, joined } => format!("\"peer\": {peer}, \"joined\": {joined}"),
    };
    format!(
        "{{\"seq\": {}, \"type\": \"{}\", {fields}}}",
        r.seq,
        r.event.kind()
    )
}

fn event_from_json(v: &JsonValue) -> Result<EventRecord, String> {
    let obj = v.as_object("event")?;
    let seq = get_field(obj, "seq")?.as_u64("seq")?;
    let kind = get_field(obj, "type")?.as_str("type")?;
    let u = |key: &str| -> Result<u64, String> { get_field(obj, key)?.as_u64(key) };
    let event = match kind {
        "meeting_started" => Event::MeetingStarted {
            meeting: u("meeting")?,
            initiator: u("initiator")?,
            partner: u("partner")?,
        },
        "meeting_completed" => Event::MeetingCompleted {
            meeting: u("meeting")?,
            initiator: u("initiator")?,
            partner: u("partner")?,
            bytes: u("bytes")?,
        },
        "meeting_failed" => Event::MeetingFailed {
            meeting: u("meeting")?,
            initiator: u("initiator")?,
            partner: u("partner")?,
        },
        // Unknown-field-tolerant: files written before the `threads`
        // field was dropped still parse (the field is ignored).
        "round_executed" => Event::RoundExecuted {
            round: u("round")?,
            pairs: u("pairs")?,
        },
        "pr_iterated" => Event::PrIterated {
            iteration: u("iteration")?,
            residual: get_field(obj, "residual")?.as_f64("residual")?,
        },
        "churn" => Event::Churn {
            peer: u("peer")?,
            joined: get_field(obj, "joined")?.as_bool("joined")?,
        },
        other => return Err(format!("unknown event type {other:?}")),
    };
    Ok(EventRecord { seq, event })
}

// ---- minimal JSON value model + recursive-descent parser ----

#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Object(BTreeMap<String, JsonValue>),
    Array(Vec<JsonValue>),
    String(String),
    Number(f64),
    Bool(bool),
    Null,
}

impl JsonValue {
    fn as_object(&self, what: &str) -> Result<&BTreeMap<String, JsonValue>, String> {
        match self {
            JsonValue::Object(m) => Ok(m),
            other => Err(format!("{what}: expected object, got {other:?}")),
        }
    }

    fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            JsonValue::Number(n) => Ok(*n),
            other => Err(format!("{what}: expected number, got {other:?}")),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, String> {
        let n = self.as_f64(what)?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!("{what}: expected unsigned integer, got {n}"));
        }
        Ok(n as u64)
    }

    fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            JsonValue::String(s) => Ok(s),
            other => Err(format!("{what}: expected string, got {other:?}")),
        }
    }

    fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(format!("{what}: expected bool, got {other:?}")),
        }
    }
}

fn get_field<'a>(obj: &'a BTreeMap<String, JsonValue>, key: &str) -> Result<&'a JsonValue, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn get_obj<'a>(
    obj: &'a BTreeMap<String, JsonValue>,
    key: &str,
) -> Result<&'a BTreeMap<String, JsonValue>, String> {
    get_field(obj, key)?.as_object(key)
}

fn get_arr<'a>(obj: &'a BTreeMap<String, JsonValue>, key: &str) -> Result<&'a [JsonValue], String> {
    match get_field(obj, key)? {
        JsonValue::Array(a) => Ok(a),
        other => Err(format!("{key}: expected array, got {other:?}")),
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(input: &'a str) -> Self {
        JsonParser {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn parse(mut self) -> Result<JsonValue, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing input at byte {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek()? != c {
            return Err(format!("expected {:?} at byte {}", c as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(JsonValue::String(self.string()?)),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'n' => self.literal("null", JsonValue::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected {word:?} at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            map.insert(key, self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                c => return Err(format!("expected ',' or '}}', got {:?}", c as char)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                c => return Err(format!("expected ',' or ']', got {:?}", c as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                c => {
                    // Re-assemble multi-byte UTF-8 sequences.
                    let start = self.pos - 1;
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or("truncated UTF-8 sequence")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8")?);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected a value at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(JsonValue::Number)
            .ok_or_else(|| format!("malformed number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetryHub;

    fn sample() -> TelemetrySnapshot {
        let hub = TelemetryHub::new();
        hub.registry().counter("jxp_meetings_total").add(42);
        hub.registry()
            .counter("jxp_node_bytes_in_total{node=\"0\"}")
            .add(7);
        hub.registry()
            .counter("jxp_node_bytes_in_total{node=\"1\"}")
            .add(9);
        hub.registry().gauge("pagerank_residual").set(1.25e-7);
        let h = hub.registry().histogram("round_width", &[1.0, 2.0, 4.0]);
        h.observe(1.0);
        h.observe(3.0);
        h.observe(9.0);
        hub.events().record(Event::MeetingStarted {
            meeting: 0,
            initiator: 2,
            partner: 5,
        });
        hub.events().record(Event::MeetingCompleted {
            meeting: 0,
            initiator: 2,
            partner: 5,
            bytes: 1234,
        });
        hub.events().record(Event::PrIterated {
            iteration: 3,
            residual: 0.5,
        });
        hub.events()
            .record(Event::RoundExecuted { round: 1, pairs: 4 });
        hub.events().record(Event::MeetingFailed {
            meeting: 1,
            initiator: 5,
            partner: 2,
        });
        hub.events().record(Event::Churn {
            peer: 9,
            joined: false,
        });
        hub.snapshot()
    }

    #[test]
    fn json_roundtrips_exactly() {
        let snap = sample();
        let json = snap.to_json();
        let back = TelemetrySnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        // Stability: serializing the parse reproduces the document.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = TelemetrySnapshot::default();
        let back = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE jxp_meetings_total counter"));
        assert!(text.contains("jxp_meetings_total 42"));
        // Labelled series share one TYPE header for the base name.
        assert_eq!(
            text.matches("# TYPE jxp_node_bytes_in_total counter")
                .count(),
            1
        );
        assert!(text.contains("jxp_node_bytes_in_total{node=\"0\"} 7"));
        assert!(text.contains("jxp_node_bytes_in_total{node=\"1\"} 9"));
        assert!(text.contains("# TYPE pagerank_residual gauge"));
        // Histogram buckets are cumulative and end at +Inf.
        assert!(text.contains("round_width_bucket{le=\"1\"} 1"));
        assert!(text.contains("round_width_bucket{le=\"4\"} 2"));
        assert!(text.contains("round_width_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("round_width_count 3"));
        assert!(text.contains("round_width_sum 13"));
    }

    #[test]
    fn table_renders_all_sections() {
        let table = sample().render_table();
        assert!(table.contains("jxp_meetings_total"));
        assert!(table.contains("pagerank_residual"));
        assert!(table.contains("round_width"));
        assert!(table.contains("events retained: 6"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(TelemetrySnapshot::from_json("").is_err());
        assert!(TelemetrySnapshot::from_json("{").is_err());
        assert!(TelemetrySnapshot::from_json("[]").is_err());
        assert!(TelemetrySnapshot::from_json("{\"counters\": {}} trailing").is_err());
        assert!(TelemetrySnapshot::from_json(
            "{\"counters\": {}, \"gauges\": {}, \"histograms\": {}, \
             \"events\": [{\"seq\": 0, \"type\": \"nope\"}]}"
        )
        .is_err());
    }

    #[test]
    fn escaped_metric_names_survive() {
        let hub = TelemetryHub::new();
        hub.registry().counter("weird{path=\"a\\b\"}").add(1);
        let snap = hub.snapshot();
        let back = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn non_finite_values_are_clamped() {
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(f64::INFINITY), "1e308");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "-1e308");
    }

    #[test]
    fn empty_registry_renders_everywhere() {
        let snap = TelemetryHub::new().snapshot();
        // Prometheus: no metrics means no exposition lines at all.
        assert_eq!(snap.to_prometheus(), "");
        // Table: only the (empty) events footer.
        assert_eq!(snap.render_table(), "events retained: 0\n");
        // JSON: empty but schema-complete, and it round-trips.
        let json = snap.to_json();
        for key in ["\"counters\"", "\"gauges\"", "\"histograms\"", "\"events\""] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        assert_eq!(TelemetrySnapshot::from_json(&json).unwrap(), snap);
    }

    #[test]
    fn non_finite_gauges_survive_both_exporters() {
        let hub = TelemetryHub::new();
        hub.registry().gauge("g_nan").set(f64::NAN);
        hub.registry().gauge("g_pinf").set(f64::INFINITY);
        hub.registry().gauge("g_ninf").set(f64::NEG_INFINITY);
        let snap = hub.snapshot();

        // Prometheus exposition clamps instead of emitting NaN/inf,
        // which Prometheus would accept but downstream math would not.
        let prom = snap.to_prometheus();
        assert!(prom.contains("g_nan 0\n"), "{prom}");
        assert!(prom.contains("g_pinf 1e308\n"), "{prom}");
        assert!(prom.contains("g_ninf -1e308\n"), "{prom}");
        assert!(
            !prom.contains("NaN") && !prom.contains(" inf") && !prom.contains(" -inf"),
            "{prom}"
        );

        // JSON stays parseable: the clamped values come back as numbers.
        let back = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.metrics.gauges["g_nan"], 0.0);
        assert_eq!(back.metrics.gauges["g_pinf"], 1e308);
        assert_eq!(back.metrics.gauges["g_ninf"], -1e308);
    }

    #[test]
    fn non_finite_histogram_sum_stays_parseable() {
        let hub = TelemetryHub::new();
        let h = hub.registry().histogram("h", &[1.0]);
        h.observe(f64::INFINITY); // lands in +Inf bucket, poisons the sum
        let snap = hub.snapshot();
        let back = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.metrics.histograms["h"].counts, vec![0, 1]);
        assert_eq!(back.metrics.histograms["h"].sum, 1e308);
    }

    #[test]
    fn from_json_ignores_unknown_fields() {
        // Forward compatibility: a newer writer may add fields; a reader
        // of today's schema takes what it knows and ignores the rest.
        let json = "{\"counters\": {\"c\": 1}, \"gauges\": {}, \
                    \"histograms\": {\"h\": {\"bounds\": [1], \"counts\": [0, 2], \
                    \"sum\": 3, \"p99\": 4.5}}, \"events\": \
                    [{\"seq\": 0, \"type\": \"churn\", \"peer\": 1, \
                    \"joined\": true, \"region\": \"eu\"}], \
                    \"schema_version\": 7}";
        let snap = TelemetrySnapshot::from_json(json).unwrap();
        assert_eq!(snap.metrics.counters["c"], 1);
        assert_eq!(snap.metrics.histograms["h"].counts, vec![0, 2]);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(
            snap.events[0].event,
            Event::Churn {
                peer: 1,
                joined: true
            }
        );
    }

    #[test]
    fn from_json_rejects_missing_required_fields() {
        // Top-level sections are mandatory…
        let no_counters = "{\"gauges\": {}, \"histograms\": {}, \"events\": []}";
        assert!(TelemetrySnapshot::from_json(no_counters)
            .unwrap_err()
            .contains("counters"));
        // …as are histogram members…
        let no_sum = "{\"counters\": {}, \"gauges\": {}, \"histograms\": \
                      {\"h\": {\"bounds\": [], \"counts\": [0]}}, \"events\": []}";
        assert!(TelemetrySnapshot::from_json(no_sum)
            .unwrap_err()
            .contains("sum"));
        // …and event discriminants/payload fields.
        let no_type = "{\"counters\": {}, \"gauges\": {}, \"histograms\": {}, \
                       \"events\": [{\"seq\": 0}]}";
        assert!(TelemetrySnapshot::from_json(no_type)
            .unwrap_err()
            .contains("type"));
        let no_peer = "{\"counters\": {}, \"gauges\": {}, \"histograms\": {}, \
                       \"events\": [{\"seq\": 0, \"type\": \"churn\", \
                       \"joined\": true}]}";
        assert!(TelemetrySnapshot::from_json(no_peer)
            .unwrap_err()
            .contains("peer"));
    }

    /// The metric family `jxp-segstore` registers (telemetry cannot
    /// depend on that crate, so the names are mirrored here; the
    /// segstore side pins them from its own tests). The exporters must
    /// render the whole family — counters, gauges and the decode
    /// histogram — through every output format.
    fn segstore_sample() -> TelemetrySnapshot {
        let hub = TelemetryHub::new();
        hub.registry().counter("jxp_segstore_hits_total").add(120);
        hub.registry().counter("jxp_segstore_misses_total").add(30);
        hub.registry()
            .counter("jxp_segstore_evictions_total")
            .add(22);
        hub.registry()
            .counter("jxp_segstore_read_bytes_total")
            .add(7_340_032);
        hub.registry()
            .gauge("jxp_segstore_resident_bytes")
            .set(524_288.0);
        hub.registry()
            .gauge("jxp_segstore_resident_segments")
            .set(8.0);
        let h = hub
            .registry()
            .histogram("jxp_segstore_decode_seconds", &[0.001, 0.01, 0.1]);
        h.observe(0.0004);
        h.observe(0.003);
        h.observe(0.25);
        hub.snapshot()
    }

    #[test]
    fn segstore_metrics_render_as_table_and_prometheus() {
        let snap = segstore_sample();
        let table = snap.render_table();
        for name in [
            "jxp_segstore_hits_total",
            "jxp_segstore_misses_total",
            "jxp_segstore_evictions_total",
            "jxp_segstore_read_bytes_total",
            "jxp_segstore_resident_bytes",
            "jxp_segstore_resident_segments",
            "jxp_segstore_decode_seconds",
        ] {
            assert!(table.contains(name), "{name} missing from table");
        }
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE jxp_segstore_hits_total counter"));
        assert!(prom.contains("jxp_segstore_hits_total 120"));
        assert!(prom.contains("# TYPE jxp_segstore_resident_bytes gauge"));
        assert!(prom.contains("jxp_segstore_resident_bytes 524288"));
        assert!(prom.contains("# TYPE jxp_segstore_decode_seconds histogram"));
        assert!(prom.contains("jxp_segstore_decode_seconds_bucket{le=\"0.001\"} 1"));
        assert!(prom.contains("jxp_segstore_decode_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(prom.contains("jxp_segstore_decode_seconds_count 3"));
    }

    #[test]
    fn segstore_metrics_roundtrip_through_json() {
        let snap = segstore_sample();
        let back = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.metrics.counters["jxp_segstore_hits_total"], 120);
        assert_eq!(back.metrics.gauges["jxp_segstore_resident_segments"], 8.0);
        assert_eq!(
            back.metrics.histograms["jxp_segstore_decode_seconds"].count(),
            3
        );
        // Tolerance: a snapshot carrying a different subset of the
        // segstore series, and a histogram field `to_json` never wrote
        // (`p999`), still parses — series are plain map entries and
        // the reader takes only the histogram fields it needs.
        let future = "{\"counters\": {\"jxp_segstore_hits_total\": 5, \
                      \"jxp_segstore_evictions_total\": 2}, \"gauges\": {}, \
                      \"histograms\": {\"jxp_segstore_decode_seconds\": \
                      {\"bounds\": [0.01], \"counts\": [1, 0], \"sum\": 0.002, \
                      \"p50\": 0.002, \"p999\": 0.01}}, \"events\": []}";
        let parsed = TelemetrySnapshot::from_json(future).unwrap();
        assert_eq!(parsed.metrics.counters["jxp_segstore_hits_total"], 5);
        assert_eq!(parsed.metrics.counters["jxp_segstore_evictions_total"], 2);
        assert_eq!(
            parsed.metrics.histograms["jxp_segstore_decode_seconds"].sum,
            0.002
        );
    }

    #[test]
    fn from_json_rejects_wrongly_typed_known_fields() {
        let bad_counter =
            "{\"counters\": {\"c\": \"one\"}, \"gauges\": {}, \"histograms\": {}, \"events\": []}";
        assert!(TelemetrySnapshot::from_json(bad_counter).is_err());
        let negative_counter =
            "{\"counters\": {\"c\": -1}, \"gauges\": {}, \"histograms\": {}, \"events\": []}";
        assert!(TelemetrySnapshot::from_json(negative_counter).is_err());
    }
}
