//! The deterministic payload: counters, gauges, and the canonical
//! report serialization.

use crate::json::escape;
use std::collections::BTreeMap;

/// A mergeable bag of deterministic metrics.
///
/// Counters merge by addition and gauges by maximum, so
/// [`merge`](MetricsFrame::merge) is commutative and associative — the
/// aggregate over any number of worker-local frames is independent of
/// the merge order (checked by the `vc2_props` property suite). Wall
/// times never enter a frame; they only appear on span-close *events*.
///
/// # Examples
///
/// ```
/// use sbif_trace::MetricsFrame;
///
/// let mut a = MetricsFrame::default();
/// a.add("checks", 2);
/// a.gauge_max("peak", 10);
/// let mut b = MetricsFrame::default();
/// b.add("checks", 3);
/// b.gauge_max("peak", 7);
/// a.merge(&b);
/// assert_eq!(a.counter("checks"), 5);
/// assert_eq!(a.gauge("peak"), Some(10));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsFrame {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
}

impl MetricsFrame {
    /// Adds `delta` to the counter `name` (creating it at 0).
    pub fn add(&mut self, name: &str, delta: u64) {
        if delta != 0 {
            *self.counters.entry(name.to_string()).or_insert(0) += delta;
        } else {
            self.counters.entry(name.to_string()).or_insert(0);
        }
    }

    /// Raises the gauge `name` to at least `value`.
    pub fn gauge_max(&mut self, name: &str, value: u64) {
        let g = self.gauges.entry(name.to_string()).or_insert(0);
        *g = (*g).max(value);
    }

    /// The current value of a counter (0 if never added to).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The current value of a gauge, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Folds `other` into `self`: counters add, gauges take the max.
    pub fn merge(&mut self, other: &MetricsFrame) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(0);
            *g = (*g).max(*v);
        }
    }

    /// Freezes the frame into a report.
    pub fn into_report(self) -> MetricsReport {
        MetricsReport { counters: self.counters, gauges: self.gauges }
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

/// The frozen, canonical metrics summary of a pipeline run.
///
/// Serialization is byte-stable: keys are sorted (`BTreeMap`), values
/// are unsigned integers, and the layout is fixed — two runs that did
/// the same logical work produce identical bytes regardless of wall
/// time, worker count, or machine. This is what the golden snapshot
/// tests compare.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsReport {
    /// Monotonic event counts (merged by addition).
    pub counters: BTreeMap<String, u64>,
    /// High-water marks (merged by maximum).
    pub gauges: BTreeMap<String, u64>,
}

impl MetricsReport {
    /// The value of a counter (0 if never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The value of a gauge, if recorded.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// The canonical multi-line JSON document (golden-file format),
    /// terminated by a newline.
    ///
    /// # Examples
    ///
    /// ```
    /// use sbif_trace::MetricsReport;
    ///
    /// let r = MetricsReport::default();
    /// assert!(r.to_json().starts_with("{\n  \"schema\": \"sbif-metrics-v1\""));
    /// ```
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n  \"schema\": \"sbif-metrics-v1\",\n  \"counters\": {");
        Self::write_map(&mut s, &self.counters, "  ");
        s.push_str(",\n  \"gauges\": {");
        Self::write_map(&mut s, &self.gauges, "  ");
        s.push_str("\n}\n");
        s
    }

    /// The same content as a single-line JSON object (for NDJSON
    /// embedding, no trailing newline).
    pub fn to_inline_json(&self) -> String {
        let one = |map: &BTreeMap<String, u64>| {
            map.iter()
                .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\"counters\": {{{}}}, \"gauges\": {{{}}}}}",
            one(&self.counters),
            one(&self.gauges)
        )
    }

    fn write_map(s: &mut String, map: &BTreeMap<String, u64>, indent: &str) {
        if map.is_empty() {
            s.push('}');
            return;
        }
        for (i, (k, v)) in map.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n{indent}  \"{}\": {v}", escape(k)));
        }
        s.push_str(&format!("\n{indent}}}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn merge_adds_counters_and_maxes_gauges() {
        let mut a = MetricsFrame::default();
        a.add("c", 1);
        a.gauge_max("g", 5);
        let mut b = MetricsFrame::default();
        b.add("c", 2);
        b.add("only_b", 4);
        b.gauge_max("g", 3);
        b.gauge_max("h", 9);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.counter("only_b"), 4);
        assert_eq!(a.gauge("g"), Some(5));
        assert_eq!(a.gauge("h"), Some(9));
    }

    #[test]
    fn zero_add_registers_the_counter() {
        let mut f = MetricsFrame::default();
        f.add("seen", 0);
        let report = f.into_report();
        assert!(report.counters.contains_key("seen"));
        assert_eq!(report.counter("seen"), 0);
    }

    #[test]
    fn report_json_is_valid_and_sorted() {
        let mut f = MetricsFrame::default();
        f.add("z.last", 1);
        f.add("a.first", 2);
        f.gauge_max("m.peak", 3);
        let json = f.into_report().to_json();
        let v = parse(&json).expect("canonical JSON parses");
        let o = v.as_object().unwrap();
        assert_eq!(o["schema"], Value::Str("sbif-metrics-v1".to_string()));
        let idx_a = json.find("a.first").unwrap();
        let idx_z = json.find("z.last").unwrap();
        assert!(idx_a < idx_z, "keys must be sorted");
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn empty_report_serializes_cleanly() {
        let json = MetricsReport::default().to_json();
        parse(&json).expect("valid");
        let inline = MetricsReport::default().to_inline_json();
        parse(&inline).expect("valid inline");
    }
}
