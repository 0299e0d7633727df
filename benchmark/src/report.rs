//! Metric values, the `name unit value n=<samples>` lines, and the small
//! JSON writer behind the result line, the report and the trace file.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json` (or a diagnostic's name).
    pub name: String,
    /// Unit, as listed there.
    pub unit: &'static str,
    /// The value, with all the digits it was measured to.
    pub value: f64,
    /// Samples behind it.
    pub n: usize,
    /// False when `n` is too small for the percentile it claims.
    pub supported: bool,
}

impl Metric {
    /// A metric backed by `n` samples.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, n: usize) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            n,
            supported: true,
        }
    }

    /// The human-readable line.
    pub fn line(&self) -> String {
        let flag = if self.supported {
            ""
        } else {
            " (fewer than 10 samples beyond this percentile)"
        };
        format!(
            "{} {} {} n={}{flag}",
            self.name,
            self.unit,
            number(self.value),
            self.n
        )
    }
}

/// A JSON number: Rust's shortest round-trip rendering, `null` if not
/// finite.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

/// A JSON string literal.
pub fn string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from already-rendered values.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("{}: {value}", string(key)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The `metrics` object of the result line:
/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                number(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    object(&[
        ("correct", correct.to_string()),
        ("attempted", attempted.max(1).to_string()),
        ("failed", failed.to_string()),
        ("metrics", metrics_object(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics = vec![
            Metric::new("lat_p50_ms", "ms", 1.2034, 100),
            Metric::new("setup_s", "s", 0.8127, 4),
        ];
        assert_eq!(
            result_line(true, 1000, 0, &metrics),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"lat_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn strings_and_numbers_are_valid_json() {
        assert_eq!(string("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(3.0), "3");
    }

    #[test]
    fn metric_lines_carry_unit_and_sample_count() {
        let mut m = Metric::new("lat_p90_ms", "ms", 12.5, 40);
        assert_eq!(m.line(), "lat_p90_ms ms 12.5 n=40");
        m.supported = false;
        assert!(m
            .line()
            .ends_with("(fewer than 10 samples beyond this percentile)"));
    }
}
