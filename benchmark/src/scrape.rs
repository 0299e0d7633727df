//! Reads the server's own account of a run: the Prometheus text exposition
//! behind the `METRICS` verb, quantiles of its cumulative histograms, and
//! the `srv.*` metrics taken from them.

/// One sample line of an exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Series name, e.g. `pm_ingest_stage_duration_seconds_bucket`.
    pub name: String,
    /// Labels in the order written.
    pub labels: Vec<(String, String)>,
    /// The value; `None` when the line has none (the golden skeletons in
    /// `tests/tests/golden` strip values).
    pub value: Option<f64>,
}

impl Sample {
    /// The value of label `key`.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed exposition.
#[derive(Debug, Default)]
pub struct Exposition {
    /// Sample lines in order; `# HELP` / `# TYPE` lines are skipped.
    pub samples: Vec<Sample>,
}

impl Exposition {
    /// Parses Prometheus text format 0.0.4. Lines that are not well formed
    /// are reported, not skipped.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut samples = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            samples.push(parse_sample(line).ok_or_else(|| format!("bad sample line: {line}"))?);
        }
        Ok(Self { samples })
    }

    /// The value of the first series called `name` whose labels include all
    /// of `labels`.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.matching(name, labels).find_map(|s| s.value)
    }

    fn matching<'a>(
        &'a self,
        name: &'a str,
        labels: &'a [(&'a str, &'a str)],
    ) -> impl Iterator<Item = &'a Sample> + 'a {
        self.samples
            .iter()
            .filter(move |s| s.name == name && labels.iter().all(|(k, v)| s.label(k) == Some(*v)))
    }

    /// Quantile `q` (0..1) of histogram `name` (without `_bucket`) among
    /// the series carrying `labels`: the upper edge, in the histogram's
    /// own unit, of the first cumulative bucket holding at least `q` of
    /// the observations. `None` when the histogram is absent or empty.
    pub fn histogram_quantile(&self, name: &str, labels: &[(&str, &str)], q: f64) -> Option<f64> {
        let bucket_name = format!("{name}_bucket");
        let mut buckets: Vec<(f64, f64)> = self
            .matching(&bucket_name, labels)
            .filter_map(|s| {
                let edge = match s.label("le")? {
                    "+Inf" => f64::INFINITY,
                    le => le.parse().ok()?,
                };
                Some((edge, s.value?))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total = buckets.last()?.1;
        if total <= 0.0 {
            return None;
        }
        let rank = (q * total).ceil().max(1.0);
        let mut finite_edge = 0.0;
        for (edge, cumulative) in buckets {
            if edge.is_finite() {
                finite_edge = edge;
            }
            if cumulative >= rank {
                // Observations past the last finite edge report that edge.
                return Some(if edge.is_finite() { edge } else { finite_edge });
            }
        }
        None
    }
}

fn parse_sample(line: &str) -> Option<Sample> {
    let name_end = line
        .find(|c: char| c == '{' || c.is_whitespace())
        .unwrap_or(line.len());
    let name = &line[..name_end];
    if name.is_empty() {
        return None;
    }
    let mut rest = &line[name_end..];
    let mut labels = Vec::new();
    if let Some(inner) = rest.strip_prefix('{') {
        let mut chars = inner.char_indices();
        let mut key = String::new();
        let close = loop {
            let (i, c) = chars.next()?;
            match c {
                '}' => break i,
                ',' | ' ' => {}
                '=' => {
                    if chars.next()?.1 != '"' {
                        return None;
                    }
                    let mut value = String::new();
                    loop {
                        match chars.next()?.1 {
                            '\\' => value.push(match chars.next()?.1 {
                                'n' => '\n',
                                other => other,
                            }),
                            '"' => break,
                            other => value.push(other),
                        }
                    }
                    labels.push((std::mem::take(&mut key), value));
                }
                other => key.push(other),
            }
        };
        rest = &inner[close + 1..];
    }
    let value = match rest.split_whitespace().next() {
        None => None,
        Some("+Inf") => Some(f64::INFINITY),
        Some(text) => Some(text.parse().ok()?),
    };
    Some(Sample {
        name: name.to_owned(),
        labels,
        value,
    })
}

/// The stage histogram's family name.
pub const STAGE_HISTOGRAM: &str = "pm_ingest_stage_duration_seconds";

/// The five ingest stages it splits, with the metric each median feeds.
pub const STAGES: [(&str, &str); 5] = [
    ("parse", "srv.stage_parse_p50_us"),
    ("lock_hold", "srv.stage_lock_hold_p50_us"),
    ("queue_wait", "srv.stage_queue_wait_p50_us"),
    ("shard_apply", "srv.stage_shard_apply_p50_us"),
    ("fan_in", "srv.stage_fan_in_p50_us"),
];

const COMPARISONS: &str = "pm_comparisons_total";
const NOTIFICATIONS: &str = "pm_notifications_total";
const INGESTED: &str = "pm_objects_ingested_total";
const HISTORY_OBJECTS: &str = "pm_history_objects";
const DISTINCT_PREFERENCES: &str = "pm_distinct_preferences";

/// `srv.*`: the child server's own account of the round, from its `STATS`
/// line and `METRICS` exposition, as `(metric, value, samples)`.
pub fn server_metrics(
    stats: &str,
    exposition: &str,
) -> Result<Vec<(&'static str, f64, usize)>, String> {
    let exposition = Exposition::parse(exposition)?;
    let mut out = Vec::new();
    for (stage, metric) in STAGES {
        let labels = [("stage", stage)];
        let p50 = exposition
            .histogram_quantile(STAGE_HISTOGRAM, &labels, 0.5)
            .ok_or_else(|| format!("no {STAGE_HISTOGRAM}{{stage={stage}}} observations"))?;
        let count = exposition
            .value(&format!("{STAGE_HISTOGRAM}_count"), &labels)
            .unwrap_or(0.0);
        out.push((metric, p50 * 1e6, count as usize));
    }
    let value = |name: &str| {
        exposition
            .value(name, &[])
            .ok_or_else(|| format!("{name} is not in the exposition"))
    };
    let ingested = value(INGESTED)?.max(1.0);
    out.push((
        "srv.cmp_per_obj",
        value(COMPARISONS)? / ingested,
        ingested as usize,
    ));
    out.push((
        "srv.notifications_per_obj",
        value(NOTIFICATIONS)? / ingested,
        ingested as usize,
    ));
    out.push(("srv.history_objects", value(HISTORY_OBJECTS)?, 1));
    out.push(("srv.distinct_preferences", value(DISTINCT_PREFERENCES)?, 1));
    let bytes_per_user = crate::wire::field(stats, "bytes_per_user")
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or("STATS has no bytes_per_user")?;
    out.push(("srv.bytes_per_user", bytes_per_user, 1));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_values_labels_and_histograms() {
        let text = "\
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{verb=\"ingest\",le=\"0.001\"} 2
lat_seconds_bucket{verb=\"ingest\",le=\"0.002\"} 9
lat_seconds_bucket{verb=\"ingest\",le=\"0.004\"} 10
lat_seconds_bucket{verb=\"ingest\",le=\"+Inf\"} 10
lat_seconds_sum{verb=\"ingest\"} 0.0153
lat_seconds_count{verb=\"ingest\"} 10
lat_seconds_bucket{verb=\"query\",le=\"+Inf\"} 0
pm_build_info{backend=\"ftv:0.4\",shards=\"2\"} 1
pm_comparisons_total 123456
";
        let exposition = Exposition::parse(text).unwrap();
        assert_eq!(
            exposition.value("pm_comparisons_total", &[]),
            Some(123456.0)
        );
        assert_eq!(
            exposition.value("pm_build_info", &[("backend", "ftv:0.4")]),
            Some(1.0)
        );
        assert_eq!(exposition.value("pm_build_info", &[("backend", "x")]), None);
        let q = |q| exposition.histogram_quantile("lat_seconds", &[("verb", "ingest")], q);
        assert_eq!(q(0.2), Some(0.001));
        assert_eq!(q(0.5), Some(0.002));
        assert_eq!(q(0.9), Some(0.002));
        assert_eq!(q(0.95), Some(0.004));
        assert_eq!(q(1.0), Some(0.004));
        // Empty and absent histograms have no quantiles.
        assert_eq!(
            exposition.histogram_quantile("lat_seconds", &[("verb", "query")], 0.5),
            None
        );
        assert_eq!(exposition.histogram_quantile("nope", &[], 0.5), None);
        assert!(Exposition::parse("{oops} 1").is_err());
        assert!(Exposition::parse("name{a=b} 1").is_err());
    }

    #[test]
    fn observations_past_the_last_edge_report_that_edge() {
        let text = "h_bucket{le=\"1\"} 1\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 4\n";
        let exposition = Exposition::parse(text).unwrap();
        assert_eq!(exposition.histogram_quantile("h", &[], 0.9), Some(2.0));
    }

    /// The golden skeletons pin the server's exposition contract; every
    /// series the harness scrapes must be in it, under the labels it uses.
    #[test]
    fn every_scraped_series_is_in_the_golden_exposition() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../tests/tests/golden");
        let mut parsed = 0;
        for entry in std::fs::read_dir(dir).expect("golden directory") {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) != Some("golden") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let exposition =
                Exposition::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(!exposition.samples.is_empty(), "{}", path.display());
            parsed += 1;
            if path.file_name().and_then(|n| n.to_str()) != Some("metrics_exposition.golden") {
                continue;
            }
            let has = |name: &str, labels: &[(&str, &str)]| {
                exposition.matching(name, labels).next().is_some()
            };
            for (stage, _) in STAGES {
                for suffix in ["_bucket", "_sum", "_count"] {
                    let name = format!("{STAGE_HISTOGRAM}{suffix}");
                    assert!(has(&name, &[("stage", stage)]), "{name} stage={stage}");
                }
            }
            let scraped = [
                COMPARISONS,
                NOTIFICATIONS,
                INGESTED,
                HISTORY_OBJECTS,
                DISTINCT_PREFERENCES,
            ];
            for series in scraped {
                assert!(has(series, &[]), "{series}");
            }
            // Skeleton lines carry no values and `*` label values.
            let bucket = format!("{STAGE_HISTOGRAM}_bucket");
            let sample = exposition
                .matching(&bucket, &[("stage", "parse")])
                .next()
                .unwrap();
            assert_eq!(sample.label("le"), Some("*"));
            assert_eq!(sample.value, None);
        }
        assert!(
            parsed >= 2,
            "expected the engine and the cluster golden files"
        );
    }
}
