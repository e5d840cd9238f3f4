//! Machine-readable reports (`BENCH.json`) of the deterministic
//! simulation suite that the `bench-report` binary runs.
//!
//! A [`Report`] is a schema version plus a flat list of named
//! [`Metric`]s. It serializes through [`flipc_obs::json`] — no external
//! dependencies. Every metric comes from seeded schedules on a manual
//! clock, so two runs of one build write equal reports; the crate's
//! `baseline` test holds the committed `baselines/BENCH_baseline.json` to
//! exact equality with a fresh run.
//!
//! Everything in this module is pure data and arithmetic; the measurement
//! loops live in the `bench-report` binary so they can be rerun or
//! replaced without touching the schema.

use flipc_obs::json::Value;

/// Version stamp written into every `BENCH.json`. Bump when the field
/// meanings change incompatibly; the baseline test refuses to compare
/// across schema versions.
pub const SCHEMA_VERSION: u64 = 2;

/// Which way "better" points for a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (latencies, retransmit counts).
    LowerIsBetter,
    /// Larger is better (delivery ratios, throughput).
    HigherIsBetter,
}

impl Direction {
    /// The string written into JSON (`"lower"` / `"higher"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::LowerIsBetter => "lower",
            Direction::HigherIsBetter => "higher",
        }
    }

    /// Parses the JSON form back.
    pub fn parse(s: &str) -> Option<Direction> {
        match s {
            "lower" => Some(Direction::LowerIsBetter),
            "higher" => Some(Direction::HigherIsBetter),
            _ => None,
        }
    }
}

/// One measured quantity.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Stable identifier (`loss10_delivery_ratio`,
    /// `log_append_replay_p99_us`, ...). The baseline test matches
    /// metrics across reports by this name.
    pub name: String,
    /// Unit string for humans (`us`, `msg/sim-s`, `ratio`, `frames`).
    pub unit: String,
    /// The headline value.
    pub value: f64,
    /// Median of the underlying samples, when the metric has a
    /// distribution behind it.
    pub p50: Option<f64>,
    /// 99th percentile of the underlying samples.
    pub p99: Option<f64>,
    /// Which way "better" points.
    pub direction: Direction,
}

/// A complete report: schema version plus metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Schema version ([`SCHEMA_VERSION`] when produced by this build).
    pub schema: u64,
    /// The measurements, in suite order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// A report of `metrics` stamped with this build's schema version.
    pub fn new(metrics: Vec<Metric>) -> Report {
        Report {
            schema: SCHEMA_VERSION,
            metrics,
        }
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Serializes to the `BENCH.json` object form.
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("schema", Value::from(self.schema)),
            (
                "metrics",
                Value::Array(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let mut fields = vec![
                                ("name", Value::from(m.name.as_str())),
                                ("unit", Value::from(m.unit.as_str())),
                                ("value", Value::from(m.value)),
                            ];
                            if let Some(p50) = m.p50 {
                                fields.push(("p50", Value::from(p50)));
                            }
                            if let Some(p99) = m.p99 {
                                fields.push(("p99", Value::from(p99)));
                            }
                            fields.push(("direction", Value::from(m.direction.as_str())));
                            Value::object(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Pretty-printed `BENCH.json` text (trailing newline included).
    pub fn render_json(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Parses a report back from `BENCH.json` text.
    pub fn parse(text: &str) -> Result<Report, String> {
        let v = Value::parse(text).map_err(|e| e.to_string())?;
        Report::from_json(&v)
    }

    /// Decodes the object form produced by [`Report::to_json`].
    pub fn from_json(v: &Value) -> Result<Report, String> {
        let schema = v
            .get("schema")
            .and_then(Value::as_f64)
            .ok_or("missing schema")? as u64;
        let metrics = v
            .get("metrics")
            .and_then(Value::as_array)
            .ok_or("missing metrics")?
            .iter()
            .map(|m| {
                let name = m
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("metric missing name")?
                    .to_string();
                let unit = m
                    .get("unit")
                    .and_then(Value::as_str)
                    .ok_or("metric missing unit")?
                    .to_string();
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("metric {name} missing value"))?;
                let direction = m
                    .get("direction")
                    .and_then(Value::as_str)
                    .and_then(Direction::parse)
                    .ok_or_else(|| format!("metric {name} missing direction"))?;
                Ok(Metric {
                    name,
                    unit,
                    value,
                    p50: m.get("p50").and_then(Value::as_f64),
                    p99: m.get("p99").and_then(Value::as_f64),
                    direction,
                })
            })
            .collect::<Result<Vec<Metric>, String>>()?;
        Ok(Report { schema, metrics })
    }
}

/// Exact percentile of an ascending-sorted sample set (nearest-rank).
/// Returns 0 on an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_preserves_the_report() {
        let r = Report::new(vec![
            Metric {
                name: "log_append_replay_p99_us".into(),
                unit: "us".into(),
                value: 3992.6,
                p50: Some(1100.25),
                p99: Some(3992.6),
                direction: Direction::LowerIsBetter,
            },
            Metric {
                name: "loss10_delivery_ratio".into(),
                unit: "ratio".into(),
                value: 1.0,
                p50: None,
                p99: None,
                direction: Direction::HigherIsBetter,
            },
        ]);
        let text = r.render_json();
        let back = Report::parse(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.schema, SCHEMA_VERSION);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.5), 7);
    }
}
