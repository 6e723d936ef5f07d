//! Reads the program's existing metrics registry — `ec_obs::render()` in
//! process, `GET /metrics` for a server — as snapshots whose differences
//! give per-layer counts around a workload.

use std::collections::BTreeMap;

/// One parsed Prometheus text exposition: series (`name{labels}` exactly as
/// rendered) to value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    series: BTreeMap<String, f64>,
}

impl Snapshot {
    /// Parses exposition text; comment and malformed lines are skipped.
    pub fn parse(text: &str) -> Self {
        let series = text
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| {
                let (key, value) = line.rsplit_once(' ')?;
                Some((key.to_string(), value.parse().ok()?))
            })
            .collect();
        Snapshot { series }
    }

    /// The in-process registry right now.
    pub fn in_process() -> Self {
        Snapshot::parse(&ec_obs::render())
    }

    /// A series' value; series not yet registered read as 0.
    pub fn get(&self, key: &str) -> f64 {
        self.series.get(key).copied().unwrap_or(0.0)
    }

    /// Sum over every series of a family: the unlabelled series `name` and
    /// every `name{labels}`.
    pub fn family(&self, name: &str) -> f64 {
        let labelled = format!("{name}{{");
        self.series
            .iter()
            .filter(|(key, _)| *key == name || key.starts_with(&labelled))
            .map(|(_, value)| value)
            .sum()
    }

    /// `self − before` for one family, summed over its labels.
    pub fn delta(&self, before: &Snapshot, name: &str) -> f64 {
        self.family(name) - before.family(name)
    }

    /// Milliseconds the program's own `ec_stage_seconds{stage=…}` histogram
    /// accumulated between `before` and `self`.
    pub fn stage_ms(&self, before: &Snapshot, stage: &str) -> f64 {
        let key = format!("ec_stage_seconds_sum{{stage=\"{stage}\"}}");
        1e3 * (self.get(&key) - before.get(&key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_series_and_takes_deltas() {
        let before = Snapshot::parse("# HELP x y\n# TYPE x counter\nx_total 3\n");
        let after = Snapshot::parse(
            "x_total 10\nx_total_more 5\ny_total{instance=\"0\"} 2\ny_total{instance=\"1\"} 3\n\
             ec_stage_seconds_sum{stage=\"resolution.blocking\"} 0.25\nbad line\n",
        );
        assert_eq!(after.delta(&before, "x_total"), 7.0);
        assert_eq!(after.family("y_total"), 5.0);
        assert_eq!(after.get("missing"), 0.0);
        assert_eq!(after.stage_ms(&before, "resolution.blocking"), 250.0);
    }
}
