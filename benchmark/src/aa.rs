//! A/A comparison: two sets of runs of the same build must agree within
//! the benchmark's own bounds on every end-to-end metric × workload.

use crate::json::Json;
use std::path::Path;

/// One end-to-end metric of one workload in both sets.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub bound: f64,
    /// `noisy` when either run flagged the metric's path.
    pub tag: Option<String>,
}

impl Row {
    /// How far the two runs are apart, as a share of the first.
    pub fn difference(&self) -> f64 {
        (self.b - self.a).abs() / self.a.abs()
    }

    pub fn within_bound(&self) -> bool {
        self.difference() <= self.bound
    }
}

fn read(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn names(doc: &Json, list: &str) -> Result<Vec<String>, String> {
    doc.get(list)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {list} list"))?
        .iter()
        .map(|item| {
            item.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("a {list} entry has no name"))
        })
        .collect()
}

/// Pair up the result files of two run sets, metric by metric.
pub fn rows(bench: &Json, a: &Path, b: &Path) -> Result<Vec<Row>, String> {
    let metrics = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    let mut out = Vec::new();
    for workload in names(bench, "workloads")? {
        let file = format!("result-{workload}-trace0.json");
        let (ra, rb) = (read(&a.join(&file))?, read(&b.join(&file))?);
        for m in metrics {
            let metric = m.get("name").and_then(Json::as_str).unwrap_or_default();
            let value = |r: &Json| {
                r.get("result")
                    .and_then(|r| r.get("metrics"))
                    .and_then(|ms| ms.get(metric))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{file}: no value for {metric}"))
            };
            let tag = |r: &Json| {
                r.get("tags")
                    .and_then(|t| t.get(metric))
                    .and_then(Json::as_str)
                    .map(str::to_string)
            };
            out.push(Row {
                workload: workload.clone(),
                metric: metric.to_string(),
                a: value(&ra)?,
                b: value(&rb)?,
                bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                tag: tag(&ra).or_else(|| tag(&rb)),
            });
        }
    }
    Ok(out)
}

/// Print the A/A table; exit code 1 when any metric left its bound.
pub fn compare(bench: &Path, a: &Path, b: &Path) -> Result<i32, String> {
    let rows = rows(&read(bench)?, a, b)?;
    println!(
        "{:<16} {:<22} {:>16} {:>16} {:>8} {:>7}",
        "workload", "metric", "run A", "run B", "diff", "bound"
    );
    let mut outside = 0;
    for r in &rows {
        let verdict = if r.within_bound() { "ok" } else { "OUTSIDE" };
        outside += usize::from(!r.within_bound());
        println!(
            "{:<16} {:<22} {:>16.4} {:>16.4} {:>7.2}% {:>6.0}%  {verdict}{}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.difference() * 100.0,
            r.bound * 100.0,
            r.tag.as_ref().map_or(String::new(), |t| format!("  [{t}]")),
        );
    }
    println!(
        "A/A: {} of {} metric × workload pairs within bounds",
        rows.len() - outside,
        rows.len()
    );
    Ok(i32::from(outside > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(workload: &str, latency: f64, tag: Option<&str>) -> String {
        let tags = tag.map_or(String::new(), |t| format!("\"latency_ms\": \"{t}\""));
        format!(
            "{{\"workload\": \"{workload}\", \"result\": {{\"metrics\": {{\"latency_ms\": \
             {{\"value\": {latency}, \"unit\": \"ms\"}}}}}}, \"tags\": {{{tags}}}}}"
        )
    }

    #[test]
    fn pairs_metrics_and_applies_the_bound() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("aa-test-{}", std::process::id()));
        let (a, b) = (dir.join("a"), dir.join("b"));
        std::fs::create_dir_all(&a).unwrap();
        std::fs::create_dir_all(&b).unwrap();
        std::fs::write(a.join("result-hit-trace0.json"), result("hit", 100.0, None)).unwrap();
        std::fs::write(
            b.join("result-hit-trace0.json"),
            result("hit", 104.0, Some("noisy")),
        )
        .unwrap();
        std::fs::write(
            a.join("result-miss-trace0.json"),
            result("miss", 100.0, None),
        )
        .unwrap();
        std::fs::write(
            b.join("result-miss-trace0.json"),
            result("miss", 89.0, None),
        )
        .unwrap();
        let bench = Json::parse(
            r#"{"workloads": [{"name": "hit"}, {"name": "miss"}],
                "end_to_end": [{"name": "latency_ms", "bound": 0.07}]}"#,
        )
        .unwrap();
        let rows = rows(&bench, &a, &b).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(rows.len(), 2);
        assert!((rows[0].difference() - 0.04).abs() < 1e-12);
        assert!(rows[0].within_bound());
        assert_eq!(rows[0].tag.as_deref(), Some("noisy"));
        // The difference is symmetric: better by 11 % is outside too.
        assert!((rows[1].difference() - 0.11).abs() < 1e-12);
        assert!(!rows[1].within_bound());
    }

    #[test]
    fn missing_files_are_an_error() {
        let bench = Json::parse(r#"{"workloads": [{"name": "w"}], "end_to_end": []}"#).unwrap();
        let nowhere = Path::new("/nonexistent-benchmark-aa");
        assert!(rows(&bench, nowhere, nowhere).is_err());
    }
}
