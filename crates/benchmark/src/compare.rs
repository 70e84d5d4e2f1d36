//! `compare <a.json> <b.json>`: applies each metric's bound to two result
//! sets of the same benchmark.
//!
//! One row per (workload, end-to-end metric): both medians, both
//! inter-quartile ranges, the ratio `b / a` with `a` as its base, and a
//! verdict. All end-to-end metrics are lower-is-better.
//!
//! * `unresolved` — either side's inter-quartile range, as a share of its
//!   median, is wider than the bound: the runs cannot tell a regression of
//!   that size from noise, so the row is neither `ok` nor `worse`;
//! * `worse` — `b`'s median exceeds `a`'s by more than the bound;
//! * `ok` — otherwise.

use vf2boost_core::json::{parse, Json};

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and both sides steady enough to say so.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// The spread of a side exceeds the bound.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// `(median, q1, q3)` of the base.
    pub a: (f64, f64, f64),
    /// `(median, q1, q3)` of the candidate.
    pub b: (f64, f64, f64),
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Decides one pair from its order statistics.
pub fn judge(a: (f64, f64, f64), b: (f64, f64, f64), bound: f64) -> Verdict {
    let spread = |(median, q1, q3): (f64, f64, f64)| (q3 - q1) / median;
    if !(spread(a) <= bound && spread(b) <= bound) {
        Verdict::Unresolved
    } else if b.0 > a.0 * (1.0 + bound) {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn stats(metric: &Json) -> Option<(f64, f64, f64)> {
    let f = |key| metric.get(key).and_then(Json::as_f64);
    Some((f("median")?, f("q1")?, f("q3")?))
}

fn named<'a>(list: Option<&'a Json>, name: &str) -> Option<&'a Json> {
    list?.as_arr()?.iter().find(|j| j.get("name").and_then(Json::as_str) == Some(name))
}

/// Compares two results documents (the text of two results files).
pub fn compare(a_text: &str, b_text: &str) -> Result<Vec<Row>, String> {
    let a = parse(a_text).map_err(|e| format!("first file: {e}"))?;
    let b = parse(b_text).map_err(|e| format!("second file: {e}"))?;
    let workloads =
        a.get("workloads").and_then(Json::as_arr).ok_or("first file: no workloads array")?;
    let mut rows = Vec::new();
    for wa in workloads {
        let name = wa.get("name").and_then(Json::as_str).ok_or("a workload without a name")?;
        let Some(wb) = named(b.get("workloads"), name) else { continue };
        for ma in wa.get("end_to_end").and_then(Json::as_arr).unwrap_or_default() {
            let metric = ma.get("name").and_then(Json::as_str).ok_or("a metric without a name")?;
            let Some(mb) = named(wb.get("end_to_end"), metric) else { continue };
            let bound = ma.get("bound").and_then(Json::as_f64).ok_or("a metric without a bound")?;
            let (Some(sa), Some(sb)) = (stats(ma), stats(mb)) else {
                return Err(format!("{name}/{metric}: a side has no median and quartiles"));
            };
            rows.push(Row {
                workload: name.to_string(),
                metric: metric.to_string(),
                a: sa,
                b: sb,
                bound,
                verdict: judge(sa, sb, bound),
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no (workload, metric) pair".into());
    }
    Ok(rows)
}

/// Prints the rows; returns how many are `worse`.
pub fn print(rows: &[Row]) -> usize {
    println!(
        "{:<15} {:<13} {:>13} {:>9} {:>13} {:>9} {:>14} {:>6}  verdict",
        "workload", "metric", "a median", "a iqr", "b median", "b iqr", "b/a (base a)", "bound"
    );
    for r in rows {
        let iqr = |(m, q1, q3): (f64, f64, f64)| 100.0 * (q3 - q1) / m;
        let verdict = match r.verdict {
            Verdict::Ok => "ok".to_string(),
            Verdict::Worse => "worse".to_string(),
            Verdict::Unresolved => {
                format!("unresolved (spread {:.1}% / {:.1}%)", iqr(r.a), iqr(r.b))
            }
        };
        println!(
            "{:<15} {:<13} {:>13.6} {:>8.2}% {:>13.6} {:>8.2}% {:>14.4} {:>5.0}%  {verdict}",
            r.workload,
            r.metric,
            r.a.0,
            iqr(r.a),
            r.b.0,
            iqr(r.b),
            r.b.0 / r.a.0,
            r.bound * 100.0
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let (worse, unresolved) = (count(Verdict::Worse), count(Verdict::Unresolved));
    println!(
        "{} rows: {} ok, {worse} worse, {unresolved} unresolved",
        rows.len(),
        count(Verdict::Ok)
    );
    worse
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = (10.0, 9.9, 10.1);
        assert_eq!(judge(steady, (10.7, 10.6, 10.8), 0.08), Verdict::Ok);
        assert_eq!(judge(steady, (10.9, 10.8, 11.0), 0.08), Verdict::Worse);
        assert_eq!(judge(steady, (5.0, 4.9, 5.1), 0.08), Verdict::Ok);
        // A side whose quartiles are further apart than the bound decides nothing.
        assert_eq!(judge(steady, (12.0, 11.0, 13.0), 0.08), Verdict::Unresolved);
        assert_eq!(judge((10.0, 9.0, 11.0), (10.0, 9.9, 10.1), 0.08), Verdict::Unresolved);
        assert_eq!(judge(steady, (f64::NAN, 1.0, 2.0), 0.08), Verdict::Unresolved);
    }

    #[test]
    fn documents_are_matched_by_workload_and_metric_name() {
        let doc = |median: f64| {
            format!(
                "{{\"workloads\": [{{\"name\": \"w\", \"end_to_end\": [{{\"name\": \"train_wall_s\", \
                 \"bound\": 0.08, \"median\": {median}, \"q1\": {}, \"q3\": {}}}]}}]}}",
                median * 0.99,
                median * 1.01
            )
        };
        let rows = compare(&doc(4.0), &doc(4.5)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].workload.as_str(), rows[0].metric.as_str()), ("w", "train_wall_s"));
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert_eq!(compare(&doc(4.0), &doc(4.1)).unwrap()[0].verdict, Verdict::Ok);
        assert!(compare(&doc(4.0), "{\"workloads\": []}").is_err());
        assert!(compare("not json", &doc(4.0)).is_err());
    }
}
