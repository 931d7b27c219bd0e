//! `BENCHMARK.json` as the benchmark itself reads it: to hold its metric
//! tables to the file, and to compare two results files by the file's
//! directions and bounds.

use crate::spec;
use crate::stats::{iqr_share, median};
use salient_repro::trace::json::{parse, Value};

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub struct Manifest {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{key:?} is not a string"))
}

fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("{key:?} is not a list"))
}

fn metrics(doc: &Value, key: &str) -> Result<Vec<Metric>, String> {
    list(doc, key)?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better: text(m, "better")? == "higher",
                bound: m.get("bound").and_then(Value::as_num).unwrap_or(0.0),
            })
        })
        .collect()
}

pub fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Loads `BENCHMARK.json` from the working directory (the repo root).
pub fn load() -> Result<Manifest, String> {
    let doc = read_json("BENCHMARK.json")?;
    Ok(Manifest {
        workloads: list(&doc, "workloads")?
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
    })
}

/// Checks that the file names exactly the workloads and metrics, with the
/// units, that this program reports.
pub fn check(m: &Manifest) -> Result<(), String> {
    fn same(what: &str, file: &[Metric], code: &[(&str, &str)]) -> Result<(), String> {
        let matches = file.len() == code.len()
            && file
                .iter()
                .zip(code)
                .all(|(f, c)| f.name == c.0 && f.unit == c.1);
        if matches {
            Ok(())
        } else {
            Err(format!(
                "BENCHMARK.json {what} differs from the program's table {code:?}"
            ))
        }
    }
    same("end_to_end", &m.end_to_end, &spec::END_TO_END)?;
    same("per_layer", &m.per_layer, &spec::PER_LAYER)?;
    if m.workloads != crate::workloads::NAMES {
        return Err(format!(
            "BENCHMARK.json workloads {:?} differ from {:?}",
            m.workloads,
            crate::workloads::NAMES
        ));
    }
    Ok(())
}

fn values(results: &Value, workload: &str, metric: &str) -> Vec<f64> {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Value::as_arr)
        .map(|vs| vs.iter().filter_map(Value::as_num).collect())
        .unwrap_or_default()
}

/// Prints one row per workload x end-to-end metric comparing results file
/// `b` with `a`; returns how many rows are `worse`.
///
/// `unresolved`: the spread within either file (quartile distance over
/// median) exceeds the metric's bound, so a difference of that size cannot
/// be told from noise. `worse` / `better`: `b`'s median differs from `a`'s
/// by more than the bound. `same` otherwise.
pub fn compare(m: &Manifest, a: &Value, b: &Value) -> usize {
    let mut worse = 0;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "change", "a iqr", "b iqr", "bound"
    );
    for w in &m.workloads {
        for metric in &m.end_to_end {
            let (va, vb) = (values(a, w, &metric.name), values(b, w, &metric.name));
            let (ma, mb) = (median(&va), median(&vb));
            let (sa, sb) = (iqr_share(&va), iqr_share(&vb));
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            let gain = if metric.higher_is_better {
                change
            } else {
                -change
            };
            let verdict = if va.is_empty() || vb.is_empty() {
                "missing"
            } else if sa > metric.bound || sb > metric.bound {
                "unresolved"
            } else if gain < -metric.bound {
                worse += 1;
                "worse"
            } else if gain > metric.bound {
                "better"
            } else {
                "same"
            };
            println!(
                "{:<14} {:<16} {:>14.4} {:>14.4} {:>+7.1}% {:>6.1}% {:>6.1}% {:>5.0}%  {verdict}",
                w,
                metric.name,
                ma,
                mb,
                100.0 * change,
                100.0 * sa,
                100.0 * sb,
                100.0 * metric.bound
            );
        }
    }
    worse
}
