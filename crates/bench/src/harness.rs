//! A small self-contained timing harness (the workspace's replacement for an
//! external benchmark framework).
//!
//! Each measurement warms the code path, calibrates an iteration count to a
//! target batch duration, then records many batch samples and reports
//! min/median/mean per-iteration times. Benches are plain `main()` binaries
//! (`harness = false`), so `cargo bench` runs them directly; results print as
//! a table and can be exported as JSON with [`write_json`].

use salient_trace::export::json_escape;
use std::time::Instant;

/// Summary statistics for one benchmarked operation.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Operation label.
    pub name: String,
    /// Iterations per recorded batch.
    pub iters: usize,
    /// Fastest observed per-iteration seconds (least-noise estimate).
    pub min_s: f64,
    /// Median per-iteration seconds.
    pub p50_s: f64,
    /// Mean per-iteration seconds over all batches.
    pub mean_s: f64,
}

impl Sample {
    /// Throughput in "units per second" for a caller-defined per-iteration
    /// unit count (FLOPs, rows, edges), based on the median time.
    pub fn per_second(&self, units_per_iter: f64) -> f64 {
        units_per_iter / self.p50_s
    }
}

/// Target wall-clock length of one measured batch.
const BATCH_TARGET_S: f64 = 0.05;
/// Number of recorded batches.
const BATCHES: usize = 20;
/// Cap on iterations per batch (protects very cheap ops from huge loops).
const MAX_ITERS: usize = 1_000_000;

/// Measurement parameters, honouring `SALIENT_BENCH_SMOKE`: when the
/// variable is set (the CI mixed-precision tier), batches are shorter and
/// fewer, trading precision for runtime while keeping every code path and
/// assertion identical to the full run.
fn batch_params() -> (f64, usize) {
    if std::env::var("SALIENT_BENCH_SMOKE").is_ok() {
        (0.01, 5)
    } else {
        (BATCH_TARGET_S, BATCHES)
    }
}

/// Measures `f`, returning per-iteration statistics.
///
/// The closure should perform one unit of work and return a value; the
/// result is passed through `std::hint::black_box` so the optimizer cannot
/// elide the computation.
#[expect(clippy::disallowed_methods, reason = "the harness times wall-clock batches: that is what it is for")]
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> Sample {
    let (batch_target_s, batches) = batch_params();
    // Warm up (page in code/data, let the thread pool spin up).
    let warm_start = Instant::now();
    std::hint::black_box(f());
    let first = warm_start.elapsed().as_secs_f64().max(1e-9);

    // Calibrate iterations per batch from the first observation.
    let iters = ((batch_target_s / first) as usize).clamp(1, MAX_ITERS);
    for _ in 0..iters.min(3) {
        std::hint::black_box(f());
    }

    let mut per_iter: Vec<f64> = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        per_iter.push(t.elapsed().as_secs_f64() / iters as f64);
    }
    per_iter.sort_by(|a, b| a.total_cmp(b));
    let min_s = per_iter[0];
    let p50_s = per_iter[per_iter.len() / 2];
    let mean_s = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
    Sample { name: name.to_string(), iters, min_s, p50_s, mean_s }
}

/// Formats a per-iteration time with an adaptive unit.
pub fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} µs", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

/// Prints a result table for a bench group.
pub fn report(group: &str, samples: &[Sample]) {
    println!("== {group}");
    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                fmt_time(s.p50_s),
                fmt_time(s.min_s),
                fmt_time(s.mean_s),
                s.iters.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        crate::render_table(&["bench", "median", "min", "mean", "iters/batch"], &rows)
    );
    println!();
}

/// A JSON value for the hand-rolled writer (no external serialization
/// dependency).
#[derive(Clone, Debug)]
pub enum Json {
    /// A float (written with enough digits to round-trip; `null` when not
    /// finite).
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered map.
    Obj(Vec<(String, Json)>),
    /// An array.
    Arr(Vec<Json>),
}

impl Json {
    fn render_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Json::Num(v) => {
                if !v.is_finite() {
                    // JSON has no NaN or infinity (a rate over a zero median).
                    out.push_str("null");
                } else if v.fract() == 0.0 && v.abs() < 1e15 {
                    out.push_str(&format!("{}", *v as i64));
                } else {
                    out.push_str(&format!("{v}"));
                }
            }
            Json::Str(s) => out.push_str(&format!("\"{}\"", json_escape(s))),
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&format!("{pad}  \"{}\": ", json_escape(k)));
                    v.render_into(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&format!("{pad}}}"));
            }
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    out.push_str(&format!("{pad}  "));
                    v.render_into(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&format!("{pad}]"));
            }
        }
    }

    /// Renders the value as pretty-printed JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }
}

/// Writes a JSON value to `path`.
pub fn write_json(path: &str, value: &Json) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, value.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use salient_trace::json::Value;

    #[test]
    fn bench_measures_something_positive() {
        let s = bench("spin", || {
            let mut x = 0u64;
            for i in 0..100 {
                x = x.wrapping_add(i * i);
            }
            x
        });
        assert!(s.min_s > 0.0);
        assert!(s.p50_s >= s.min_s);
        assert!(s.iters >= 1);
    }

    #[test]
    fn json_renders_expected_shape() {
        let j = Json::Obj(vec![
            ("name".into(), Json::Str("gemm".into())),
            ("gflops".into(), Json::Num(12.5)),
            ("shape".into(), Json::Arr(vec![Json::Num(1024.0), Json::Num(602.0)])),
        ]);
        let text = j.render();
        assert!(text.contains("\"name\": \"gemm\""));
        assert!(text.contains("\"gflops\": 12.5"));
        assert!(text.contains("1024"));
        assert!(text.trim_end().ends_with('}'));
    }

    #[test]
    fn non_finite_numbers_and_control_characters_stay_valid_json() {
        let j = Json::Obj(vec![
            ("nan".into(), Json::Num(f64::NAN)),
            ("rate".into(), Json::Num(f64::INFINITY)),
            ("label".into(), Json::Str("a\tb\u{1}".into())),
        ]);
        let parsed = salient_trace::json::parse(&j.render()).expect("valid JSON");
        assert!(matches!(parsed.get("nan"), Some(Value::Null)));
        assert!(matches!(parsed.get("rate"), Some(Value::Null)));
        assert_eq!(parsed.get("label").and_then(Value::as_str), Some("a\tb\u{1}"));
    }

    #[test]
    fn fmt_time_units() {
        assert_eq!(fmt_time(2.0), "2.000 s");
        assert_eq!(fmt_time(2e-3), "2.000 ms");
        assert_eq!(fmt_time(2e-6), "2.000 µs");
        assert_eq!(fmt_time(2e-9), "2.0 ns");
    }
}
