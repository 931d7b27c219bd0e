//! One-line JSON output. The repo's `bench::harness::Json` has no boolean
//! and always pretty-prints, and the result line must be a single line
//! with `"correct": true`; reading goes through `trace::json::parse`.

use salient_repro::trace::json::Value;

#[derive(Clone, Debug)]
pub enum J {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn str(s: &str) -> J {
        J::Str(s.to_string())
    }

    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, J)>) -> J {
        J::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn nums(values: &[f64]) -> J {
        J::Arr(values.iter().map(|&v| J::Num(v)).collect())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Whole numbers print as integers (`attempted`, `failed`, counts);
            // everything else with every digit f64's shortest round-trip has.
            J::Num(v) if v.fract() == 0.0 && v.abs() < 1e15 => {
                out.push_str(&format!("{}", *v as i64))
            }
            J::Num(v) => out.push_str(&format!("{v}")),
            J::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            J::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            J::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    J::str(k).render_into(out);
                    out.push_str(": ");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Converts a parsed value back, so a child's record can be embedded in the
/// results file unchanged.
impl From<&Value> for J {
    fn from(v: &Value) -> J {
        match v {
            Value::Null => J::Str("null".into()),
            Value::Bool(b) => J::Bool(*b),
            Value::Num(n) => J::Num(*n),
            Value::Str(s) => J::Str(s.clone()),
            Value::Arr(a) => J::Arr(a.iter().map(J::from).collect()),
            Value::Obj(m) => J::Obj(m.iter().map(|(k, v)| (k.clone(), J::from(v))).collect()),
        }
    }
}
