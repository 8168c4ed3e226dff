//! A JSON writer (the workspace has no JSON crate). Output only: the
//! benchmark never reads JSON back.

/// A JSON value. Object keys keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    /// A measured value, printed with all its digits. Must be finite:
    /// callers turn a missing or non-finite measurement into a failed run
    /// before it gets here, and `render` writes `null` as a last resort so
    /// the document stays valid.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact, single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => out.push_str(&v.to_string()),
            // `{}` on f64 prints the shortest text that reads back to the
            // same value and never uses an exponent.
            Json::Num(v) if v.is_finite() => out.push_str(&v.to_string()),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_is_accepted_by_the_library_validator() {
        let doc = Json::obj([
            ("correct", Json::from(true)),
            ("attempted", Json::from(21u64)),
            (
                "name",
                Json::from("tab\there \"quoted\" back\\slash \u{1} é"),
            ),
            ("value", Json::from(1.2034e-7)),
            ("big", Json::from(1.5e300)),
            ("nan", Json::from(f64::NAN)),
            ("list", Json::Arr(vec![Json::Null, Json::from(0.1 + 0.2)])),
            ("empty", Json::obj::<&str>([])),
        ])
        .render();
        apgas::trace::validate_json(&doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
        assert!(doc.contains("\"value\":0.00000012034"), "{doc}");
        assert!(doc.contains("\"nan\":null"));
        assert!(doc.contains("0.30000000000000004"), "all digits are kept");
        assert!(
            !doc.contains('\n'),
            "one line, so it can be the last line of stdout"
        );
    }
}
