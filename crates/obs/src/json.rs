//! The one JSON writer for every machine-readable artifact the workspace
//! emits: the 2AD reports (`static_audit`, `witness_replay`,
//! `repair_adviser`), the [`MetricsReport`](crate::MetricsReport)
//! export, both trace exporters, `BENCH_network.json` and the `BENCH_*`
//! bench files.
//!
//! It is a tiny deterministic value tree ([`Json`]) plus [`document`],
//! which stamps the shared [`SCHEMA_VERSION`] and artifact kind on the
//! top-level object so consumers can dispatch without sniffing the shape.
//!
//! Rendering rules (stable — golden/CI material):
//! * objects keep insertion order; keys render as `"key": value` (one
//!   space after the colon);
//! * non-empty containers are one-entry-per-line with two-space indent,
//!   empty ones render `{}` / `[]`;
//! * strings are escaped per JSON (`"` `\` control chars);
//! * [`Json::Fixed`] renders with exactly its decimal places, and a
//!   non-finite value renders as `null` (JSON has no NaN or infinity).

/// Version stamp shared by every JSON document (`"schema_version"` key on
/// the top-level object). Bump when any document's shape changes.
pub const SCHEMA_VERSION: u64 = 1;

/// A deterministic JSON value: objects preserve insertion order and
/// floats carry their printed precision.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (counts, positions, fingerprints,
    /// nanoseconds).
    Num(u64),
    /// A float printed with a fixed number of decimal places; `null`
    /// when not finite.
    Fixed(f64, usize),
    /// A string, escaped at render time.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A float at its shortest round-trip precision (`500`, `0.99`), for
    /// configured values that have no natural number of places.
    pub fn float(x: f64) -> Json {
        let places = x
            .to_string()
            .split_once('.')
            .map_or(0, |(_, frac)| frac.len());
        Json::Fixed(x, places)
    }

    /// The value under `key` when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Render the value as pretty-printed JSON with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&n.to_string()),
            Json::Fixed(x, places) if x.is_finite() => out.push_str(&format!("{x:.places$}")),
            Json::Fixed(..) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    push_indent(out, indent + 1);
                    out.push('"');
                    out.push_str(&json_escape(key));
                    out.push_str("\": ");
                    value.write(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Build an object field (keeps call sites terse).
pub fn field(key: &str, value: Json) -> (String, Json) {
    (key.to_string(), value)
}

/// Render a top-level document: an object led by `"schema_version"` and
/// `"kind"`, followed by `fields`.
pub fn document(kind: &str, fields: Vec<(String, Json)>) -> String {
    let mut obj = vec![
        field("schema_version", Json::Num(SCHEMA_VERSION)),
        field("kind", Json::str(kind)),
    ];
    obj.extend(fields);
    Json::Obj(obj).render()
}

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_carry_the_schema_stamp() {
        let doc = document("static_audit", vec![field("apps", Json::Arr(Vec::new()))]);
        assert!(doc.starts_with("{\n  \"schema_version\": 1,\n  \"kind\": \"static_audit\""));
        assert!(doc.contains("\"apps\": []"));
        assert!(doc.ends_with("}\n"));
    }

    #[test]
    fn rendering_is_deterministic_and_balanced() {
        let value = Json::Obj(vec![
            field("a", Json::Num(3)),
            field("b", Json::Arr(vec![Json::str("x\\y\n"), Json::Bool(true)])),
            field("c", Json::Obj(Vec::new())),
        ]);
        let a = value.render();
        assert_eq!(a, value.render());
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
        assert_eq!(a.matches('"').count() % 2, 0);
        assert!(a.contains("\"a\": 3"));
        // Empty and nested containers: one entry per line, two-space indent.
        let nested =
            "{\n  \"a\": 3,\n  \"b\": [\n    \"x\\\\y\\n\",\n    true\n  ],\n  \"c\": {}\n}\n";
        assert_eq!(a, nested);
        assert_eq!(Json::Arr(Vec::new()).render(), "[]\n");
        assert_eq!(value.get("a"), Some(&Json::Num(3)));
        assert_eq!(value.get("z"), None);
        assert_eq!(Json::Num(3).get("a"), None);
    }

    #[test]
    fn fixed_keeps_its_places() {
        assert_eq!(Json::Fixed(0.25, 4).render(), "0.2500\n");
        assert_eq!(Json::Fixed(1234.5678, 0).render(), "1235\n");
        assert_eq!(Json::Fixed(2.0, 2).render(), "2.00\n");
        assert_eq!(Json::Fixed(-3.0, 0).render(), "-3\n");
        // `float` keeps the shortest round-trip places.
        assert_eq!(Json::float(500.0).render(), "500\n");
        assert_eq!(Json::float(0.99).render(), "0.99\n");
        assert_eq!(Json::float(0.1 + 0.2).render(), "0.30000000000000004\n");
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Fixed(x, 2).render(), "null\n");
            assert_eq!(Json::float(x).render(), "null\n");
        }
    }

    #[test]
    fn escaping_covers_control_characters() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
        assert_eq!(json_escape("\r\t\u{1f}"), "\\r\\t\\u001f");
    }
}
