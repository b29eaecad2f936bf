//! A minimal JSON object writer (the workspace has no serde).

use std::fmt::Write as _;

/// Builds one flat-or-nested JSON object in insertion order.
#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "{k:?}:");
    }

    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.body, "{v}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    pub fn int(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        let _ = write!(self.body, "{}", quote(v));
        self
    }

    pub fn strs(mut self, k: &str, vs: &[String]) -> Self {
        self.key(k);
        let items: Vec<String> = vs.iter().map(|v| quote(v)).collect();
        let _ = write!(self.body, "[{}]", items.join(","));
        self
    }

    pub fn obj(mut self, k: &str, v: Obj) -> Self {
        self.key(k);
        self.body.push_str(&v.finish());
        self
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// A JSON string literal: quotes, backslashes and newlines escaped,
/// every other control or non-ASCII character as `\u` escapes.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 || (c as u32) > 0x7e => {
                let mut buf = [0u16; 2];
                for unit in c.encode_utf16(&mut buf) {
                    let _ = write!(out, "\\u{unit:04x}");
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
