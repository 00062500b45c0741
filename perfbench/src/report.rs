//! A flat JSON object written one field at a time — the benchmark's only
//! output format, read back by `perfbench/run.py`.

use std::fmt::Write as _;

/// An ordered set of named values, printed as one JSON object.
#[derive(Debug, Default)]
pub struct Report {
    fields: Vec<(String, String)>,
    errors: Vec<String>,
    absent: Vec<(String, String)>,
}

impl Report {
    /// A number; non-finite values become `null`.
    pub fn num(&mut self, key: &str, v: f64) {
        let json = if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        };
        self.fields.push((key.into(), json));
    }

    /// A string.
    pub fn text(&mut self, key: &str, v: &str) {
        self.fields.push((key.into(), quote(v)));
    }

    /// Records why a metric could not be measured; it is left out.
    pub fn absent(&mut self, key: &str, why: &str) {
        self.absent.push((key.into(), why.into()));
    }

    /// Records a failed check; the run counts as failed.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.errors.push(why.into());
    }

    /// Records every failed check of a list.
    pub fn fail_all(&mut self, whys: Vec<String>) {
        self.errors.extend(whys);
    }

    /// The report as one line of JSON: `ok`, `errors` and `absent` first.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"ok\": {}, \"errors\": [", self.errors.is_empty());
        for (i, e) in self.errors.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}", quote(e));
        }
        out.push_str("], \"absent\": {");
        for (i, (k, why)) in self.absent.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}: {}", quote(k), quote(why));
        }
        out.push('}');
        for (k, v) in &self.fields {
            let _ = write!(out, ", {}: {v}", quote(k));
        }
        out.push('}');
        out
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
