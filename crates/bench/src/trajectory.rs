//! The committed trajectory files (`BENCH_*.json`) and the code every
//! suite shares to read, merge, write and validate them.
//!
//! Unlike the `target/sweep/` exports — regenerated scratch output — a
//! trajectory is a *committed* file at the repository root, so
//! successive PRs append comparable records and each suite's
//! throughput history stays reviewable in diffs. A suite is a
//! [`Record`] type: [`crate::kernel`] (`BENCH_kernel.json`),
//! [`crate::mcheck`] (`BENCH_mcheck.json`) and [`crate::scale`]
//! (`BENCH_scale.json`). Each file keeps its own schema tag; this
//! module owns the layout they share:
//!
//! ```json
//! {
//! "schema": "<Record::SCHEMA>",
//! "entries": [
//! {...one record per line...}
//! ]
//! }
//! ```
//!
//! one entry per line, so appending a run produces a line-per-record
//! diff. [`render`] of a parsed file reproduces it byte for byte.

use std::fmt::{Display, Write as _};
use std::fs;
use std::path::{Path, PathBuf};

use tokencmp::sweep::json::{self, Value};

/// One suite's trajectory record.
pub trait Record: Sized {
    /// Schema tag the file must carry.
    const SCHEMA: &'static str;
    /// File name at the repository root.
    const FILE: &'static str;

    /// The replacement key: whether `other` records the same cell, so
    /// that re-measuring it overwrites the old record.
    fn same_cell(&self, other: &Self) -> bool;

    /// The record as one JSON object.
    fn to_value(&self) -> Value;

    /// Parses and checks one entry.
    fn from_value(f: &Fields) -> Result<Self, String>;

    /// The suite's verdict on a parsed, non-empty trajectory: report
    /// lines on success, the reason on failure.
    fn gate(entries: &[Self]) -> Result<String, String>;
}

/// One entry under parse: typed field reads whose errors name the
/// entry index and the field.
pub struct Fields<'a> {
    v: &'a Value,
    idx: usize,
}

impl<'a> Fields<'a> {
    /// An error about this entry.
    pub fn error(&self, msg: impl Display) -> String {
        format!("entry {}: {msg}", self.idx)
    }

    /// The raw field, if present.
    pub fn get(&self, k: &str) -> Option<&'a Value> {
        self.v.get(k)
    }

    /// A required string field.
    pub fn str(&self, k: &str) -> Result<String, String> {
        self.get(k)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| self.error(format_args!("`{k}` missing or not a string")))
    }

    /// A required unsigned integer field.
    pub fn int(&self, k: &str) -> Result<u64, String> {
        self.get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| self.error(format_args!("`{k}` missing or not an integer")))
    }

    /// A required finite, strictly positive rate.
    pub fn rate(&self, k: &str) -> Result<f64, String> {
        let x = self
            .get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| self.error(format_args!("`{k}` missing or not a number")))?;
        if x.is_finite() && x > 0.0 {
            Ok(x)
        } else {
            Err(self.error(format_args!("`{k}` = {x} is not a positive rate")))
        }
    }

    /// An optional finite, non-negative number of seconds.
    pub fn seconds(&self, k: &str) -> Result<Option<f64>, String> {
        match self.get(k) {
            None => Ok(None),
            Some(x) => match x.as_f64() {
                Some(s) if s.is_finite() && s >= 0.0 => Ok(Some(s)),
                _ => Err(self.error(format_args!(
                    "`{k}` is not a non-negative number of seconds"
                ))),
            },
        }
    }
}

/// The committed trajectory file: `<repo root>/<R::FILE>`.
pub fn path<R: Record>() -> PathBuf {
    // bench crate manifest dir is `<repo>/crates/bench`.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels under the repo root")
        .join(R::FILE)
}

/// Parses and schema-validates a trajectory file's text.
pub fn parse<R: Record>(text: &str) -> Result<Vec<R>, String> {
    let root = json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    match root.get("schema").and_then(Value::as_str) {
        Some(s) if s == R::SCHEMA => {}
        Some(s) => return Err(format!("schema `{s}` != expected `{}`", R::SCHEMA)),
        None => return Err("missing `schema` tag".into()),
    }
    let entries = root
        .get("entries")
        .and_then(Value::as_arr)
        .ok_or("missing `entries` array")?;
    entries
        .iter()
        .enumerate()
        .map(|(idx, v)| R::from_value(&Fields { v, idx }))
        .collect()
}

/// Loads a trajectory file; a missing file is an empty trajectory.
pub fn load<R: Record>(path: &Path) -> Result<Vec<R>, String> {
    match fs::read_to_string(path) {
        Ok(text) => parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Merges fresh measurements into an existing trajectory: an entry
/// for the same cell replaces the old record in place; new cells
/// append in measurement order, so the file reads chronologically run
/// by run.
pub fn merge<R: Record>(mut existing: Vec<R>, fresh: Vec<R>) -> Vec<R> {
    for entry in fresh {
        match existing.iter_mut().find(|e| e.same_cell(&entry)) {
            Some(slot) => *slot = entry,
            None => existing.push(entry),
        }
    }
    existing
}

/// Renders a trajectory: valid JSON, one entry per line.
pub fn render<R: Record>(entries: &[R]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "\"schema\": {},", Value::Str(R::SCHEMA.into()));
    out.push_str("\"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(out, "{}{sep}", e.to_value());
    }
    out.push_str("]\n}\n");
    out
}

/// Loads, merges, and writes back the trajectory at `path`.
pub fn append<R: Record>(path: &Path, fresh: Vec<R>) -> Result<Vec<R>, String> {
    let merged = merge(load(path)?, fresh);
    fs::write(path, render(&merged)).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(merged)
}

/// CI entry point: schema-validate `path` and apply the suite's gate.
/// An empty trajectory is an error: it proves nothing.
pub fn validate_file<R: Record>(path: &Path) -> Result<String, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let entries = parse::<R>(&text)?;
    if entries.is_empty() {
        return Err("trajectory is empty".into());
    }
    let mut report = format!("{}: {} entries, schema ok\n", path.display(), entries.len());
    report.push_str(&R::gate(&entries)?);
    Ok(report)
}

/// What a trajectory bench target was started to do.
pub struct Invocation {
    /// `TOKENCMP_BENCH_SMOKE` is set: CI-sized measurements.
    pub smoke: bool,
    /// Trajectory label for the invocation (`TOKENCMP_BENCH_RUN`;
    /// default `smoke` or `dev`).
    pub run: String,
    /// Where fresh entries merge: the committed file, or in smoke mode
    /// a fresh scratch file in the system temp dir, so CI exercises the
    /// measure→merge→validate path without rewriting the committed
    /// trajectory with noisy, tiny-iteration numbers.
    pub path: PathBuf,
}

/// Starts a trajectory bench target. `--validate [path]` measures
/// nothing: it validates `path` (default: the committed file), prints
/// the report and exits, with status 1 if validation fails. Any other
/// argument exits with status 2. With no arguments the invocation is
/// read from the environment.
pub fn invocation<R: Record>() -> Invocation {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    match args.as_slice() {
        [] => {}
        [flag, file @ ..] if flag == "--validate" && file.len() <= 1 => {
            let file = file.first().map_or_else(path::<R>, PathBuf::from);
            match validate_file::<R>(&file) {
                Ok(report) => {
                    print!("{report}");
                    std::process::exit(0);
                }
                Err(e) => {
                    eprintln!("{} validation failed: {e}", R::FILE);
                    std::process::exit(1);
                }
            }
        }
        // Measuring rewrites the committed file: never on a mistyped
        // command line.
        _ => {
            eprintln!("error: unexpected arguments {args:?} (usage: [--validate [path]])");
            std::process::exit(2);
        }
    }
    let smoke = std::env::var_os("TOKENCMP_BENCH_SMOKE").is_some();
    let run = std::env::var("TOKENCMP_BENCH_RUN")
        .unwrap_or_else(|_| if smoke { "smoke" } else { "dev" }.into());
    let path = if smoke {
        let stem = R::FILE.trim_end_matches(".json");
        let p = std::env::temp_dir().join(format!("{stem}.smoke.{}.json", std::process::id()));
        let _ = fs::remove_file(&p);
        p
    } else {
        path::<R>()
    };
    Invocation { smoke, run, path }
}

impl Invocation {
    /// Merges `fresh` into the trajectory and says so; exits with
    /// status 1 if the file cannot be read or written.
    pub fn append<R: Record>(&self, fresh: Vec<R>) {
        match append(&self.path, fresh) {
            Ok(all) => println!(
                "\nwrote {} ({} entries, run `{}`)",
                self.path.display(),
                all.len(),
                self.run
            ),
            Err(e) => {
                eprintln!("failed to write trajectory: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelBenchEntry;
    use crate::mcheck::McheckBenchEntry;
    use crate::scale::ScaleBenchEntry;

    /// The committed file parses, passes its gate, and renders back
    /// byte for byte — so a merge rewrites only the cells it touches.
    fn check_committed<R: Record>() {
        let path = path::<R>();
        let text = fs::read_to_string(&path).expect("committed trajectory is readable");
        let entries = parse::<R>(&text).unwrap_or_else(|e| panic!("{}: {e}", R::FILE));
        assert!(
            render(&entries) == text,
            "{}: render(parse(file)) differs from the file",
            R::FILE
        );
        validate_file::<R>(&path).unwrap_or_else(|e| panic!("{}: {e}", R::FILE));
    }

    #[test]
    fn committed_trajectories_validate_and_render_byte_identically() {
        check_committed::<KernelBenchEntry>();
        check_committed::<McheckBenchEntry>();
        check_committed::<ScaleBenchEntry>();
    }
}
