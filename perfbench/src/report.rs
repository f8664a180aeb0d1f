//! What one run reports: metrics, correctness checks and the
//! determinism cross-check, printed as a table and a final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Metrics, checks and deterministic counts of one run.
pub struct Report {
    /// `--trace 1`: the JSON line carries the per-layer metrics instead of
    /// the end-to-end ones.
    traced: bool,
    e2e: BTreeMap<&'static str, (f64, &'static str)>,
    layer: BTreeMap<String, (f64, &'static str)>,
    /// Lines printed under the table (sample counts, bases of ratios).
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    /// First value seen for each deterministic count.
    det: BTreeMap<String, u64>,
    det_mismatches: Vec<String>,
}

impl Report {
    pub fn new(traced: bool) -> Report {
        Report {
            traced,
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            det: BTreeMap::new(),
            det_mismatches: Vec::new(),
        }
    }

    /// Records an end-to-end metric (reported by untraced runs). A run
    /// reports the figures of every operation its workload runs; the
    /// result line keeps those `BENCHMARK.json` lists (see `run.py`).
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.insert(name, (value, unit));
    }

    /// Records a per-layer metric (reported by traced runs).
    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layer.insert(name.into(), (value, unit));
    }

    /// A line for the human-readable table.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one checked operation; `ok == false` counts it as failed.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// Runs one operation, counting a panic as a failed operation.
    pub fn attempt<R>(&mut self, what: &str, f: impl FnOnce(&mut Report) -> R) -> Option<R> {
        match catch_unwind(AssertUnwindSafe(|| f(self))) {
            Ok(r) => Some(r),
            Err(_) => {
                self.check(&format!("{what} panicked"), false);
                None
            }
        }
    }

    /// A count that must come out the same every time the same input is
    /// processed; floats are compared by their bits.
    pub fn det(&mut self, name: &str, value: f64) {
        self.det_bits(name, value.to_bits());
    }

    /// [`Report::det`] for integer counts.
    pub fn det_u64(&mut self, name: &str, value: u64) {
        self.det_bits(name, value);
    }

    fn det_bits(&mut self, name: &str, bits: u64) {
        match self.det.get(name) {
            None => {
                self.det.insert(name.to_string(), bits);
            }
            Some(&first) if first != bits => {
                eprintln!("perfbench: nondeterministic count {name}");
                self.det_mismatches.push(name.to_string());
            }
            Some(_) => {}
        }
    }

    /// The deterministic counts seen so far, for the cross-run check.
    pub fn det_counts(&self) -> &BTreeMap<String, u64> {
        &self.det
    }

    /// Marks a count that differed from an earlier run of this binary.
    pub fn det_mismatch(&mut self, name: String) {
        eprintln!("perfbench: count {name} differs from an earlier run with this seed");
        self.det_mismatches.push(name);
    }

    /// Per-layer metrics recorded so far (the trace file carries them).
    pub fn layer_metrics(&self) -> &BTreeMap<String, (f64, &'static str)> {
        &self.layer
    }

    /// Prints the table, then the result as the last line of stdout.
    pub fn print(&self) {
        println!("| metric | value | unit |");
        println!("|---|---:|---|");
        let failed_frac = (self.failed as f64 / self.attempted.max(1) as f64, "ratio");
        let rows = self
            .e2e
            .iter()
            .chain([(&"failed_frac", &failed_frac)])
            .map(|(k, v)| (k.to_string(), *v))
            .chain(self.layer.iter().map(|(k, v)| (k.clone(), *v)));
        for (name, (value, unit)) in rows {
            println!("| {name} | {value:.6} | {unit} |");
        }
        for n in &self.notes {
            println!("{n}");
        }
        println!("{}", self.json());
    }

    fn json(&self) -> String {
        let correct = self.failed == 0 && self.det_mismatches.is_empty() && self.attempted > 0;
        let mut m = String::new();
        let metrics: Vec<(String, (f64, &str))> = if self.traced {
            self.layer.iter().map(|(k, v)| (k.clone(), *v)).collect()
        } else {
            self.e2e.iter().map(|(k, v)| (k.to_string(), *v)).collect()
        };
        for (i, (name, (value, unit))) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A JSON number with every digit of `v` (non-finite values, which JSON
/// cannot carry, become `null`).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
