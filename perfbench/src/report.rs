//! What a workload hands back: metrics by name, notes for the log, the
//! tally of checked operations, and the spans of a traced run.

use crate::check::Tally;
use crate::stats::describe_overhead;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Report {
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub notes: Vec<String>,
    pub tally: Tally,
    pub spans: Option<Tracer>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Tracing overhead from the same rate measured untraced and traced;
    /// `noise_pct` is the untraced rate's own spread, where one is known.
    pub fn tracing_overhead(&mut self, untraced_rate: f64, traced_rate: f64, noise_pct: f64) {
        let pct = (untraced_rate / traced_rate - 1.0) * 100.0;
        self.layer("trace.overhead_pct", pct, "%");
        self.note(format!(
            "tracing overhead {} (untraced {untraced_rate:.4}, traced {traced_rate:.4})",
            describe_overhead(pct, noise_pct)
        ));
    }

    pub fn find(&self, name: &str) -> Option<Metric> {
        self.e2e
            .iter()
            .chain(&self.layers)
            .find(|m| m.name == name)
            .copied()
    }
}
