//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls
//! into the product (spans inside the program are a later change).
//! Each party thread owns a [`Recorder`]; all recorders of a run share
//! one epoch so their timestamps are comparable, and spans of one
//! mini-batch share the batch id across the two parties. Nothing is
//! written until the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call: `[start_ns, end_ns)` relative to the run epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub party: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Mini-batch / tree / request id, shared across parties.
    pub id: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span stack.
pub struct Recorder {
    party: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(party: &'static str, epoch: Instant) -> Self {
        Recorder {
            party,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record `f` as a span nested under the currently open one.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        id: Option<u64>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            party: self.party,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record an already-measured interval (request spans are timed by
    /// the load generator itself, submit → reply).
    pub fn push_closed(
        &mut self,
        name: &'static str,
        id: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let rel = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            party: self.party,
            start_ns: rel(start),
            end_ns: rel(end),
            parent: self.open.last().copied(),
            id,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its
/// interval covered by its direct children (their union, so
/// overlapping children are not subtracted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Mean self time in seconds of the spans called `name`.
pub fn mean_self_secs(spans: &[Span], name: &str) -> f64 {
    let selfs = self_times_ns(spans);
    let picked: Vec<u64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &t)| t)
        .collect();
    if picked.is_empty() {
        0.0
    } else {
        picked.iter().sum::<u64>() as f64 * 1e-9 / picked.len() as f64
    }
}

/// Write one JSON object per span. Parent indices are rewritten to be
/// file-global (each recorder's spans are appended as a block).
pub fn write_jsonl(path: &Path, blocks: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut base = 0usize;
    for block in blocks {
        let selfs = self_times_ns(block);
        for (i, s) in block.iter().enumerate() {
            let parent = s
                .parent
                .map_or("null".to_string(), |p| (base + p).to_string());
            let id = s.id.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"span\": {}, \"name\": \"{}\", \"party\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {}, \"parent\": {parent}, \"id\": {id}}}",
                base + i,
                s.name,
                s.party,
                s.start_ns,
                s.end_ns,
                selfs[i],
            )?;
        }
        base += block.len();
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            party: "host",
            start_ns,
            end_ns,
            parent,
            id: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // Parent [0, 100); children [10, 30), [20, 50) (overlapping:
        // union 40), [60, 70); a grandchild must not count twice.
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)),
            span(60, 70, Some(0)),
            span(62, 68, Some(3)),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 40 - 10, 20, 30, 4, 6]);
    }

    #[test]
    fn recorder_nests_and_orders() {
        let mut rec = Recorder::new("guest", Instant::now());
        rec.span("outer", Some(7), |r| {
            r.span("inner", Some(7), |_| std::hint::black_box(1 + 1));
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].id, Some(7));
    }
}
