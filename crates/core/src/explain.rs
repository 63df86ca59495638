//! Query tracing ("explain") for the branch-and-bound search.
//!
//! A traced query records every decision the algorithm makes — which
//! nodes it visited, each ABL entry's `MINDIST`/`MINMAXDIST`, and why each
//! branch or object was pruned. Useful for teaching the algorithm, for
//! debugging index quality, and for the tests that pin down pruning
//! behaviour precisely.

use nnq_rtree::RecordId;
use nnq_storage::PageId;

/// What happened to one ABL entry or leaf object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// The branch was descended into / the object's exact distance was
    /// computed.
    Visited,
    /// Discarded by strategy 1 (downward pruning).
    PrunedDownward,
    /// Discarded by strategy 2 (object pruning).
    PrunedObject,
    /// Discarded by strategy 3 (upward pruning).
    PrunedUpward,
}

/// One event of a traced query, in traversal order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A node was read.
    EnterNode {
        /// Node handle.
        page: PageId,
        /// Node level (0 = leaf).
        level: u16,
        /// The candidate bound (squared) when the node was entered.
        bound_sq: f64,
    },
    /// A routing entry was considered.
    Branch {
        /// The child the entry points to.
        child: PageId,
        /// `MINDIST²` to the entry's MBR.
        mindist_sq: f64,
        /// `MINMAXDIST²` to the entry's MBR.
        minmaxdist_sq: f64,
        /// What the algorithm did with it.
        decision: Decision,
    },
    /// A leaf object was considered.
    Object {
        /// The object's record id.
        record: RecordId,
        /// `MINDIST²` filter bound to the object's MBR.
        filter_sq: f64,
        /// Exact squared distance if it was computed.
        exact_sq: Option<f64>,
        /// What the algorithm did with it.
        decision: Decision,
        /// Whether the object entered the candidate set.
        accepted: bool,
    },
}

/// A complete query trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Events in traversal order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Number of `EnterNode` events.
    pub fn nodes_entered(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::EnterNode { .. }))
            .count()
    }

    /// Renders a compact human-readable transcript.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut depth = 0usize;
        for e in &self.events {
            match e {
                TraceEvent::EnterNode {
                    page,
                    level,
                    bound_sq,
                } => {
                    depth = *level as usize;
                    out.push_str(&format!(
                        "{:indent$}node {page} (level {level}, bound {:.3})\n",
                        "",
                        bound_sq.sqrt(),
                        indent = 2 * depth
                    ));
                }
                TraceEvent::Branch {
                    child,
                    mindist_sq,
                    minmaxdist_sq,
                    decision,
                } => {
                    out.push_str(&format!(
                        "{:indent$}- branch {child}: mindist {:.3} minmax {:.3} -> {decision:?}\n",
                        "",
                        mindist_sq.sqrt(),
                        minmaxdist_sq.sqrt(),
                        indent = 2 * depth + 2
                    ));
                }
                TraceEvent::Object {
                    record,
                    filter_sq,
                    exact_sq,
                    decision,
                    accepted,
                } => {
                    let exact = exact_sq
                        .map(|d| format!("{:.3}", d.sqrt()))
                        .unwrap_or_else(|| "-".into());
                    out.push_str(&format!(
                        "{:indent$}- object #{}: filter {:.3} exact {exact} -> {decision:?}{}\n",
                        "",
                        record.0,
                        filter_sq.sqrt(),
                        if *accepted { " (kept)" } else { "" },
                        indent = 2 * depth + 2
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_produces_readable_lines() {
        let trace = Trace {
            events: vec![
                TraceEvent::EnterNode {
                    page: PageId(3),
                    level: 1,
                    bound_sq: f64::INFINITY,
                },
                TraceEvent::Branch {
                    child: PageId(4),
                    mindist_sq: 4.0,
                    minmaxdist_sq: 9.0,
                    decision: Decision::Visited,
                },
                TraceEvent::Object {
                    record: RecordId(7),
                    filter_sq: 1.0,
                    exact_sq: Some(1.0),
                    decision: Decision::Visited,
                    accepted: true,
                },
            ],
        };
        let s = trace.render();
        assert!(s.contains("node page#3"));
        assert!(s.contains("branch page#4: mindist 2.000 minmax 3.000"));
        assert!(s.contains("object #7"));
        assert!(s.contains("(kept)"));
        assert_eq!(trace.nodes_entered(), 1);
    }
}
