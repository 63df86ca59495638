//! The driver's span recorder, used only in `--trace 1` runs. Spans are
//! recorded around the calls into each layer's public functions — the
//! program under test is not instrumented — kept in a preallocated vector
//! per thread, merged at the end of the run and written as one JSON file.

use std::fmt::Write as _;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The request (stream index) or batch the span belongs to.
    pub req: u64,
}

/// One thread's spans. Ids are local to the recorder; `merge` renumbers.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// `epoch` is shared by all recorders of a run so that their
    /// timestamps are comparable.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        parent: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        req: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            req,
        });
        id
    }

    /// Opens a span whose end is set later by [`Recorder::close`], so that
    /// children recorded in between can name it as their parent.
    pub fn open(&mut self, parent: u32, name: &'static str, req: u64) -> u32 {
        let now = self.now_ns();
        self.record(parent, name, now, now, req)
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        parent: u32,
        name: &'static str,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(parent, name, start, end, req);
        out
    }
}

/// Concatenates per-thread span lists, renumbering ids (and parents) so
/// they stay unique.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    for list in lists {
        let base = out.len() as u32;
        out.extend(list.into_iter().map(|mut s| {
            s.id += base;
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children may overlap each other (their
/// union is subtracted once) and are clipped to the parent's interval.
/// Indexed like `spans`, whose ids must equal their positions.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Sum of self time per span name, ascending by name.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64)> = Default::default();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += t;
    }
    by_name.into_iter().map(|(n, (c, t))| (n, c, t)).collect()
}

/// The trace file: `{"spans":[{id,parent,name,start_ns,end_ns,req},..]}`
/// with `parent` = -1 for roots.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 16);
    out.push_str("{\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{}}}{}",
            s.id, parent, s.name, s.start_ns, s.end_ns, s.req, sep
        )
        .expect("write to String");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = [
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 10, 60),
            span(2, 1, 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_unioned_and_clipped() {
        // Children 10..40 and 30..70 overlap by 10; 90..130 overhangs the
        // parent's end by 30; 200..210 lies outside it altogether.
        let spans = [
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 10, 40),
            span(2, 0, 30, 70),
            span(3, 0, 90, 130),
            span(4, 0, 200, 210),
            span(5, 0, 35, 38),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], 100 - 60 - 10);
        assert_eq!(&t[1..], &[30, 40, 40, 10, 3]);
    }

    #[test]
    fn merge_renumbers_ids_and_parents() {
        let a = vec![span(0, NO_PARENT, 0, 10), span(1, 0, 2, 4)];
        let b = vec![span(0, NO_PARENT, 5, 9), span(1, 0, 6, 7)];
        let m = merge(vec![a, b]);
        assert_eq!(m.iter().map(|s| s.id).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(m[3].parent, 2);
        assert_eq!(m[2].parent, NO_PARENT);
        assert_eq!(self_times(&m), vec![8, 2, 3, 1]);
        let json = to_json(&m);
        assert!(json.contains("\"parent\":-1"));
        assert!(json.contains("\"id\":3,\"parent\":2"));
    }

    #[test]
    fn recorder_parents_children_under_an_open_span() {
        let mut rec = Recorder::new(Instant::now(), 8);
        let root = rec.open(NO_PARENT, "root", 7);
        let v = rec.time(root, "child", 7, || 41 + 1);
        rec.close(root);
        assert_eq!(v, 42);
        assert_eq!(rec.spans[1].parent, root);
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        let by_name = self_time_by_name(&rec.spans);
        assert_eq!(
            by_name.iter().map(|e| e.0).collect::<Vec<_>>(),
            ["child", "root"]
        );
    }
}
