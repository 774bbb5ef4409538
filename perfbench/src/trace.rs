//! In-memory spans the benchmark records around each public call it
//! makes into the cluster. Spans share the op id of the closed-loop op
//! that caused them; the op's own span is their parent. They are kept in
//! memory during the timed window and written out after it closes.

use std::io::Write;
use std::path::Path;

use rtml_common::ids::TaskId;
use rtml_common::time::now_nanos;

/// One recorded interval, on the process clock the event log uses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span; `None` for an op's root span.
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. When off, every call is a no-op branch.
#[derive(Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    /// Tasks each op submitted, by op id order of `begin_op`.
    op_tasks: Vec<Vec<TaskId>>,
    current_op: Option<(u64, usize)>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            ..Tracer::default()
        }
    }

    /// Opens the root span of op `op`.
    pub fn begin_op(&mut self, op: u64) {
        if !self.on {
            return;
        }
        let now = now_nanos();
        self.current_op = Some((op, self.spans.len()));
        self.spans.push(Span {
            name: "op",
            start_ns: now,
            end_ns: now,
            parent: None,
            op,
        });
        self.op_tasks.push(Vec::new());
    }

    /// Closes the current op's root span.
    pub fn end_op(&mut self) {
        if let Some((_, root)) = self.current_op.take() {
            self.spans[root].end_ns = now_nanos();
        }
    }

    /// Start stamp for a child span (0 when off).
    pub fn start(&self) -> u64 {
        if self.on {
            now_nanos()
        } else {
            0
        }
    }

    /// Records a child span of the current op that began at `start`.
    pub fn end(&mut self, name: &'static str, start: u64) {
        if let Some((op, root)) = self.current_op {
            self.spans.push(Span {
                name,
                start_ns: start,
                end_ns: now_nanos(),
                parent: Some(root),
                op,
            });
        }
    }

    /// Notes the tasks the current op submitted, for stage attribution.
    pub fn tasks(&mut self, tasks: impl IntoIterator<Item = TaskId>) {
        if self.current_op.is_some() {
            if let Some(list) = self.op_tasks.last_mut() {
                list.extend(tasks);
            }
        }
    }

    /// Each op's root span with its child spans (children are pushed
    /// after their root and before the next op's root).
    fn op_groups(&self) -> Vec<(&Span, &[Span])> {
        let roots: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none())
            .collect();
        roots
            .iter()
            .enumerate()
            .map(|(k, &root)| {
                let end = roots.get(k + 1).copied().unwrap_or(self.spans.len());
                (&self.spans[root], &self.spans[root + 1..end])
            })
            .collect()
    }

    /// Root spans, one per op, paired with the tasks that op submitted.
    pub fn ops(&self) -> impl Iterator<Item = (&Span, &[TaskId])> {
        self.op_groups()
            .into_iter()
            .map(|(root, _)| root)
            .zip(self.op_tasks.iter().map(Vec::as_slice))
    }

    /// Per op: total nanoseconds of child spans named `name`.
    pub fn per_op_nanos(&self, name: &str) -> Vec<u64> {
        self.op_groups()
            .into_iter()
            .map(|(_, children)| {
                children
                    .iter()
                    .filter(|c| c.name == name)
                    .map(Span::nanos)
                    .sum()
            })
            .collect()
    }

    /// Per op: the root span's self time — its duration minus the part
    /// its child spans cover (children never overlap: one driver thread).
    pub fn op_self_nanos(&self) -> Vec<u64> {
        self.op_groups()
            .into_iter()
            .map(|(root, children)| {
                let covered: u64 = children.iter().map(Span::nanos).sum();
                root.nanos().saturating_sub(covered)
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.op, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut tracer = Tracer::new(false);
        tracer.begin_op(0);
        let t = tracer.start();
        tracer.end("submit", t);
        tracer.end_op();
        assert!(tracer.spans.is_empty());
        assert_eq!(tracer.ops().count(), 0);
    }

    #[test]
    fn children_hang_off_their_op() {
        let mut tracer = Tracer::new(true);
        for op in 0..3 {
            tracer.begin_op(op);
            let t = tracer.start();
            tracer.end("submit", t);
            let t = tracer.start();
            tracer.end("get", t);
            tracer.end_op();
        }
        assert_eq!(tracer.spans.len(), 9);
        assert_eq!(tracer.ops().count(), 3);
        for span in &tracer.spans {
            if let Some(parent) = span.parent {
                assert_eq!(tracer.spans[parent].op, span.op);
                assert!(tracer.spans[parent].start_ns <= span.start_ns);
                assert!(span.end_ns <= tracer.spans[parent].end_ns);
            }
        }
        assert_eq!(tracer.per_op_nanos("submit").len(), 3);
        let self_nanos = tracer.op_self_nanos();
        for ((root, _), own) in tracer.ops().zip(&self_nanos) {
            assert!(*own <= root.nanos());
        }
    }
}
