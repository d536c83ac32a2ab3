//! Spans: one per layer boundary the benchmark crosses — name, start, end,
//! parent, request key — held in memory and written out when the run ends.

use std::io::Write;

/// Index of a span in its list; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Request (task) key the span belongs to; 0 for ticks and windows.
    pub key: u64,
}

/// Appends `src` to `dst`, keeping `src`'s parent links (indices into `src`)
/// valid.
pub fn append(dst: &mut Vec<Span>, src: Vec<Span>) {
    let base = dst.len() as SpanId;
    dst.extend(src.into_iter().map(|s| Span {
        parent: match s.parent {
            NO_PARENT => NO_PARENT,
            p => p + base,
        },
        ..s
    }));
}

/// Self time of every span: its duration minus the part of that interval its
/// direct children cover (children are clipped to the parent and may overlap
/// one another, so covered time is the length of their union).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = spans.get(s.parent as usize) {
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut edge) = (0, s.start_ns);
            for (lo, hi) in kids {
                if hi > edge {
                    covered += hi - lo.max(edge);
                    edge = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Writes `spans` as a JSON array to `results/benchmark/<workload>.spans.json`
/// under the working directory and returns the path.
pub fn write(workload: &str, spans: &[Span]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results").join("benchmark");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.spans.json"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    out.write_all(b"[\n")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = match s.parent {
            NO_PARENT => "null".to_string(),
            p => p.to_string(),
        };
        let sep = if id + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"key":{}}}{sep}"#,
            s.name, s.start_ns, s.end_ns, s.key
        )?;
    }
    out.write_all(b"]\n")?;
    out.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            key: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let spans = [
            span(0, 100, NO_PARENT), // 0: root
            span(10, 30, 0),         // 1
            span(20, 50, 0),         // 2: overlaps 1 → union [10, 50)
            span(90, 120, 0),        // 3: clipped to [90, 100)
            span(22, 28, 2),         // 4: grandchild counts against 2 only
            span(40, 40, 0),         // 5: empty
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 24, 30, 6, 0]);
    }

    #[test]
    fn append_rebases_parents() {
        let mut dst = vec![span(0, 5, NO_PARENT)];
        append(&mut dst, vec![span(100, 110, NO_PARENT), span(101, 102, 0)]);
        assert_eq!(dst[1], span(100, 110, NO_PARENT));
        assert_eq!(dst[2], span(101, 102, 1));
    }
}
