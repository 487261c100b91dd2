//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around calls into the repository's crates, from
//! the benchmark's own code: name, start, end, the span that caused it, and
//! the op id shared by every span of one measured operation. They are kept
//! in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval, in nanoseconds since the recorder was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span brackets (e.g. `server.poll`).
    pub name: &'static str,
    /// Measured op id (0 for set-up, replay and probe spans).
    pub op: u64,
    /// Index of the causing span, or [`ROOT`].
    pub parent: u32,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the recorder's epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Aggregate of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the parts their children cover.
    pub self_ns: u64,
}

/// See [`Trace::coverage`].
#[derive(Debug, Clone, Copy)]
pub struct Coverage {
    /// Spans with a non-zero duration.
    pub spans: usize,
    /// Spans whose children cover at least the asked share.
    pub covered: usize,
    /// The smallest covered share.
    pub least: f64,
}

/// Spans per storage chunk. Chunks are allocated zero-filled and never
/// reallocated, so recording a span inside a measured op neither copies
/// earlier spans nor faults in fresh pages.
const CHUNK: usize = 1 << 16;

const EMPTY: Span = Span {
    name: "",
    op: 0,
    parent: ROOT,
    start: 0,
    end: 0,
};

/// The span store. Disabled recorders keep nothing.
pub struct Trace {
    on: bool,
    epoch: Instant,
    chunks: Vec<Vec<Span>>,
    len: usize,
}

impl Trace {
    /// A recorder; `on == false` makes every call a no-op.
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            epoch: Instant::now(),
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Whether spans are being kept.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span at `start`; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, op: u64, parent: u32, start: Instant) -> u32 {
        if !self.on {
            return ROOT;
        }
        let start = self.ns(start);
        if self.len == self.chunks.len() * CHUNK {
            self.chunks.push(vec![EMPTY; CHUNK]);
        }
        let idx = self.len;
        self.chunks[idx / CHUNK][idx % CHUNK] = Span {
            name,
            op,
            parent,
            start,
            end: start,
        };
        self.len += 1;
        idx as u32
    }

    /// Allocates the next chunk ahead of time when fewer than `room` free
    /// slots remain, so the caller can keep allocation out of its spans.
    pub fn reserve(&mut self, room: usize) {
        if self.on && self.chunks.len() * CHUNK - self.len < room {
            self.chunks.push(vec![EMPTY; CHUNK]);
        }
    }

    /// Closes a span opened with [`open`](Self::open).
    pub fn close(&mut self, idx: u32, end: Instant) {
        if idx != ROOT {
            let end = self.ns(end);
            let idx = idx as usize;
            self.chunks[idx / CHUNK][idx % CHUNK].end = end;
        }
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let idx = self.open(name, op, parent, start);
        self.close(idx, end);
        idx
    }

    /// Opens a span now, runs `f`, and closes it.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        f: impl FnOnce(&mut Trace, u32) -> T,
    ) -> T {
        let idx = self.open(name, 0, parent, Instant::now());
        let out = f(self, idx);
        self.close(idx, Instant::now());
        out
    }

    /// All spans recorded so far, in recording order.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.chunks.iter().flatten().take(self.len)
    }

    /// Sum of each span's children's durations (children never overlap:
    /// every layer call here is synchronous).
    fn child_cover(&self) -> Vec<u64> {
        let mut cover = vec![0u64; self.len];
        for s in self.spans() {
            if s.parent != ROOT {
                cover[s.parent as usize] += s.dur();
            }
        }
        cover
    }

    /// Count, total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let cover = self.child_cover();
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, c) in self.spans().zip(cover) {
            let l = out.entry(s.name).or_default();
            l.count += 1;
            l.total_ns += s.dur();
            l.self_ns += s.dur().saturating_sub(c);
        }
        out
    }

    /// How much of each span named `name` its children cover: the spans
    /// counted, those covered to at least `share`, and the least covered.
    pub fn coverage(&self, name: &str, share: f64) -> Coverage {
        let cover = self.child_cover();
        let shares: Vec<f64> = self
            .spans()
            .zip(cover)
            .filter(|(s, _)| s.name == name && s.dur() > 0)
            .map(|(s, c)| c as f64 / s.dur() as f64)
            .collect();
        Coverage {
            spans: shares.len(),
            covered: shares.iter().filter(|&&c| c >= share).count(),
            least: shares.iter().copied().reduce(f64::min).unwrap_or(0.0),
        }
    }

    /// Durations of the spans named `name` whose op id passes `keep`.
    pub fn durations(&self, name: &str, keep: impl Fn(u64) -> bool) -> Vec<u64> {
        self.spans()
            .filter(|s| s.name == name && keep(s.op))
            .map(Span::dur)
            .collect()
    }

    /// Writes the spans as tab-separated `index parent op name start end`
    /// lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tparent\top\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}
