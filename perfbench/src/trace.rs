//! The traced run's instruments: in-memory spans written out at exit,
//! and an allocation counter behind the binary's global allocator.
//!
//! Spans are recorded from the benchmark's own files, around the public
//! calls into each layer; spans inside `sc-core`/`sc-node` are a later
//! change (ROADMAP item 4).

use crate::json::quote;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One timed interval. `parent` indexes the span that caused it.
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: usize,
    /// Iterations a probe span covers (0 for plain spans).
    pub iterations: u64,
}

/// Span recorder. Timestamps are nanoseconds since the tracer was made,
/// so cycle timings and spans share one clock and recording a span costs
/// nothing beyond the two clock reads the untraced run makes anyway.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        rep: usize,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            rep,
            iterations: 0,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>, rep: usize) -> usize {
        let now = self.now_ns();
        self.record(name, now, now, parent, rep)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Summed duration of the direct children of `parent` whose name
    /// starts with `prefix`.
    pub fn children_ns(&self, parent: usize, prefix: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name.starts_with(prefix))
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// One JSON object per line.
    pub fn to_json_lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
                 \"workload\": {}, \"rep\": {}, \"iterations\": {}}}\n",
                quote(&s.name),
                s.start_ns,
                s.end_ns,
                quote(workload),
                s.rep,
                s.iterations,
            ));
        }
        out
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two counters that only move while counting
/// is switched on (the traced repetition's measured window).
pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are plain statistics and
// never influence the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count(bytes: usize) {
    // Relaxed: the counters publish no other data.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Switches allocation counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}
