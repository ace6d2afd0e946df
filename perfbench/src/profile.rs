//! An aggregating [`obskit::Recorder`]: per span name it keeps the call
//! count, inclusive time and self time, plus every counter and the
//! count/sum of every histogram. Memory is O(#names), not O(#events).
//!
//! Each thread accumulates into its own thread-local table and merges it
//! into the shared table only when its outermost open span closes (or
//! when it records an event with no span open), so the hot path takes
//! no lock. Self time subtracts the children that ran on the same
//! thread; children on helper threads (parallel factor blocks) overlap
//! their parent and are not subtracted.
//!
//! Spans and counters are keyed by name *and* context: the kind of
//! simulation they ran under, taken from the nearest enclosing
//! `shooting` span (a transient settle or flow) or `analysis`/`op` span
//! carrying a `kind` attribute on the same thread. That is how
//! `time-step` spans and `step.*` counters split into transient and
//! envelope work.

use obskit::{AttrValue, Recorder, SpanId};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The simulation a span or counter ran under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ctx {
    /// Outside any attributed simulation.
    None,
    /// A transient: shooting settle/flow or a `.tran` analysis.
    Transim,
    /// A WaMPDE envelope.
    Wampde,
}

impl Ctx {
    fn of_kind(kind: &str) -> Option<Ctx> {
        match kind {
            "tran" | "shooting" => Some(Ctx::Transim),
            "wampde" => Some(Ctx::Wampde),
            _ => None,
        }
    }
}

/// Aggregate of all spans sharing one (name, context) key.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanAgg {
    /// Spans closed.
    pub count: u64,
    /// Summed inclusive time (ns) of the spans with no same-named
    /// ancestor, so nested spans of one name count once.
    pub incl_ns: u64,
    /// Summed self time: inclusive minus same-thread children (ns).
    pub self_ns: u64,
}

impl SpanAgg {
    fn add(&mut self, o: &SpanAgg) {
        self.count += o.count;
        self.incl_ns += o.incl_ns;
        self.self_ns += o.self_ns;
    }
}

/// One thread's (or the merged) aggregate tables.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Span aggregates by (name, context).
    pub spans: BTreeMap<(String, Ctx), SpanAgg>,
    /// Counters by (name, context).
    pub counters: BTreeMap<(String, Ctx), u64>,
    /// Histograms by name: (observations, sum).
    pub hists: BTreeMap<String, (u64, f64)>,
}

impl Profile {
    /// Span aggregate of `name` summed over every context.
    pub fn span(&self, name: &str) -> SpanAgg {
        let mut out = SpanAgg::default();
        for ((n, _), a) in &self.spans {
            if n == name {
                out.add(a);
            }
        }
        out
    }

    /// Span aggregate of `name` under one context.
    pub fn span_in(&self, name: &str, ctx: Ctx) -> SpanAgg {
        self.spans
            .get(&(name.to_string(), ctx))
            .copied()
            .unwrap_or_default()
    }

    /// Counter `name` summed over every context.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Counter `name` under one context.
    pub fn counter_in(&self, name: &str, ctx: Ctx) -> u64 {
        self.counters
            .get(&(name.to_string(), ctx))
            .copied()
            .unwrap_or(0)
    }

    /// Mean of histogram `name` (0 when it saw no observation).
    pub fn hist_mean(&self, name: &str) -> f64 {
        match self.hists.get(name) {
            Some(&(n, sum)) if n > 0 => sum / n as f64,
            _ => 0.0,
        }
    }
}

/// Thread-local tables keyed by the name's address: string literals of
/// one name may live at several addresses (one per crate), which the
/// merge folds together by value.
#[derive(Default)]
struct LocalAgg {
    spans: Vec<(&'static str, Ctx, SpanAgg)>,
    counters: Vec<(&'static str, Ctx, u64)>,
    hists: Vec<(&'static str, u64, f64)>,
}

impl LocalAgg {
    fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.hists.is_empty()
    }

    fn merge_into(&mut self, p: &mut Profile) {
        for (name, ctx, a) in self.spans.drain(..) {
            p.spans.entry((name.to_string(), ctx)).or_default().add(&a);
        }
        for (name, ctx, v) in self.counters.drain(..) {
            *p.counters.entry((name.to_string(), ctx)).or_default() += v;
        }
        for (name, n, sum) in self.hists.drain(..) {
            let e = p.hists.entry(name.to_string()).or_default();
            e.0 += n;
            e.1 += sum;
        }
    }
}

struct Frame {
    id: SpanId,
    name: &'static str,
    ctx: Ctx,
    start: Instant,
    child_ns: u64,
    nested: bool,
}

struct Local {
    owner: usize,
    stack: Vec<Frame>,
    agg: LocalAgg,
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            owner: 0,
            stack: Vec::new(),
            agg: LocalAgg {
                spans: Vec::new(),
                counters: Vec::new(),
                hists: Vec::new(),
            },
        })
    };
}

static NEXT_PROFILER: AtomicUsize = AtomicUsize::new(1);

/// The aggregating recorder. Install it with `obskit::install`, run the
/// work, close every span, then read [`Profiler::snapshot`].
pub struct Profiler {
    id: usize,
    next_span: AtomicU64,
    merged: Mutex<Profile>,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Profiler {
            id: NEXT_PROFILER.fetch_add(1, Ordering::Relaxed),
            next_span: AtomicU64::new(1),
            merged: Mutex::new(Profile::default()),
        }
    }

    /// Everything merged so far. Spans still open on some thread, and
    /// events that thread recorded under them, are not included.
    pub fn snapshot(&self) -> Profile {
        self.merged.lock().expect("profile lock poisoned").clone()
    }

    /// Runs `f` on this thread's tables, resetting them if they last
    /// belonged to another profiler, then merges them into the shared
    /// table if no span is left open on this thread.
    fn with_local(&self, f: impl FnOnce(&mut Local)) {
        LOCAL.with(|cell| {
            let mut local = cell.borrow_mut();
            if local.owner != self.id {
                local.owner = self.id;
                local.stack.clear();
                local.agg = LocalAgg::default();
            }
            f(&mut local);
            if local.stack.is_empty() && !local.agg.is_empty() {
                local
                    .agg
                    .merge_into(&mut self.merged.lock().expect("profile lock poisoned"));
            }
        });
    }
}

impl Recorder for Profiler {
    fn span_begin(&self, name: &'static str, _parent: Option<SpanId>) -> SpanId {
        let id = SpanId(self.next_span.fetch_add(1, Ordering::Relaxed));
        self.with_local(|local| {
            let ctx = if name == "shooting" {
                Ctx::Transim
            } else {
                local.stack.last().map_or(Ctx::None, |top| top.ctx)
            };
            let nested = local.stack.iter().any(|f| f.name == name);
            local.stack.push(Frame {
                id,
                name,
                ctx,
                start: Instant::now(),
                child_ns: 0,
                nested,
            });
        });
        id
    }

    fn span_end(&self, id: SpanId) {
        let end = Instant::now();
        self.with_local(|local| {
            let Some(pos) = local.stack.iter().rposition(|f| f.id == id) else {
                return;
            };
            // Spans are strictly nested; anything above `pos` was left
            // open by misuse and is dropped with it.
            let frame = local.stack.swap_remove(pos);
            local.stack.truncate(pos);
            let incl = end.duration_since(frame.start).as_nanos() as u64;
            if let Some(parent) = local.stack.last_mut() {
                parent.child_ns += incl;
            }
            let agg = SpanAgg {
                count: 1,
                incl_ns: if frame.nested { 0 } else { incl },
                self_ns: incl.saturating_sub(frame.child_ns),
            };
            match local
                .agg
                .spans
                .iter_mut()
                .find(|(n, c, _)| std::ptr::eq(*n, frame.name) && *c == frame.ctx)
            {
                Some((_, _, a)) => a.add(&agg),
                None => local.agg.spans.push((frame.name, frame.ctx, agg)),
            }
        });
    }

    fn span_attr(&self, id: SpanId, key: &'static str, value: AttrValue) {
        if key != "kind" {
            return;
        }
        let AttrValue::Str(kind) = value else { return };
        let Some(ctx) = Ctx::of_kind(kind) else {
            return;
        };
        self.with_local(|local| {
            if let Some(top) = local.stack.last_mut() {
                if top.id == id {
                    top.ctx = ctx;
                }
            }
        });
    }

    fn point(
        &self,
        _name: &'static str,
        _parent: Option<SpanId>,
        _attrs: &[(&'static str, AttrValue)],
    ) {
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        self.with_local(|local| {
            let ctx = local.stack.last().map_or(Ctx::None, |f| f.ctx);
            match local
                .agg
                .counters
                .iter_mut()
                .find(|(n, c, _)| std::ptr::eq(*n, name) && *c == ctx)
            {
                Some((_, _, v)) => *v += delta,
                None => local.agg.counters.push((name, ctx, delta)),
            }
        });
    }

    fn observe(&self, name: &'static str, value: f64) {
        self.with_local(|local| {
            match local
                .agg
                .hists
                .iter_mut()
                .find(|(n, _, _)| std::ptr::eq(*n, name))
            {
                Some((_, n, sum)) => {
                    *n += 1;
                    *sum += value;
                }
                None => local.agg.hists.push((name, 1, value)),
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn self_time_excludes_children_and_contexts_split() {
        let prof = Arc::new(Profiler::new());
        {
            let _g = obskit::install(prof.clone());
            let op = obskit::span_with("op", &[("kind", AttrValue::Str("wampde"))]);
            {
                let _sh = obskit::span("shooting");
                let _st = obskit::span("time-step");
                obskit::counter_add("step.accepted", 1);
            }
            {
                let _st = obskit::span("time-step");
                std::thread::sleep(std::time::Duration::from_millis(2));
                obskit::counter_add("step.accepted", 2);
            }
            drop(op);
        }
        let p = prof.snapshot();
        assert_eq!(p.span_in("time-step", Ctx::Transim).count, 1);
        assert_eq!(p.span_in("time-step", Ctx::Wampde).count, 1);
        assert_eq!(p.counter_in("step.accepted", Ctx::Transim), 1);
        assert_eq!(p.counter_in("step.accepted", Ctx::Wampde), 2);
        let op = p.span("op");
        assert_eq!(op.count, 1);
        assert!(op.self_ns < op.incl_ns);
        assert!(op.incl_ns >= 2_000_000);
    }

    #[test]
    fn nested_same_name_spans_count_outer_time_once() {
        let prof = Arc::new(Profiler::new());
        {
            let _g = obskit::install(prof.clone());
            let _outer = obskit::span("shooting");
            let _inner = obskit::span("shooting");
        }
        let s = prof.snapshot().span("shooting");
        assert_eq!(s.count, 2);
        // Counted once, the outer span's time is its own plus the inner's.
        assert_eq!(s.incl_ns, s.self_ns);
    }

    #[test]
    fn helper_threads_merge_their_tables() {
        let prof = Arc::new(Profiler::new());
        {
            let _g = obskit::install(prof.clone());
            let _sh = obskit::span("shooting");
            let handle = obskit::current();
            std::thread::scope(|s| {
                for _ in 0..3 {
                    let h = handle.clone();
                    s.spawn(move || {
                        let _g = h.map(obskit::install_handle);
                        let _b = obskit::span("factor.block");
                        obskit::counter_add("factor.parallel_blocks", 1);
                    });
                }
            });
        }
        let p = prof.snapshot();
        assert_eq!(p.span("factor.block").count, 3);
        assert_eq!(p.counter("factor.parallel_blocks"), 3);
    }
}
