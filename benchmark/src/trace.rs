//! In-memory span recorder for the lockstep replay.
//!
//! A span is `{name, start_ns, end_ns, parent, req}`. Spans nest strictly
//! (the replay is one thread), so a stack suffices: closing a span adds its
//! duration to its parent's child time, and a span's **self time** is its
//! duration minus the part its children cover. Per-name totals are kept for
//! every span; full spans are kept only for sampled requests, and everything
//! is written out after the replay ends.
//!
//! Root spans **tile** the timeline: a root starts where the previous root
//! ended, so what the loop does between two layer calls — its own
//! bookkeeping and the recorder's — lands in the root's self time, and the
//! self times of all names add up to the traced stretch exactly.
//!
//! The recorder sits behind an `Arc<Mutex<_>>` handle because the storage
//! layer's spans are recorded from inside a `SegmentBackend` (which must be
//! `Send`); the lock is never contended.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use bamboo_types::Json;

/// One completed span of a sampled request.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (into the sampled-span list) of the enclosing span.
    pub parent: Option<usize>,
    /// The request this span served: the client batch's ordinal for edge
    /// spans, the consensus view for message spans.
    pub req: u64,
}

/// Accumulated time of all spans sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    req: u64,
    /// Slot reserved in `spans` when the request is sampled.
    slot: Option<usize>,
}

/// The recorder. Time comes from the caller so tests can script it.
#[derive(Default)]
pub struct Recorder {
    stack: Vec<Open>,
    totals: Vec<(&'static str, Total)>,
    spans: Vec<Span>,
    sample_every: u64,
    last_root_end_ns: Option<u64>,
}

impl Recorder {
    /// Keeps full spans for every request whose id is a multiple of
    /// `sample_every` (0 keeps none).
    pub fn new(sample_every: u64) -> Self {
        Self {
            sample_every,
            ..Self::default()
        }
    }

    /// Opens a span at `now_ns`. A nested span inherits its root's sampling
    /// decision, so a sampled request's tree is complete.
    pub fn enter(&mut self, name: &'static str, req: u64, now_ns: u64) {
        let now_ns = match (self.stack.is_empty(), self.last_root_end_ns) {
            (true, Some(previous_end)) => previous_end,
            _ => now_ns,
        };
        let sampled = match self.stack.last() {
            Some(parent) => parent.slot.is_some(),
            None => self.sample_every > 0 && req % self.sample_every == 0,
        };
        let slot = sampled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: now_ns,
                end_ns: now_ns,
                parent: self.stack.last().and_then(|p| p.slot),
                req,
            });
            self.spans.len() - 1
        });
        self.stack.push(Open {
            name,
            start_ns: now_ns,
            child_ns: 0,
            req,
            slot,
        });
    }

    /// Closes the innermost span at `now_ns`.
    pub fn exit(&mut self, now_ns: u64) {
        let open = self.stack.pop().expect("exit without enter");
        let duration = now_ns.saturating_sub(open.start_ns);
        let total = self.total_mut(open.name);
        total.count += 1;
        total.total_ns += duration;
        total.self_ns += duration.saturating_sub(open.child_ns);
        match self.stack.last_mut() {
            Some(parent) => parent.child_ns += duration,
            None => self.last_root_end_ns = Some(now_ns),
        }
        if let Some(slot) = open.slot {
            self.spans[slot].end_ns = now_ns;
        }
    }

    fn total_mut(&mut self, name: &'static str) -> &mut Total {
        // A dozen names at most: a linear scan beats hashing.
        let index = match self.totals.iter().position(|(n, _)| *n == name) {
            Some(index) => index,
            None => {
                self.totals.push((name, Total::default()));
                self.totals.len() - 1
            }
        };
        &mut self.totals[index].1
    }

    /// The request id of the innermost open span (what a nested layer that
    /// does not know the request should tag its spans with).
    pub fn current_req(&self) -> u64 {
        self.stack.last().map_or(0, |open| open.req)
    }

    /// Totals of one name (zero if it never ran).
    pub fn total(&self, name: &str) -> Total {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(Total::default, |(_, t)| *t)
    }

    /// Sum of self times over every name.
    pub fn self_ns_sum(&self) -> u64 {
        self.totals.iter().map(|(_, t)| t.self_ns).sum()
    }

    /// Sum of self times over names starting with `prefix`.
    pub fn self_ns_of(&self, prefix: &str) -> u64 {
        self.totals
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, t)| t.self_ns)
            .sum()
    }

    /// Per-name totals plus the sampled span trees, for the trace file.
    pub fn to_json(&self) -> Json {
        let totals = self.totals.iter().map(|(name, t)| {
            Json::obj([
                ("name", Json::from(*name)),
                ("count", Json::from(t.count)),
                ("total_ns", Json::from(t.total_ns)),
                ("self_ns", Json::from(t.self_ns)),
            ])
        });
        let spans = self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::from(s.name)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                ),
                ("req", Json::from(s.req)),
            ])
        });
        Json::obj([
            ("sample_every", Json::from(self.sample_every)),
            ("totals", Json::arr(totals)),
            ("spans", Json::arr(spans)),
        ])
    }
}

/// A cloneable handle that stamps spans with a shared monotonic clock. A
/// disabled tracer reads no clock and takes no lock, which is what the
/// spans-off replay (the `tracing.overhead_pct` baseline) runs with.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<(Arc<Mutex<Recorder>>, Instant)>,
}

impl Tracer {
    pub fn enabled(sample_every: u64) -> Self {
        Self {
            inner: Some((
                Arc::new(Mutex::new(Recorder::new(sample_every))),
                Instant::now(),
            )),
        }
    }

    pub fn disabled() -> Self {
        Self { inner: None }
    }

    fn with(&self, f: impl FnOnce(&mut Recorder, u64)) {
        if let Some((recorder, epoch)) = &self.inner {
            let mut recorder = recorder.lock().expect("tracer lock poisoned");
            f(&mut recorder, epoch.elapsed().as_nanos() as u64);
        }
    }

    pub fn enter(&self, name: &'static str, req: u64) {
        self.with(|r, now| r.enter(name, req, now));
    }

    /// Opens a span tagged with the enclosing span's request.
    pub fn enter_nested(&self, name: &'static str) {
        self.with(|r, now| {
            let req = r.current_req();
            r.enter(name, req, now);
        });
    }

    pub fn exit(&self) {
        self.with(|r, now| r.exit(now));
    }

    /// Runs `f` over the recorder (no-op returning `None` when disabled).
    pub fn read<T>(&self, f: impl FnOnce(&Recorder) -> T) -> Option<T> {
        self.inner
            .as_ref()
            .map(|(recorder, _)| f(&recorder.lock().expect("tracer lock poisoned")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new(1);
        r.enter("step", 0, 100);
        r.enter("auth", 0, 110);
        r.exit(150); // auth: 40
        r.enter("replica", 0, 160);
        r.enter("storage", 0, 170);
        r.exit(190); // storage: 20
        r.exit(260); // replica: 100 total, 80 self
        r.exit(300); // step: 200 total, 200 - 40 - 100 = 60 self
        assert_eq!(r.total("auth").self_ns, 40);
        assert_eq!(r.total("storage").self_ns, 20);
        assert_eq!(
            r.total("replica"),
            Total {
                count: 1,
                total_ns: 100,
                self_ns: 80
            }
        );
        assert_eq!(r.total("step").self_ns, 60);
        // Self times partition the root's duration exactly.
        assert_eq!(r.self_ns_sum(), 200);
        assert_eq!(r.total("never").count, 0);
    }

    #[test]
    fn sampled_trees_are_complete_and_link_to_parents() {
        let mut r = Recorder::new(100);
        for req in [0u64, 1, 100] {
            r.enter("step", req, req * 10);
            r.enter("auth", req, req * 10 + 1);
            r.exit(req * 10 + 2);
            r.exit(req * 10 + 3);
        }
        // Requests 0 and 100 are sampled, request 1 is not; totals see all.
        assert_eq!(r.total("step").count, 3);
        assert_eq!(r.spans.len(), 4);
        assert_eq!(r.spans[0].parent, None);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[3].parent, Some(2));
        assert_eq!(r.spans[3].req, 100);
        // Roots tile: request 100's root starts where request 1's ended.
        assert_eq!((r.spans[2].start_ns, r.spans[2].end_ns), (13, 1003));
        assert_eq!((r.spans[3].start_ns, r.spans[3].end_ns), (1001, 1002));
        // ... so self times add up to the whole stretch, gaps included.
        assert_eq!(r.self_ns_sum(), 1003);
    }

    #[test]
    fn nested_span_inherits_request_and_disabled_tracer_records_nothing() {
        let tracer = Tracer::enabled(1);
        tracer.enter("step", 42);
        tracer.enter_nested("storage.sync");
        tracer.exit();
        tracer.exit();
        let reqs = tracer.read(|r| r.spans.iter().map(|s| s.req).collect::<Vec<_>>());
        assert_eq!(reqs, Some(vec![42, 42]));
        let off = Tracer::disabled();
        off.enter("step", 1);
        off.exit();
        assert!(off.read(|r| r.self_ns_sum()).is_none());
    }
}
