//! `mcheck::Model` wrappers: a per-state timer for the timed run and a
//! span-recording, depth-tracking wrapper for the traced run. Both forward
//! every call unchanged, so the engine explores exactly the states it
//! explores on the bare model.

use crate::recorder::{self, BOOKKEEPING, CHOICES, MODEL_OTHER};
use byzclock_mcheck::{Choice, Model};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::time::Instant;

/// Times the engine's per-state loop: the interval between two successive
/// [`Model::choices`] calls is one state's full cost (the model's
/// successor enumeration plus the engine's interning of the results),
/// recorded per transition the state enumerated.
pub struct TimedModel<M> {
    inner: M,
    last: Cell<Option<(Instant, usize)>>,
    samples: RefCell<Vec<u64>>,
}

impl<M> TimedModel<M> {
    pub fn new(inner: M) -> Self {
        TimedModel {
            inner,
            last: Cell::new(None),
            samples: RefCell::new(Vec::new()),
        }
    }

    /// Per-transition host times in ns, one per expanded state (the last
    /// expanded state has none).
    pub fn into_samples(self) -> Vec<u64> {
        self.samples.into_inner()
    }
}

impl<M: Model> Model for TimedModel<M> {
    type State = M::State;

    fn name(&self) -> String {
        self.inner.name()
    }

    fn initial_states(&self) -> Vec<M::State> {
        self.inner.initial_states()
    }

    fn choices(&self, state: &M::State) -> Vec<Choice<M::State>> {
        let now = Instant::now();
        if let Some((prev, edges)) = self.last.get() {
            self.samples
                .borrow_mut()
                .push((now - prev).as_nanos() as u64 / edges.max(1) as u64);
        }
        let choices = self.inner.choices(state);
        let edges = choices
            .iter()
            .map(|c| c.common.len() + c.adversarial.len())
            .sum();
        self.last.set(Some((now, edges)));
        choices
    }

    fn is_synced(&self, state: &M::State) -> bool {
        self.inner.is_synced(state)
    }

    fn bound_beats(&self) -> u32 {
        self.inner.bound_beats()
    }

    fn rank_per_beat(&self) -> u32 {
        self.inner.rank_per_beat()
    }

    fn describe(&self, state: &M::State) -> String {
        self.inner.describe(state)
    }

    fn synced_progress(&self, from: &M::State, to: &M::State) -> bool {
        self.inner.synced_progress(from, to)
    }
}

/// Records a span per model call and tracks each state's BFS depth (in
/// model beats from the wake-up states), so a capped search can report
/// how deep it reached.
pub struct TracedModel<M: Model> {
    inner: M,
    depth: RefCell<HashMap<M::State, u32>>,
    deepest: Cell<u32>,
}

impl<M: Model> TracedModel<M> {
    pub fn new(inner: M) -> Self {
        TracedModel {
            inner,
            depth: RefCell::new(HashMap::new()),
            deepest: Cell::new(0),
        }
    }

    /// Depth, in beats, of the deepest state the search discovered.
    pub fn depth_beats(&self) -> u64 {
        u64::from(self.deepest.get() / self.inner.rank_per_beat())
    }
}

impl<M: Model> Model for TracedModel<M> {
    type State = M::State;

    fn name(&self) -> String {
        self.inner.name()
    }

    fn initial_states(&self) -> Vec<M::State> {
        let span = recorder::begin(MODEL_OTHER);
        let states = self.inner.initial_states();
        recorder::end(span);
        let span = recorder::begin(BOOKKEEPING);
        let mut depth = self.depth.borrow_mut();
        for s in &states {
            depth.insert(s.clone(), 0);
        }
        recorder::end(span);
        states
    }

    fn choices(&self, state: &M::State) -> Vec<Choice<M::State>> {
        let span = recorder::begin(CHOICES);
        let choices = self.inner.choices(state);
        recorder::end(span);
        let span = recorder::begin(BOOKKEEPING);
        let mut depth = self.depth.borrow_mut();
        let next = depth.get(state).copied().unwrap_or(0) + 1;
        for c in &choices {
            for t in c.common.iter().chain(&c.adversarial) {
                if !depth.contains_key(t) {
                    depth.insert(t.clone(), next);
                    self.deepest.set(self.deepest.get().max(next));
                }
            }
        }
        recorder::end(span);
        choices
    }

    fn is_synced(&self, state: &M::State) -> bool {
        let span = recorder::begin(MODEL_OTHER);
        let synced = self.inner.is_synced(state);
        recorder::end(span);
        synced
    }

    fn bound_beats(&self) -> u32 {
        self.inner.bound_beats()
    }

    fn rank_per_beat(&self) -> u32 {
        self.inner.rank_per_beat()
    }

    fn describe(&self, state: &M::State) -> String {
        self.inner.describe(state)
    }

    fn synced_progress(&self, from: &M::State, to: &M::State) -> bool {
        let span = recorder::begin(MODEL_OTHER);
        let ok = self.inner.synced_progress(from, to);
        recorder::end(span);
        ok
    }
}
