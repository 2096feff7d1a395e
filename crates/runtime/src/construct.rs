//! Arrival-driven sequence construction with out-of-order compensation.

use std::sync::Arc;

use sequin_query::Query;
use sequin_types::{Duration, EventRef};

use crate::stack::AisStack;
use crate::stats::RuntimeStats;

/// Tunables for [`Constructor`] (the paper's CPU optimizations, each
/// individually switchable for ablation benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstructOpts {
    /// Locate each slot's candidate range by binary search on the
    /// window/sequence bounds instead of scanning the whole stack
    /// (the *early window cut-off* optimization).
    pub window_cutoff: bool,
}

impl Default for ConstructOpts {
    fn default() -> Self {
        ConstructOpts {
            window_cutoff: true,
        }
    }
}

/// The caller's side of one construction walk ([`walk`]): where each
/// position's candidates live and what happens as positions bind.
///
/// The walk owns the visiting order and the window bounds; a site
/// supplies the rest. [`Constructor`] is the site for one query, over its
/// own stacks or over stacks pooled with other queries; the shared
/// multi-query evaluator adds a site for prefix walks shared by a group
/// of queries.
pub trait WalkSite<'s> {
    /// The stack holding position `pos`'s candidates, sorted by
    /// timestamp.
    fn stack(&self, pos: usize) -> &'s AisStack;

    /// Whether a candidate takes part at all. Rejected candidates are
    /// skipped before they count as a step (a pooled stack's partition
    /// key filter).
    fn admit(&self, pos: usize, ev: &EventRef) -> bool;

    /// Checks the predicates that binding `pos` decides, against the
    /// partial assignment `chosen`; `false` prunes the branch.
    fn bind(&mut self, chosen: &[Option<EventRef>], pos: usize) -> bool;

    /// Counts one visited candidate (a DFS step).
    fn step(&mut self);

    /// Receives an assignment with every position bound.
    fn complete(&mut self, chosen: &[Option<EventRef>]);
}

/// Fixed inputs of one walk.
struct Bounds {
    len: usize,
    anchor: usize,
    window: Duration,
    cutoff: bool,
}

/// Enumerates every assignment of positions `0..len` that contains
/// `anchor` at `anchor_pos`, in strict timestamp order with a span of at
/// most `window`: the prefix below the anchor newest-first, then the
/// suffix above it in ascending order, binding each position through
/// `site`. With `opts.window_cutoff` each position's candidates are
/// located by binary search; otherwise the whole stack is scanned and
/// out-of-bound candidates are skipped after counting as steps.
///
/// # Panics
///
/// Panics if `anchor_pos >= len`.
pub fn walk<'s>(
    site: &mut impl WalkSite<'s>,
    len: usize,
    anchor_pos: usize,
    anchor: &EventRef,
    window: Duration,
    opts: ConstructOpts,
) {
    let mut chosen: Vec<Option<EventRef>> = vec![None; len];
    chosen[anchor_pos] = Some(Arc::clone(anchor));
    // the anchor's already-decidable predicates prune before any descent
    if !site.bind(&chosen, anchor_pos) {
        return;
    }
    let b = Bounds {
        len,
        anchor: anchor_pos,
        window,
        cutoff: opts.window_cutoff,
    };
    extend_prefix(site, &b, anchor_pos, &mut chosen);
}

/// Fills positions `b.anchor-1 .. 0` (descending), then hands off to
/// [`extend_suffix`].
fn extend_prefix<'s>(
    site: &mut impl WalkSite<'s>,
    b: &Bounds,
    filled_down_to: usize,
    chosen: &mut [Option<EventRef>],
) {
    if filled_down_to == 0 {
        extend_suffix(site, b, b.anchor, chosen);
        return;
    }
    let pos = filled_down_to - 1;
    let next_ts = chosen[pos + 1].as_ref().expect("slot above is bound").ts();
    let anchor_ts = chosen[b.anchor].as_ref().expect("anchor bound").ts();
    // span <= W and last >= anchor force every prefix ts >= anchor - W
    let lo = anchor_ts.saturating_sub(b.window);
    let stack = site.stack(pos);
    let candidates: &[EventRef] = if b.cutoff {
        stack.range(lo, next_ts)
    } else {
        stack.events()
    };
    // Iterate newest-first: matches closest to the anchor come out
    // first, matching the classic engine's most-recent-first DFS.
    for ev in candidates.iter().rev() {
        if !site.admit(pos, ev) {
            continue;
        }
        site.step();
        if !b.cutoff && (ev.ts() < lo || ev.ts() >= next_ts) {
            continue;
        }
        chosen[pos] = Some(Arc::clone(ev));
        if site.bind(chosen, pos) {
            extend_prefix(site, b, pos, chosen);
        }
        chosen[pos] = None;
    }
}

/// Fills positions `b.anchor+1 .. b.len-1` (ascending); completes the
/// assignment at the top.
fn extend_suffix<'s>(
    site: &mut impl WalkSite<'s>,
    b: &Bounds,
    filled_up_to: usize,
    chosen: &mut [Option<EventRef>],
) {
    if filled_up_to + 1 == b.len {
        site.complete(chosen);
        return;
    }
    let pos = filled_up_to + 1;
    let prev_ts = chosen[pos - 1].as_ref().expect("slot below is bound").ts();
    let first_ts = chosen[0].as_ref().expect("prefix complete").ts();
    // strict sequence order and span <= W: prev < ts <= first + W
    let lo = prev_ts.saturating_add(Duration::new(1));
    let hi = first_ts
        .saturating_add(b.window)
        .saturating_add(Duration::new(1));
    let stack = site.stack(pos);
    let candidates: &[EventRef] = if b.cutoff {
        stack.range(lo, hi)
    } else {
        stack.events()
    };
    for ev in candidates.iter() {
        if !site.admit(pos, ev) {
            continue;
        }
        site.step();
        if !b.cutoff && (ev.ts() < lo || ev.ts() >= hi) {
            continue;
        }
        chosen[pos] = Some(Arc::clone(ev));
        if site.bind(chosen, pos) {
            extend_suffix(site, b, pos, chosen);
        }
        chosen[pos] = None;
    }
}

/// Enumerates pattern matches from a set of active instance stacks.
///
/// The key operation is [`Constructor::matches_with`]: all matches that
/// **contain a given anchor event** at a given positive slot, drawing every
/// other constituent from the current stacks. Invoked on each insertion,
/// this realizes the paper's out-of-order compensation discipline:
///
/// > a match is emitted exactly when its last-arriving constituent is
/// > inserted — at that moment (and no earlier) all of its events are
/// > present, and no later insertion can produce it again because every
/// > match enumerated here contains the *new* event.
///
/// For in-order input, anchoring at the last slot only (as the classic
/// engine does) is equivalent.
#[derive(Debug, Clone)]
pub struct Constructor {
    query: Arc<Query>,
    opts: ConstructOpts,
}

impl Constructor {
    /// Creates a constructor for `query`.
    pub fn new(query: Arc<Query>, opts: ConstructOpts) -> Constructor {
        Constructor { query, opts }
    }

    /// The query this constructor evaluates.
    pub fn query(&self) -> &Arc<Query> {
        &self.query
    }

    /// Enumerates every match containing `anchor` at positive slot
    /// `anchor_slot`, with the remaining components drawn from `stacks`
    /// (one stack per positive slot, each sorted by timestamp). Matches are
    /// appended to `out` as positive-order event vectors.
    ///
    /// `stacks[anchor_slot]` may or may not already contain the anchor; it
    /// is never read for the anchor slot.
    ///
    /// # Panics
    ///
    /// Panics if `stacks.len()` differs from the query's positive length or
    /// `anchor_slot` is out of range.
    pub fn matches_with(
        &self,
        stacks: &[AisStack],
        anchor_slot: usize,
        anchor: &EventRef,
        stats: &mut RuntimeStats,
        out: &mut Vec<Vec<EventRef>>,
    ) {
        assert_eq!(
            stacks.len(),
            self.query.positive_len(),
            "one stack per positive slot"
        );
        self.matches_over(
            |slot| &stacks[slot],
            |_, _| true,
            anchor_slot,
            anchor,
            stats,
            out,
        );
    }

    /// Like [`Constructor::matches_with`], with slot `p`'s candidates in
    /// `stack_of(p)` and only those `admit(p, event)` accepts taking part
    /// (a pooled stack shared by several queries, filtered to the
    /// anchor's partition key).
    ///
    /// # Panics
    ///
    /// Panics if `anchor_slot` is out of range.
    pub fn matches_over<'s>(
        &self,
        stack_of: impl Fn(usize) -> &'s AisStack,
        admit: impl Fn(usize, &EventRef) -> bool,
        anchor_slot: usize,
        anchor: &EventRef,
        stats: &mut RuntimeStats,
        out: &mut Vec<Vec<EventRef>>,
    ) {
        let m = self.query.positive_len();
        assert!(anchor_slot < m, "anchor slot out of range");
        let mut site = QuerySite {
            query: &self.query,
            stack_of,
            admit,
            stats,
            out,
        };
        walk(
            &mut site,
            m,
            anchor_slot,
            anchor,
            self.query.window(),
            self.opts,
        );
    }
}

/// One query's walk: its own predicates, its stats, its match list.
struct QuerySite<'a, F, A> {
    query: &'a Query,
    stack_of: F,
    admit: A,
    stats: &'a mut RuntimeStats,
    out: &'a mut Vec<Vec<EventRef>>,
}

impl<'s, F, A> WalkSite<'s> for QuerySite<'_, F, A>
where
    F: Fn(usize) -> &'s AisStack,
    A: Fn(usize, &EventRef) -> bool,
{
    fn stack(&self, pos: usize) -> &'s AisStack {
        (self.stack_of)(pos)
    }

    fn admit(&self, pos: usize, ev: &EventRef) -> bool {
        (self.admit)(pos, ev)
    }

    fn bind(&mut self, chosen: &[Option<EventRef>], pos: usize) -> bool {
        check_new_binding(self.query, chosen, pos, self.stats)
    }

    fn step(&mut self) {
        self.stats.dfs_steps += 1;
    }

    fn complete(&mut self, chosen: &[Option<EventRef>]) {
        self.stats.matches_constructed += 1;
        self.out.push(
            chosen
                .iter()
                .map(|c| Arc::clone(c.as_ref().expect("complete")))
                .collect(),
        );
    }
}

/// Evaluates, against the current partial assignment, every positive
/// predicate that references the just-bound slot. A predicate whose other
/// references are still unbound reports `None` (undecided) and does not
/// prune; each predicate therefore fires exactly once per complete path —
/// when its last referenced slot binds.
fn check_new_binding(
    query: &Query,
    chosen: &[Option<EventRef>],
    slot: usize,
    stats: &mut RuntimeStats,
) -> bool {
    let comp = query.positive_comp(slot);
    let mut binding: Vec<Option<&EventRef>> = vec![None; query.components().len()];
    for (p, c) in chosen.iter().enumerate() {
        if let Some(ev) = c.as_ref() {
            binding[query.positive_comp(p)] = Some(ev);
        }
    }
    for pred in query.predicates() {
        if pred.mask().contains(comp) {
            stats.predicate_evals += 1;
            if pred.eval(&binding) == Some(false) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_query::parse;
    use sequin_types::{Event, EventId, Timestamp, TypeRegistry, Value, ValueKind};

    fn registry() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B", "C"] {
            reg.declare(name, &[("x", ValueKind::Int)]).unwrap();
        }
        reg
    }

    fn ev(reg: &TypeRegistry, ty: &str, id: u64, ts: u64, x: i64) -> EventRef {
        Arc::new(
            Event::builder(reg.lookup(ty).unwrap(), Timestamp::new(ts))
                .id(EventId::new(id))
                .attr(Value::Int(x))
                .build(),
        )
    }

    fn stacks_for(query: &Query, events: &[EventRef]) -> Vec<AisStack> {
        let mut stacks = vec![AisStack::new(); query.positive_len()];
        for e in events {
            for slot in query.slots_for_type(e.event_type()) {
                stacks[slot].insert(Arc::clone(e));
            }
        }
        stacks
    }

    fn run(
        query: &Arc<Query>,
        stacks: &[AisStack],
        slot: usize,
        anchor: &EventRef,
        cutoff: bool,
    ) -> Vec<Vec<u64>> {
        let ctor = Constructor::new(
            Arc::clone(query),
            ConstructOpts {
                window_cutoff: cutoff,
            },
        );
        let mut stats = RuntimeStats::default();
        let mut out = Vec::new();
        ctor.matches_with(stacks, slot, anchor, &mut stats, &mut out);
        let mut ids: Vec<Vec<u64>> = out
            .iter()
            .map(|m| m.iter().map(|e| e.id().get()).collect())
            .collect();
        ids.sort();
        ids
    }

    #[test]
    fn anchor_at_last_slot_enumerates_prefixes() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        let a1 = ev(&reg, "A", 1, 10, 0);
        let a2 = ev(&reg, "A", 2, 20, 0);
        let b = ev(&reg, "B", 3, 30, 0);
        let stacks = stacks_for(&q, &[a1, a2, Arc::clone(&b)]);
        assert_eq!(run(&q, &stacks, 1, &b, true), vec![vec![1, 3], vec![2, 3]]);
    }

    #[test]
    fn anchor_in_middle_joins_both_sides() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b, C c) WITHIN 100", &reg).unwrap();
        let a = ev(&reg, "A", 1, 10, 0);
        let b = ev(&reg, "B", 2, 20, 0);
        let c1 = ev(&reg, "C", 3, 30, 0);
        let c2 = ev(&reg, "C", 4, 40, 0);
        let stacks = stacks_for(&q, &[a, Arc::clone(&b), c1, c2]);
        assert_eq!(
            run(&q, &stacks, 1, &b, true),
            vec![vec![1, 2, 3], vec![1, 2, 4]]
        );
    }

    #[test]
    fn window_excludes_wide_spans() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 5", &reg).unwrap();
        let a = ev(&reg, "A", 1, 10, 0);
        let b = ev(&reg, "B", 2, 16, 0); // span 6 > 5
        let stacks = stacks_for(&q, &[a, Arc::clone(&b)]);
        assert!(run(&q, &stacks, 1, &b, true).is_empty());
        // span exactly W is allowed
        let b2 = ev(&reg, "B", 3, 15, 0);
        let a2 = ev(&reg, "A", 4, 10, 0);
        let q2 = parse("PATTERN SEQ(A a, B b) WITHIN 5", &reg).unwrap();
        let stacks2 = stacks_for(&q2, &[a2, Arc::clone(&b2)]);
        assert_eq!(run(&q2, &stacks2, 1, &b2, true), vec![vec![4, 3]]);
    }

    #[test]
    fn strict_timestamp_order_required() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        let a = ev(&reg, "A", 1, 10, 0);
        let b = ev(&reg, "B", 2, 10, 0); // simultaneous: not a sequence
        let stacks = stacks_for(&q, &[a, Arc::clone(&b)]);
        assert!(run(&q, &stacks, 1, &b, true).is_empty());
    }

    #[test]
    fn predicates_prune_during_walk() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 100", &reg).unwrap();
        let a1 = ev(&reg, "A", 1, 10, 7);
        let a2 = ev(&reg, "A", 2, 20, 9);
        let b = ev(&reg, "B", 3, 30, 7);
        let stacks = stacks_for(&q, &[a1, a2, Arc::clone(&b)]);
        assert_eq!(run(&q, &stacks, 1, &b, true), vec![vec![1, 3]]);
    }

    #[test]
    fn local_predicate_on_anchor_prunes_immediately() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WHERE b.x > 100 WITHIN 100", &reg).unwrap();
        let a = ev(&reg, "A", 1, 10, 0);
        let b = ev(&reg, "B", 2, 20, 5); // fails local predicate
        let stacks = stacks_for(&q, &[a, Arc::clone(&b)]);
        let mut stats = RuntimeStats::default();
        let mut out = Vec::new();
        Constructor::new(Arc::clone(&q), ConstructOpts::default())
            .matches_with(&stacks, 1, &b, &mut stats, &mut out);
        assert!(out.is_empty());
        assert_eq!(stats.dfs_steps, 0, "anchor rejected before any descent");
    }

    #[test]
    fn cutoff_and_full_scan_agree() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b, C c) WHERE a.x < c.x WITHIN 15", &reg).unwrap();
        let mut events = Vec::new();
        let mut id = 0;
        for ts in (0..60).step_by(3) {
            id += 1;
            let ty = ["A", "B", "C"][ts as usize % 3];
            events.push(ev(&reg, ty, id, ts, (ts % 7) as i64));
        }
        let stacks = stacks_for(&q, &events);
        for e in &events {
            for slot in q.slots_for_type(e.event_type()) {
                assert_eq!(
                    run(&q, &stacks, slot, e, true),
                    run(&q, &stacks, slot, e, false),
                    "cutoff changed results for anchor {} slot {slot}",
                    e.id()
                );
            }
        }
    }

    #[test]
    fn cutoff_reduces_dfs_steps() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 5", &reg).unwrap();
        let mut events = Vec::new();
        for i in 0..50 {
            events.push(ev(&reg, "A", i, i * 10, 0));
        }
        let b = ev(&reg, "B", 99, 251, 0);
        events.push(Arc::clone(&b));
        let stacks = stacks_for(&q, &events);
        let mut s1 = RuntimeStats::default();
        let mut s2 = RuntimeStats::default();
        let mut out = Vec::new();
        Constructor::new(
            Arc::clone(&q),
            ConstructOpts {
                window_cutoff: true,
            },
        )
        .matches_with(&stacks, 1, &b, &mut s1, &mut out);
        out.clear();
        Constructor::new(
            Arc::clone(&q),
            ConstructOpts {
                window_cutoff: false,
            },
        )
        .matches_with(&stacks, 1, &b, &mut s2, &mut out);
        assert!(s1.dfs_steps < s2.dfs_steps);
    }

    #[test]
    fn single_component_query_matches_anchor_alone() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a) WHERE a.x > 0 WITHIN 10", &reg).unwrap();
        let a = ev(&reg, "A", 1, 10, 5);
        let stacks = stacks_for(&q, &[]);
        assert_eq!(run(&q, &stacks, 0, &a, true), vec![vec![1]]);
        let bad = ev(&reg, "A", 2, 10, -5);
        assert!(run(&q, &stacks, 0, &bad, true).is_empty());
    }

    #[test]
    fn repeated_type_uses_distinct_events() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a1, A a2) WITHIN 100", &reg).unwrap();
        let a1 = ev(&reg, "A", 1, 10, 0);
        let a2 = ev(&reg, "A", 2, 20, 0);
        let stacks = stacks_for(&q, &[a1, Arc::clone(&a2)]);
        // anchored at slot 1, the only prefix candidate is the earlier A
        assert_eq!(run(&q, &stacks, 1, &a2, true), vec![vec![1, 2]]);
        // anchored at slot 0, the suffix candidate is the later A
        let a1_again = stacks[0].events()[0].clone();
        assert_eq!(run(&q, &stacks, 0, &a1_again, true), vec![vec![1, 2]]);
    }
}
