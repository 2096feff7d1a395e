//! # sequin-plan
//!
//! A shared-state multi-query compiler for sequence pattern queries.
//!
//! Registering thousands of standing queries as isolated engines makes
//! every arrival pay the full per-query cost: one stack set, one
//! insertion, one construction walk per query, even for queries whose
//! pattern cannot possibly involve the event's type. This crate compiles
//! a set of analyzed [`Query`] values (plus a registration *epoch* per
//! query, see below) into one [`SharedPlan`] that the shared evaluator in
//! `sequin-engine` executes:
//!
//! * **Predicate pushdown / stack pooling.** Each positive slot is
//!   described by a [`SlotSig`]: accepted event types, the canonicalized
//!   single-event predicates evaluable at insert time, the partition key
//!   field (when the query shards by an equality chain) and the epoch.
//!   Slots with identical signatures — across queries — share one pooled
//!   AIS stack: `SEQ(A a, B b, C c)` and `SEQ(A a, B b, D d)` keep one
//!   `A` stack and one `B` stack between them, and a slot's local
//!   predicates are evaluated once per arrival rather than once per
//!   query.
//! * **Common-prefix sharing.** Queries whose prefix slots (every
//!   positive but the last) resolve to the same pooled stacks, the same
//!   window, and the same canonicalized intra-prefix predicates form a
//!   [`PrefixGroup`]: the evaluator enumerates partial matches over the
//!   shared prefix once and *forks* each partial out to every member's
//!   final-slot scan.
//! * **Event-type routing.** [`SharedPlan::routing`] maps each event
//!   type to exactly the pooled stacks and negation-holding queries that
//!   care about it, so an arrival touches plan nodes proportional to the
//!   *interested* queries, not the registered ones.
//!
//! The compiler is pure: it never holds event state. The evaluator owns
//! the stacks and reconciles them across incremental recompiles by
//! signature equality, which is what makes `SUBSCRIBE` cheap at runtime.
//!
//! ## Epochs
//!
//! Byte-identical equivalence with independent evaluation requires that a
//! query subscribed mid-stream must not see events that arrived before
//! its registration (a fresh independent engine would not). Queries
//! registered at the same stream position share an epoch; the epoch is
//! part of every [`SlotSig`], so stacks are only ever pooled between
//! queries with identical arrival histories.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use sequin_query::{Expr, Predicate, Query};
use sequin_types::codec::fnv1a64;
use sequin_types::{Duration, EventTypeId, FieldId};

/// One query as seen by the compiler.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// The analyzed query.
    pub query: Arc<Query>,
    /// Registration epoch (dense index; queries registered at the same
    /// stream position share one).
    pub epoch: usize,
}

/// Identity of a pooled stack: two (query, slot) pairs with equal
/// signatures are served by one physical stack.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SlotSig {
    /// Registration epoch of the owning queries.
    pub epoch: usize,
    /// Accepted event types, sorted.
    pub types: Vec<EventTypeId>,
    /// Canonicalized insert-time (single-event) predicates, in query
    /// order — order matters so pooled evaluation replicates the
    /// independent engines' short-circuit accounting exactly.
    pub local_preds: Vec<String>,
    /// Partition-key field for this slot when the owning query shards by
    /// an equality chain (and partitioning is enabled).
    pub partition: Option<FieldId>,
}

/// A (query, slot) pair referencing a pooled stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackRef {
    /// Dense query index.
    pub query: usize,
    /// Positive slot within that query.
    pub slot: usize,
}

/// A pooled stack and everything anchored on it.
#[derive(Debug, Clone)]
pub struct StackNode {
    /// The pooling signature.
    pub sig: SlotSig,
    /// Every (query, slot) served by this stack.
    pub refs: Vec<StackRef>,
    /// Slot-local predicates of a representative referencing query,
    /// evaluated once per arriving candidate (predicate pushdown). All
    /// refs agree on these by signature equality.
    pub local_preds: Vec<Predicate>,
    /// Representative full-list component index for the local-predicate
    /// binding.
    pub local_comp: usize,
    /// Representative component-list length for the binding width.
    pub local_components: usize,
    /// Prefix-group anchors hosted here: `(group index, prefix position)`
    /// pairs whose shared enumeration starts when an event lands in this
    /// stack.
    pub shared_anchors: Vec<(usize, usize)>,
    /// Per-query construction anchors not covered by a group (final
    /// slots, ungrouped queries).
    pub plain_refs: Vec<StackRef>,
}

/// How one bind step inside a shared prefix walk is accounted for one
/// group member (see [`BindPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindEntry {
    /// A group-common predicate: index into [`PrefixGroup::common`].
    Common(usize),
    /// A member-private predicate spanning into the member's final slot —
    /// undecidable during the prefix walk (the final slot binds last),
    /// but the independent engine still counts the attempt.
    Spanning,
}

/// Predicate bookkeeping for binding one prefix position during the
/// shared walk: which common predicates to evaluate, and — per member —
/// the exact short-circuit accounting the member's independent engine
/// would produce.
#[derive(Debug, Clone, Default)]
pub struct BindPlan {
    /// Indices into [`PrefixGroup::common`] of predicates referencing the
    /// bound component (evaluated once, on the representative binding).
    pub common_touching: Vec<usize>,
    /// Per member (in [`PrefixGroup::members`] order): the member's
    /// predicates referencing the bound component, in the member's own
    /// declaration order.
    pub per_member: Vec<Vec<BindEntry>>,
}

/// One member of a prefix group.
#[derive(Debug, Clone)]
pub struct GroupMember {
    /// Dense query index.
    pub query: usize,
    /// Pooled stack holding the member's final slot.
    pub final_stack: usize,
    /// Partition-key field of the member's final slot, if sharded.
    pub final_partition_field: Option<FieldId>,
}

/// Queries sharing a common prefix: one shared partial-match enumeration
/// over [`PrefixGroup::prefix_stacks`], forked to each member's final
/// slot.
#[derive(Debug, Clone)]
pub struct PrefixGroup {
    /// Shared window (part of the grouping key).
    pub window: Duration,
    /// Pooled stack per prefix position `0..prefix_len`.
    pub prefix_stacks: Vec<usize>,
    /// The representative member's intra-prefix predicates, in
    /// declaration order (identical, after canonicalization, for every
    /// member — that is the grouping condition).
    pub common: Vec<Predicate>,
    /// Representative query (used for predicate bindings).
    pub rep: Arc<Query>,
    /// Per prefix position: the representative's full-list component
    /// index (binding slot for [`PrefixGroup::common`]).
    pub rep_comp_of_pos: Vec<usize>,
    /// Per prefix position: predicate bookkeeping for the bind.
    pub binds: Vec<BindPlan>,
    /// Partition-key fields of the prefix positions, if sharded
    /// (signature equality makes these member-independent).
    pub partition_fields: Option<Vec<FieldId>>,
    /// The members, ascending by query index.
    pub members: Vec<GroupMember>,
}

impl PrefixGroup {
    /// Number of shared prefix positions.
    pub fn prefix_len(&self) -> usize {
        self.prefix_stacks.len()
    }
}

/// Per-event-type routing entry.
#[derive(Debug, Clone, Default)]
pub struct RouteEntry {
    /// Pooled stacks that accept this type.
    pub stacks: Vec<usize>,
    /// Queries with a negation matching this type.
    pub neg_queries: Vec<usize>,
}

/// Per-query node of the lowered plan.
#[derive(Debug, Clone)]
pub struct QueryNode {
    /// The analyzed query.
    pub query: Arc<Query>,
    /// Registration epoch.
    pub epoch: usize,
    /// Pooled stack index per positive slot.
    pub stack_of_slot: Vec<usize>,
}

/// The lowered shared plan for a query set.
#[derive(Debug, Clone, Default)]
pub struct SharedPlan {
    /// Per-query nodes, dense by registration index.
    pub queries: Vec<QueryNode>,
    /// Pooled stacks.
    pub stacks: Vec<StackNode>,
    /// Common-prefix groups.
    pub groups: Vec<PrefixGroup>,
    /// Event-type → interested plan nodes.
    pub routing: HashMap<EventTypeId, RouteEntry>,
}

impl SharedPlan {
    /// Number of queries whose prefix enumeration is shared with at least
    /// one other query.
    pub fn grouped_queries(&self) -> usize {
        self.groups.iter().map(|g| g.members.len()).sum()
    }
}

/// A stable identifier for a query, derived from its normalized form:
/// independent of registration order, whitespace, and variable spelling
/// (two queries with [`Query::normalized_eq`] get the same id). Used to
/// key per-query metrics so dashboards survive re-registration.
pub fn stable_query_id(query: &Query) -> u64 {
    let mut s = String::new();
    for c in query.components() {
        if c.negated {
            s.push('!');
        }
        for ty in &c.types {
            let _ = write!(s, "{}|", ty.index());
        }
        s.push(';');
    }
    let _ = write!(s, "W{}", query.window().ticks());
    for p in query.predicates() {
        s.push('&');
        s.push_str(&canon_pred(query, p));
    }
    for n in query.negations() {
        let _ = write!(s, "N{}:{:?}:{:?}:{:?}", n.comp, n.types, n.left, n.right);
        for p in &n.predicates {
            s.push('&');
            s.push_str(&canon_pred(query, p));
        }
    }
    let _ = write!(s, "{:?}{:?}", query.projections(), query.partition());
    fnv1a64(s.as_bytes())
}

/// Renders `expr` canonically, naming the component bound at each
/// reference via `token` (positive-position based), so structurally equal
/// predicates from different queries compare equal as strings.
fn canon_expr(expr: &Expr, token: &dyn Fn(usize) -> String, out: &mut String) {
    match expr {
        Expr::Const(v) => {
            let _ = write!(out, "{v:?}");
        }
        Expr::Attr { comp, field } => {
            let _ = write!(out, "{}.a{}", token(*comp), field.index());
        }
        Expr::Ts(comp) => {
            let _ = write!(out, "{}.ts", token(*comp));
        }
        Expr::Id(comp) => {
            let _ = write!(out, "{}.id", token(*comp));
        }
        Expr::Unary { op, expr } => {
            let _ = write!(out, "({op:?} ");
            canon_expr(expr, token, out);
            out.push(')');
        }
        Expr::Binary { op, lhs, rhs } => {
            let _ = write!(out, "({op:?} ");
            canon_expr(lhs, token, out);
            out.push(' ');
            canon_expr(rhs, token, out);
            out.push(')');
        }
    }
}

fn canon_pred(query: &Query, pred: &Predicate) -> String {
    // map full-list component index -> positive position
    let pos_of: HashMap<usize, usize> = (0..query.positive_len())
        .map(|p| (query.positive_comp(p), p))
        .collect();
    let token = move |comp: usize| match pos_of.get(&comp) {
        Some(p) => format!("p{p}"),
        None => format!("n{comp}"), // unreachable for positive predicates
    };
    let mut s = String::new();
    canon_expr(pred.expr(), &token, &mut s);
    s
}

fn canon_local_pred(pred: &Predicate) -> String {
    // a single-component predicate: the position is implied by the slot
    let token = |_: usize| "e".to_string();
    let mut s = String::new();
    canon_expr(pred.expr(), &token, &mut s);
    s
}

fn slot_sig(query: &Query, slot: usize, epoch: usize, partitioned: bool) -> SlotSig {
    let mut types = query.positive_types(slot).to_vec();
    types.sort();
    types.dedup();
    let local_preds = query
        .local_predicates(slot)
        .iter()
        .map(|p| canon_local_pred(p))
        .collect();
    let partition = if partitioned {
        query.partition().map(|s| s.fields[slot])
    } else {
        None
    };
    SlotSig {
        epoch,
        types,
        local_preds,
        partition,
    }
}

/// Compiles `specs` into a [`SharedPlan`].
///
/// `partitioned` mirrors the engine configuration flag: when false, no
/// slot carries a partition key (matching unpartitioned evaluation).
///
/// Compilation is deterministic in the order of `specs`; the evaluator
/// carries stack contents across recompiles by [`SlotSig`] equality.
pub fn compile(specs: &[QuerySpec], partitioned: bool) -> SharedPlan {
    let mut stacks: Vec<StackNode> = Vec::new();
    let mut sig_ix: HashMap<SlotSig, usize> = HashMap::new();
    let mut queries: Vec<QueryNode> = Vec::new();

    // 1. intern pooled stacks
    for (qix, spec) in specs.iter().enumerate() {
        let q = &spec.query;
        let mut stack_of_slot = Vec::new();
        for slot in 0..q.positive_len() {
            let sig = slot_sig(q, slot, spec.epoch, partitioned);
            let six = *sig_ix.entry(sig.clone()).or_insert_with(|| {
                stacks.push(StackNode {
                    sig,
                    refs: Vec::new(),
                    local_preds: q.local_predicates(slot).into_iter().cloned().collect(),
                    local_comp: q.positive_comp(slot),
                    local_components: q.components().len(),
                    shared_anchors: Vec::new(),
                    plain_refs: Vec::new(),
                });
                stacks.len() - 1
            });
            stacks[six].refs.push(StackRef { query: qix, slot });
            stack_of_slot.push(six);
        }
        queries.push(QueryNode {
            query: Arc::clone(q),
            epoch: spec.epoch,
            stack_of_slot,
        });
    }

    // 2. group queries by (prefix stacks, window, intra-prefix predicates)
    type GroupKey = (Vec<usize>, u64, Vec<String>);
    let mut group_members: HashMap<GroupKey, Vec<usize>> = HashMap::new();
    let mut key_order: Vec<GroupKey> = Vec::new();
    for (qix, node) in queries.iter().enumerate() {
        if node.query.positive_len() < 2 {
            continue;
        }
        let q = &node.query;
        let m = q.positive_len();
        let prefix_stacks: Vec<usize> = node.stack_of_slot[..m - 1].to_vec();
        let final_comp = q.positive_comp(m - 1);
        let intra: Vec<String> = q
            .predicates()
            .iter()
            .filter(|p| !p.mask().contains(final_comp))
            .map(|p| canon_pred(q, p))
            .collect();
        let key = (prefix_stacks, q.window().ticks(), intra);
        let members = group_members.entry(key.clone()).or_insert_with(|| {
            key_order.push(key);
            Vec::new()
        });
        members.push(qix);
    }

    let mut groups: Vec<PrefixGroup> = Vec::new();
    for key in key_order {
        let members = &group_members[&key];
        if members.len() < 2 {
            continue;
        }
        let rep_ix = members[0];
        let rep = Arc::clone(&queries[rep_ix].query);
        let m = rep.positive_len();
        let prefix_len = m - 1;
        let rep_final_comp = rep.positive_comp(prefix_len);
        let common: Vec<Predicate> = rep
            .predicates()
            .iter()
            .filter(|p| !p.mask().contains(rep_final_comp))
            .cloned()
            .collect();
        let rep_comp_of_pos: Vec<usize> = (0..prefix_len).map(|p| rep.positive_comp(p)).collect();
        let mut binds: Vec<BindPlan> = Vec::new();
        for (pos, &rep_comp) in rep_comp_of_pos.iter().enumerate() {
            let common_touching: Vec<usize> = common
                .iter()
                .enumerate()
                .filter(|(_, p)| p.mask().contains(rep_comp))
                .map(|(i, _)| i)
                .collect();
            let mut per_member = Vec::new();
            for &mix in members.iter() {
                let mq = &queries[mix].query;
                let m_final = mq.positive_comp(mq.positive_len() - 1);
                let m_comp = mq.positive_comp(pos);
                let mut entries = Vec::new();
                let mut common_counter = 0usize;
                for p in mq.predicates() {
                    let is_common = !p.mask().contains(m_final);
                    if p.mask().contains(m_comp) {
                        entries.push(if is_common {
                            BindEntry::Common(common_counter)
                        } else {
                            BindEntry::Spanning
                        });
                    }
                    if is_common {
                        common_counter += 1;
                    }
                }
                per_member.push(entries);
            }
            binds.push(BindPlan {
                common_touching,
                per_member,
            });
        }
        let partition_fields = if partitioned {
            rep.partition().map(|s| s.fields[..prefix_len].to_vec())
        } else {
            None
        };
        let group_ix = groups.len();
        for (pos, &six) in key.0.iter().enumerate() {
            stacks[six].shared_anchors.push((group_ix, pos));
        }
        let group_members_built: Vec<GroupMember> = members
            .iter()
            .map(|&mix| {
                let mq = &queries[mix].query;
                let final_slot = mq.positive_len() - 1;
                GroupMember {
                    query: mix,
                    final_stack: queries[mix].stack_of_slot[final_slot],
                    final_partition_field: if partitioned {
                        mq.partition().map(|s| s.fields[final_slot])
                    } else {
                        None
                    },
                }
            })
            .collect();
        groups.push(PrefixGroup {
            window: rep.window(),
            prefix_stacks: key.0,
            common,
            rep,
            rep_comp_of_pos,
            binds,
            partition_fields,
            members: group_members_built,
        });
    }

    // 3. plain refs: anchors not covered by a group's shared prefix walk
    let grouped: HashMap<usize, usize> = groups
        .iter()
        .enumerate()
        .flat_map(|(gix, g)| g.members.iter().map(move |m| (m.query, gix)))
        .collect();
    for node in stacks.iter_mut() {
        let refs = node.refs.clone();
        for r in refs {
            let covered = grouped.contains_key(&r.query)
                && r.slot + 1 < queries[r.query].query.positive_len();
            if !covered {
                node.plain_refs.push(r);
            }
        }
    }

    // 4. event-type routing index
    let mut routing: HashMap<EventTypeId, RouteEntry> = HashMap::new();
    for (six, node) in stacks.iter().enumerate() {
        for &ty in &node.sig.types {
            routing.entry(ty).or_default().stacks.push(six);
        }
    }
    for (qix, node) in queries.iter().enumerate() {
        for neg in node.query.negations() {
            for &ty in &neg.types {
                let entry = routing.entry(ty).or_default();
                if entry.neg_queries.last() != Some(&qix) && !entry.neg_queries.contains(&qix) {
                    entry.neg_queries.push(qix);
                }
            }
        }
    }

    SharedPlan {
        queries,
        stacks,
        groups,
        routing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_query::parse;
    use sequin_types::{TypeRegistry, ValueKind};

    fn registry() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B", "C", "D", "N"] {
            reg.declare(name, &[("x", ValueKind::Int), ("tag", ValueKind::Int)])
                .unwrap();
        }
        reg
    }

    fn spec(text: &str, reg: &TypeRegistry) -> QuerySpec {
        QuerySpec {
            query: parse(text, reg).unwrap(),
            epoch: 0,
        }
    }

    #[test]
    fn common_prefix_pools_stacks_and_forms_group() {
        let reg = registry();
        let specs = [
            spec("PATTERN SEQ(A a, B b, C c) WITHIN 50", &reg),
            spec("PATTERN SEQ(A a, B b, D d) WITHIN 50", &reg),
        ];
        let plan = compile(&specs, true);
        // A and B stacks shared; C and D private: 4 stacks, not 6
        assert_eq!(plan.stacks.len(), 4);
        assert_eq!(plan.groups.len(), 1);
        let g = &plan.groups[0];
        assert_eq!(g.prefix_len(), 2);
        assert_eq!(g.members.len(), 2);
        assert_eq!(plan.grouped_queries(), 2);
        // prefix anchors are shared, final anchors stay per-query
        let a_stack = &plan.stacks[plan.queries[0].stack_of_slot[0]];
        assert_eq!(a_stack.shared_anchors, vec![(0, 0)]);
        assert!(a_stack.plain_refs.is_empty());
        let c_stack = &plan.stacks[plan.queries[0].stack_of_slot[2]];
        assert_eq!(c_stack.plain_refs, vec![StackRef { query: 0, slot: 2 }]);
    }

    #[test]
    fn window_mismatch_blocks_grouping_but_not_pooling() {
        let reg = registry();
        let specs = [
            spec("PATTERN SEQ(A a, B b, C c) WITHIN 50", &reg),
            spec("PATTERN SEQ(A a, B b, C c) WITHIN 60", &reg),
        ];
        let plan = compile(&specs, true);
        // stacks pool regardless of window (stack content is window-free)
        assert_eq!(plan.stacks.len(), 3);
        // but the shared walk depends on the window, so no group forms
        assert!(plan.groups.is_empty());
        // every anchor is plain
        let a_stack = &plan.stacks[0];
        assert_eq!(a_stack.plain_refs.len(), a_stack.refs.len());
    }

    #[test]
    fn local_predicates_split_stacks() {
        let reg = registry();
        let specs = [
            spec("PATTERN SEQ(A a, B b) WHERE a.x > 5 WITHIN 50", &reg),
            spec("PATTERN SEQ(A a, B b) WHERE a.x > 6 WITHIN 50", &reg),
            spec("PATTERN SEQ(A a, B b) WHERE a.x > 5 WITHIN 50", &reg),
        ];
        let plan = compile(&specs, true);
        // A stacks: {x>5} shared by q0,q2; {x>6} private; B shared by all
        assert_eq!(plan.stacks.len(), 3);
        let a5 = &plan.stacks[plan.queries[0].stack_of_slot[0]];
        assert_eq!(a5.refs.len(), 2);
        assert_eq!(a5.local_preds.len(), 1);
    }

    #[test]
    fn routing_only_lists_interested_nodes() {
        let reg = registry();
        let specs = [
            spec("PATTERN SEQ(A a, B b) WITHIN 50", &reg),
            spec("PATTERN SEQ(C c, !N n, D d) WITHIN 50", &reg),
        ];
        let plan = compile(&specs, true);
        let a = reg.lookup("A").unwrap();
        let n = reg.lookup("N").unwrap();
        let c = reg.lookup("C").unwrap();
        assert_eq!(plan.routing[&a].stacks.len(), 1);
        assert!(plan.routing[&a].neg_queries.is_empty());
        assert_eq!(plan.routing[&n].neg_queries, vec![1]);
        assert!(plan.routing[&n].stacks.is_empty());
        assert_eq!(plan.routing[&c].stacks.len(), 1);
        let b_unused = reg.lookup("N").unwrap();
        assert!(plan.routing.contains_key(&b_unused));
    }

    #[test]
    fn epochs_segregate_stacks() {
        let reg = registry();
        let mut s1 = spec("PATTERN SEQ(A a, B b) WITHIN 50", &reg);
        let mut s2 = spec("PATTERN SEQ(A a, B b) WITHIN 50", &reg);
        s1.epoch = 0;
        s2.epoch = 1;
        let plan = compile(&[s1, s2], true);
        assert_eq!(plan.stacks.len(), 4, "different epochs never pool");
        assert!(plan.groups.is_empty());
    }

    #[test]
    fn partition_scheme_is_part_of_the_signature() {
        let reg = registry();
        let joined = spec("PATTERN SEQ(A a, B b) WHERE a.tag == b.tag WITHIN 50", &reg);
        let plain = spec("PATTERN SEQ(A a, B b) WITHIN 50", &reg);
        let plan = compile(&[joined.clone(), plain.clone()], true);
        assert_eq!(plan.stacks.len(), 4, "keyed and unkeyed slots never pool");
        let flat = compile(&[joined, plain], false);
        assert_eq!(flat.stacks.len(), 2, "unpartitioned evaluation pools them");
    }

    #[test]
    fn stable_query_id_ignores_variable_spelling() {
        let reg = registry();
        let q1 = parse("PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 50", &reg).unwrap();
        let q2 = parse("PATTERN SEQ(A  p,   B q) WHERE p.x == q.x WITHIN 50", &reg).unwrap();
        let q3 = parse("PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 51", &reg).unwrap();
        assert!(q1.normalized_eq(&q2));
        assert!(!q1.normalized_eq(&q3));
        assert_eq!(stable_query_id(&q1), stable_query_id(&q2));
        assert_ne!(stable_query_id(&q1), stable_query_id(&q3));
    }

    #[test]
    fn spanning_predicates_do_not_block_grouping() {
        let reg = registry();
        let specs = [
            spec(
                "PATTERN SEQ(A a, B b, C c) WHERE a.x == b.x AND a.x < c.x WITHIN 50",
                &reg,
            ),
            spec(
                "PATTERN SEQ(A a, B b, D d) WHERE a.x == b.x WITHIN 50",
                &reg,
            ),
        ];
        let plan = compile(&specs, true);
        assert_eq!(plan.groups.len(), 1);
        let g = &plan.groups[0];
        assert_eq!(g.common.len(), 1, "a.x == b.x is the shared predicate");
        // at position 0 (binding a): member 0 sees both predicates, the
        // second one spanning; member 1 sees only the common one
        assert_eq!(
            g.binds[0].per_member[0],
            vec![BindEntry::Common(0), BindEntry::Spanning]
        );
        assert_eq!(g.binds[0].per_member[1], vec![BindEntry::Common(0)]);
    }
}
