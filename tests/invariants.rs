//! Machine-level invariants checked over randomized runs:
//!
//! * conservation — pushes equal pops, nothing live after a well-formed
//!   document, byte accounting returns to zero;
//! * exactly-once emission (already checked differentially; here under
//!   heavier shapes);
//! * polynomial bookkeeping — the compact machine's peak state must stay
//!   tiny while the naive enumerator's embedding count explodes on the
//!   same input;
//! * streaming memory flatness — peak machine bytes must not grow with
//!   document length on repetitive data (the E1 claim, in miniature);
//! * the paper's complexity claims on deterministic counters — machine
//!   operations exactly linear in |D| (E4), bounded by events · |Q| ·
//!   depth (E5), and a compiled machine linear in |Q| (E7);
//! * the logical counters of the benchmark's recursive document, pinned
//!   to the unit, so a cheaper way of moving candidates provably counts
//!   what the one-by-one walk counted;
//! * a main path of `//` edges only copies no candidate down a stack, so
//!   none is ever merged;
//! * a document that ends mid-element leaves nothing behind that the next
//!   document can see.

use proptest::prelude::*;

use vitex::baseline::{naive, NaiveConfig};
use vitex::core::{evaluate_reader, Engine, MachineSpec, MachineStats, MultiEngine};
use vitex::xmlgen::random::{self, RandomConfig};
use vitex::xmlgen::{protein, recursive};
use vitex::xmlsax::XmlReader;
use vitex::xpath::generate::{GenConfig, QueryGenerator};
use vitex::xpath::{Axis, QueryTree};

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn conservation_laws(doc_seed in 0u64..3000, query_seed in 0u64..3000) {
        let xml = random::to_string(&RandomConfig::seeded(doc_seed));
        let mut qgen = QueryGenerator::new(query_seed, GenConfig::default());
        let tree = QueryTree::build(&qgen.query()).unwrap();
        let mut engine = Engine::new(&tree).unwrap();
        let out = engine.run(XmlReader::from_str(&xml), |_| {}).unwrap();
        let s = &out.stats;
        prop_assert_eq!(s.pushes, s.pops, "push/pop balance");
        prop_assert_eq!(s.live_entries, 0);
        prop_assert_eq!(s.live_candidates, 0);
        prop_assert_eq!(s.live_bytes, 0, "byte accounting must drain");
        prop_assert_eq!(
            s.candidates_created + s.candidates_copied,
            s.emitted + s.candidates_discarded + s.duplicates_suppressed + s.candidates_merged,
            "candidate conservation"
        );
        prop_assert_eq!(s.emitted as usize, out.matches.len());
    }

    #[test]
    fn compact_mode_never_suppresses_nonshared_duplicates(
        doc_seed in 0u64..2000, query_seed in 0u64..2000
    ) {
        // In compact mode every emission is unique by construction; the
        // dedup set only ever fires for shared candidates.
        let xml = random::to_string(&RandomConfig::seeded(doc_seed));
        let mut qgen = QueryGenerator::new(query_seed, GenConfig::default());
        let tree = QueryTree::build(&qgen.query()).unwrap();
        let out = evaluate_reader(XmlReader::from_str(&xml), &tree).unwrap();
        let mut ids: Vec<u64> = out.matches.iter().map(|m| m.node).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(before, ids.len(), "duplicate emission in compact mode");
    }
}

#[test]
fn polynomial_vs_exponential_bookkeeping() {
    // //a//a//a//a over n-deep <a> nesting: the naive evaluator stores
    // Θ(C(n,4)) embeddings; TwigM's state stays linear.
    let query = "//a//a//a//a";
    let tree = QueryTree::parse(query).unwrap();
    let depth = 20;
    let xml = recursive::uniform_nesting(depth);

    let out = evaluate_reader(XmlReader::from_str(&xml), &tree).unwrap();
    assert!(out.stats.peak_entries as usize <= 4 * depth, "TwigM entries stay linear");

    let nout = naive::NaiveEvaluator::new(&tree, NaiveConfig { max_embeddings: 10_000_000 })
        .run(XmlReader::from_str(&xml))
        .unwrap();
    assert!(
        nout.peak_embeddings > 1000,
        "naive must materialize the combinatorial match space, got {}",
        nout.peak_embeddings
    );
    // And they agree on the answer.
    let mut ids: Vec<u64> = out.matches.iter().map(|m| m.node).collect();
    ids.sort_unstable();
    assert_eq!(ids, nout.matches);
}

#[test]
fn machine_memory_is_flat_in_document_size() {
    // E1 in miniature: peak machine bytes on 64 KiB vs 512 KiB protein
    // data must be essentially identical (shallow data → constant stacks).
    let tree = QueryTree::parse("//ProteinEntry[reference]/@id").unwrap();
    let peak = |bytes: u64| {
        let xml = protein::to_string(&protein::ProteinConfig::sized(bytes));
        let out = evaluate_reader(XmlReader::from_str(&xml), &tree).unwrap();
        out.stats.peak_bytes
    };
    let small = peak(64 * 1024);
    let large = peak(512 * 1024);
    assert!(large <= small * 2, "peak machine bytes must not scale with |D|: {small} → {large}");
}

#[test]
fn machine_memory_scales_with_depth_not_length() {
    // Recursion depth is the honest driver of stack growth.
    let tree = QueryTree::parse("//a//a").unwrap();
    let peak = |depth: usize| {
        let xml = recursive::uniform_nesting(depth);
        let out = evaluate_reader(XmlReader::from_str(&xml), &tree).unwrap();
        out.stats.peak_entries
    };
    assert!(peak(64) > peak(8), "deeper nesting → more live entries");
}

#[test]
fn compact_encoding_keeps_one_candidate_where_eager_copying_kept_twelve() {
    // E6, pinned: each candidate waits on the deepest compatible entry and
    // slides outward lazily, so nothing is copied to outer tables. The
    // eager-copying strawman, last run on this input before it was
    // deleted, read 22 candidates copied and 22 discarded, with peaks of
    // 12 candidates and 1 308 bytes.
    let xml = recursive::to_string(&recursive::RecursiveConfig::square(12));
    let tree = QueryTree::parse("//section[author]//table[position]//cell").unwrap();
    let s = evaluate_reader(XmlReader::from_str(&xml), &tree).unwrap().stats;
    let got = (s.emitted, s.candidates_copied, s.peak_candidates, s.peak_bytes);
    assert_eq!(got, (1, 0, 1, 1_268), "(emitted, copied, peak candidates, peak bytes)");
}

#[test]
fn descendant_main_paths_copy_and_merge_nothing() {
    // Up a `//` edge a satisfied entry's candidates go to the parent entry
    // with bound 0, from where they slide to every outer parent entry: no
    // copy goes down the stack they leave, so no list ever meets a
    // solution twice. Only a `/` edge on the main path copies (and merges).
    let recursive_tags = ["book", "section", "table", "cell", "author", "position"];
    let families = [
        (
            GenConfig::default(),
            (0..24).map(|s| random::to_string(&RandomConfig::seeded(s))).collect(),
        ),
        (
            GenConfig { tags: recursive_tags.map(String::from).to_vec(), ..GenConfig::default() },
            [5, 8].map(|d| recursive::to_string(&recursive::RecursiveConfig::square(d))).to_vec(),
        ),
    ];
    let (mut queries, mut created, mut inherited) = (0, 0, 0);
    for (config, docs) in &families {
        let mut qgen = QueryGenerator::new(2005, config.clone());
        for _ in 0..400 {
            let tree = QueryTree::build(&qgen.query()).unwrap();
            if tree.main_path()[1..].iter().any(|&q| tree.node(q).axis != Axis::Descendant) {
                continue;
            }
            queries += 1;
            for xml in docs {
                let s = evaluate_reader(XmlReader::from_str(xml), &tree).unwrap().stats;
                let got = (s.candidates_copied, s.candidates_merged);
                assert_eq!(got, (0, 0), "(copied, merged) for {}", tree.original());
                (created, inherited) =
                    (created + s.candidates_created, inherited + s.candidates_inherited);
            }
        }
    }
    assert!(queries >= 100 && created > 0 && inherited > 0, "{queries} {created} {inherited}");
}

/// Everything the machine counts as a unit of work on its stacks and
/// candidates (pops equal pushes by conservation and are left out).
fn machine_ops(s: &MachineStats) -> u64 {
    s.pushes
        + s.flag_propagations
        + s.candidates_created
        + s.candidates_forwarded
        + s.candidates_inherited
        + s.candidates_copied
        + s.candidates_merged
}

#[test]
fn machine_operations_are_exactly_linear_in_document_size() {
    // E4 on counters: the paper query over n independent depth-6 towers
    // costs the same 30 operations per tower whatever n is, so doubling
    // |D| doubles the work to the last unit.
    let tree = QueryTree::parse("//section[author]//table[position]//cell").unwrap();
    let ops = |towers: usize| {
        let cfg = recursive::RecursiveConfig { towers, ..recursive::RecursiveConfig::square(6) };
        let xml = recursive::to_string(&cfg);
        let out = evaluate_reader(XmlReader::from_str(&xml), &tree).unwrap();
        assert_eq!(out.matches.len(), towers, "one cell per tower");
        machine_ops(&out.stats)
    };
    assert_eq!(ops(50), 1500);
    for n in [50, 100, 200] {
        assert_eq!(ops(2 * n), 2 * ops(n), "ops({}) vs 2 * ops({n})", 2 * n);
    }
}

#[test]
fn recursive_benchmark_document_counts_to_the_unit() {
    // `recursive-k1`'s first document: 24 towers of 24 sections over 24
    // tables under `//*[author]//*[position]//*`. Every candidate
    // movement is counted per instance whichever way it is carried out
    // (one by one, or a whole list handed to the entry below), so these
    // are properties of the transitions, not of the representation.
    let xml = recursive::to_string(&recursive::RecursiveConfig {
        section_depth: 24,
        table_depth: 24,
        towers: 24,
        position_on_outermost_only: false,
        author_present: true,
    });
    let tree = QueryTree::parse("//*[author]//*[position]//*").unwrap();
    let out = evaluate_reader(XmlReader::from_str(&xml), &tree).unwrap();
    let expected = MachineStats {
        pushes: 5_905,
        pops: 5_905,
        flag_propagations: 600,
        predicate_evals: 0,
        dispatch_hits: 1_777,
        candidates_created: 1_752,
        candidates_forwarded: 2_904,
        candidates_inherited: 46_368,
        candidates_discarded: 600,
        candidates_merged: 0,
        candidates_copied: 0,
        emitted: 1_152,
        duplicates_suppressed: 0,
        peak_entries: 148,
        peak_candidates: 73,
        // Byte gauges depend on the representation; conservation (they
        // return to zero) is checked above.
        peak_bytes: out.stats.peak_bytes,
        ..MachineStats::default()
    };
    assert_eq!(out.stats, expected);
    assert_eq!(out.matches.len(), 1_152);
}

#[test]
fn an_aborted_document_leaves_nothing_for_the_next_one() {
    // The truncated document dies with `<r>`, two `<a>`s and a `<b>` open:
    // flags half set, `@id` candidates waiting on both `<a>` entries, a
    // string-value accumulating. The same engine must then treat a
    // complete document exactly as a fresh engine does.
    let query = "//a[b = 'x']//c/@id";
    let truncated = "<r><a><c id='1'/><a><c id='2'/><b>x";
    let complete =
        "<r><a><c id='1'/><a><c id='2'/><b>x</b></a><c id='3'/><b>x</b></a><a><c id='4'/></a></r>";
    let tree = QueryTree::parse(query).unwrap();

    let fresh = evaluate_reader(XmlReader::from_str(complete), &tree).unwrap();
    assert_eq!(fresh.matches.len(), 3, "ids 1, 2 and 3 have an a[b = 'x'] ancestor");
    let mut engine = Engine::new(&tree).unwrap();
    assert!(engine.run(XmlReader::from_str(truncated), |_| {}).is_err());
    let reused = engine.run(XmlReader::from_str(complete), |_| {}).unwrap();
    assert_eq!(reused.matches, fresh.matches);
    assert_eq!(reused.stats, fresh.stats);

    // The same through the multi-query session, beside a second machine
    // sharing the executor's store.
    let mut multi = MultiEngine::new();
    let q = multi.add_query(query).unwrap();
    let other = multi.add_query("//c[@id]").unwrap();
    assert!(multi.run(XmlReader::from_str(truncated), |_, _| {}).is_err());
    let out = multi.run(XmlReader::from_str(complete), |_, _| {}).unwrap();
    assert_eq!(out.matches[q.0], fresh.matches);
    assert_eq!(out.stats[q.0], fresh.stats);
    assert_eq!(out.matches[other.0].len(), 4);
}

#[test]
fn machine_operations_are_bounded_by_events_times_query_size_times_depth() {
    // E5 on counters: operations per (event x query step) stay under a
    // small constant on every query family, whatever the query size.
    // Each bound is the family's measured worst case, rounded up.
    let towers = {
        // 8 towers of 16-deep <a> nesting, a <b/> and a <c/> at each level.
        let tower = format!("{}{}", "<a><b/><c/>".repeat(16), "</a>".repeat(16));
        format!("<a>{}</a>", tower.repeat(8))
    };
    let per_event_step = |query: &str, xml: &str, steps: usize| {
        let tree = QueryTree::parse(query).unwrap();
        let out = evaluate_reader(XmlReader::from_str(xml), &tree).unwrap();
        machine_ops(&out.stats) as f64 / (out.events * steps as u64) as f64
    };

    for k in 1..=32 {
        let cost = per_event_step(&"//a".repeat(k), &towers, k);
        assert!(cost <= 1.30, "//a x {k}: {cost} operations per event and step");
    }

    let mut previous = f64::MAX;
    for n in [1, 2, 4, 8, 16, 32] {
        let predicates: String = (0..n).map(|i| if i % 2 == 0 { "[b]" } else { "[c]" }).collect();
        let cost = per_event_step(&format!("//a{predicates}"), &towers, n);
        assert!(cost <= 0.67, "//a with {n} predicates: {cost}");
        assert!(cost < previous, "per-predicate cost must fall with n: {cost} after {previous}");
        previous = cost;
    }

    // Every open ancestor is a compatible parent here, so the constant
    // is a share of the nesting depth (64), not of the query size.
    let deep = recursive::uniform_nesting(64);
    for k in 2..=24 {
        let cost = per_event_step(&"//*".repeat(k), &deep, k);
        assert!(cost <= 24.7, "//* x {k}: {cost}");
    }
}

#[test]
fn compiled_machine_is_linear_in_query_size() {
    // E7 on counters: one machine node per element node of the query,
    // and bytes per query node flat from |Q| = 2 to 5120 (a chain with a
    // predicate every fourth step).
    let mut bytes_per_node = Vec::new();
    for k in [2, 8, 32, 128, 512, 2048, 4096] {
        let query: String = (0..k)
            .map(|i| format!("//n{}{}", i % 7, if i % 4 == 3 { "[p]" } else { "" }))
            .collect();
        let tree = QueryTree::parse(&query).unwrap();
        let spec = MachineSpec::compile(&tree).unwrap();
        assert_eq!(spec.len(), tree.nodes().iter().filter(|n| n.kind.is_element()).count());
        bytes_per_node.push(spec.approx_bytes() / tree.len() as u64);
    }
    let (min, max) = (bytes_per_node.iter().min().unwrap(), bytes_per_node.iter().max().unwrap());
    assert!(max * 100 <= min * 125, "bytes per query node must stay flat: {bytes_per_node:?}");
}

#[test]
fn stop_early_streams_partial_results() {
    // Incremental delivery: a consumer can stop after the first match
    // without reading the rest of the stream (the CLI's behaviour when
    // piped into `head`). Simulated here by counting callback order.
    let xml = "<r><a><b/></a><a><b/></a><a><b/></a></r>";
    let tree = QueryTree::parse("//a/b").unwrap();
    let mut engine = Engine::new(&tree).unwrap();
    let mut seen = 0;
    engine
        .run(XmlReader::from_str(xml), |_| {
            seen += 1;
        })
        .unwrap();
    assert_eq!(seen, 3);
}

#[test]
fn pathological_flag_counts_spill() {
    // A query node with > 64 predicate children exercises the spilled
    // bitset path end to end.
    let conds = (0..70).map(|i| format!("c{i}")).collect::<Vec<_>>().join(" and ");
    let query = format!("//a[{conds}]");
    let tree = QueryTree::parse(&query).unwrap();
    let children: String = (0..70).map(|i| format!("<c{i}/>")).collect();
    let xml = format!("<a>{children}</a>");
    let out = evaluate_reader(XmlReader::from_str(&xml), &tree).unwrap();
    assert_eq!(out.matches.len(), 1);
    // Drop one child: no match.
    let children: String = (1..70).map(|i| format!("<c{i}/>")).collect();
    let xml = format!("<a>{children}</a>");
    let out = evaluate_reader(XmlReader::from_str(&xml), &tree).unwrap();
    assert!(out.matches.is_empty());
}

#[test]
fn deep_documents_within_parser_limits() {
    let depth = 2000;
    let xml = recursive::uniform_nesting(depth);
    let tree = QueryTree::parse("//a//a//a").unwrap();
    let out = evaluate_reader(XmlReader::from_str(&xml), &tree).unwrap();
    assert_eq!(out.matches.len(), depth - 2);
}

/// The paper's memory claim is polynomial in |Q| — not in |Q| · |Σ|: a
/// compiled spec must cost the same whether the shared interner it was
/// compiled against holds three names or five thousand. (Which steps a
/// name selects is the step trie's, pinned the same way by
/// `plan::tests::the_steps_a_name_selects_do_not_depend_on_the_interner_population`.)
#[test]
fn spec_size_is_independent_of_the_interner_population() {
    use vitex::core::Interner;
    let tree = QueryTree::parse("//a[b]/a/c").unwrap();
    let mut fresh_names = Interner::new();
    let fresh = MachineSpec::compile_with(&tree, &mut fresh_names).unwrap();
    let mut crowded_names = Interner::new();
    for i in 0..5000 {
        crowded_names.intern(&format!("unrelated{i}"));
    }
    let crowded = MachineSpec::compile_with(&tree, &mut crowded_names).unwrap();
    assert_eq!(crowded.approx_bytes(), fresh.approx_bytes());
    assert_eq!(crowded, fresh, "the layout does not depend on the symbols");
}

// --------------------------------------------------------------------- //
// Step-trie and planner invariants (the plan runtime)
// --------------------------------------------------------------------- //

mod plan_invariants {
    use proptest::prelude::*;

    use vitex::core::plan::{StepKey, StepTrie};
    use vitex::core::{Interner, QueryId, QueryPlanner};
    use vitex::xpath::generate::{GenConfig, QueryGenerator};
    use vitex::xpath::{Axis, QueryTree};

    /// Derives a deterministic random step path from a seed.
    fn path_from(seed: u64, interner: &mut Interner) -> Vec<StepKey> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let len = 1 + next(4) as usize;
        (0..len)
            .map(|_| StepKey {
                axis: if next(2) == 0 { Axis::Child } else { Axis::Descendant },
                name: match next(4) {
                    0 => None, // wildcard
                    i => Some(interner.intern(["a", "b", "c"][i as usize - 1])),
                },
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Insert/remove round-trips: re-inserting a path is idempotent,
        /// each group routes its main path plus one predicate branch, and
        /// removing every group leaves a fully unrouted (but intact) trie —
        /// no orphan routes, no shared nodes, empty terminals.
        #[test]
        fn step_trie_insert_remove_round_trips(seed in 0u64..10_000, paths in 1usize..12) {
            let mut interner = Interner::new();
            let mut trie = StepTrie::new();
            let mut terminals = Vec::new();
            let mut routed = 0;
            for g in 0..paths {
                let path = path_from(seed.wrapping_add(g as u64), &mut interner);
                let node = trie.insert_path(&path);
                prop_assert_eq!(trie.insert_path(&path), node, "re-insert is idempotent");
                // The path's nodes, found one step at a time.
                let main: Vec<usize> = (path.iter())
                    .scan(0, |at, &step| {
                        *at = trie.child(*at, step);
                        Some(*at)
                    })
                    .collect();
                prop_assert_eq!(main.last(), Some(&node), "the path ends at its node");
                let mut routes: Vec<(usize, u32)> = main.iter().copied().zip(0..).collect();
                // A predicate step hangs off a main-path node, as `[b]` off
                // `a` in `//a[b]/c`; it may land on a main-path node itself.
                let branch = trie.child(main[g % main.len()], path[(g + 1) % path.len()]);
                routes.push((branch, path.len() as u32));
                trie.add_group(node, g, &routes);
                routed += routes.len();
                terminals.push((node, g));
                prop_assert!(trie.terminals(node).contains(&(g as u32)));
                prop_assert!(trie.is_routed(g));
                prop_assert!(trie.route_count(node) >= 1 && trie.route_count(branch) >= 1);
                let total: usize = (0..=trie.len()).map(|n| trie.route_count(n)).sum();
                prop_assert_eq!(total, routed, "one route per machine node");
            }
            let len_at_peak = trie.len();
            for &(node, g) in &terminals {
                trie.remove_group(node, g);
                prop_assert!(!trie.is_routed(g), "removal leaves no orphan route");
            }
            prop_assert_eq!(trie.shared_nodes(), 0);
            prop_assert_eq!(trie.len(), len_at_peak, "nodes are never deleted");
            for &(node, _) in &terminals {
                prop_assert!(trie.terminals(node).is_empty());
            }
            prop_assert!((0..=trie.len()).all(|n| trie.route_count(n) == 0));
        }

        /// Planner churn: random register/unsubscribe sequences must keep
        /// the trie routes exactly in sync with the active groups, and a
        /// recycled slot must never alias a group still serving a live
        /// subscription.
        #[test]
        fn planner_churn_keeps_routes_and_slots_consistent(
            seed in 0u64..10_000, ops in 4usize..40
        ) {
            let mut planner = QueryPlanner::new();
            let mut interner = Interner::new();
            let mut qgen = QueryGenerator::new(seed, GenConfig::default());
            // Live registrations: (query id, group id).
            let mut live: Vec<(usize, usize)> = Vec::new();
            let mut next_qid = 0usize;
            let mut state = seed | 1;
            let mut next = move |n: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % n) as usize
            };
            for _ in 0..ops {
                if live.is_empty() || next(3) > 0 {
                    // Register.
                    let tree = QueryTree::build(&qgen.query()).expect("valid query");
                    let active_before: std::collections::HashSet<usize> =
                        live.iter().map(|&(_, g)| g).collect();
                    let reg = planner.register(&tree, QueryId(next_qid), &mut interner)
                        .expect("registrable");
                    if reg.created {
                        prop_assert!(
                            !active_before.contains(&reg.group),
                            "a recycled slot must never alias a live group"
                        );
                    } else {
                        prop_assert!(active_before.contains(&reg.group));
                    }
                    live.push((next_qid, reg.group));
                    next_qid += 1;
                } else {
                    // Unsubscribe a random live registration.
                    let at = next(live.len() as u64);
                    let (qid, gid) = live.swap_remove(at);
                    let still_subscribed = live.iter().any(|&(_, g)| g == gid);
                    let last = planner.unsubscribe(gid, QueryId(qid));
                    prop_assert_eq!(last, !still_subscribed, "last-subscriber detection");
                }
                // Invariants after every op.
                let active: std::collections::HashSet<usize> =
                    live.iter().map(|&(_, g)| g).collect();
                prop_assert_eq!(planner.query_count(), live.len());
                prop_assert_eq!(planner.group_count(), active.len());
                for slot in 0..planner.groups().len() {
                    let is_active = planner.group(slot).is_active();
                    prop_assert_eq!(is_active, active.contains(&slot), "slot {} activity", slot);
                    prop_assert_eq!(
                        planner.trie().is_routed(slot), is_active,
                        "routes track activity exactly (slot {})", slot
                    );
                }
                let trie = planner.trie();
                let routes: usize = (0..=trie.len()).map(|n| trie.route_count(n)).sum();
                let machine_nodes: usize = (planner.groups().iter())
                    .filter(|g| g.is_active())
                    .map(|g| g.machine().spec().len())
                    .sum();
                prop_assert_eq!(routes, machine_nodes, "every machine node routes exactly once");
                prop_assert!(
                    planner.groups().iter().all(|g| g.machine().is_quiescent()),
                    "no run-time state without a run"
                );
            }
        }
    }
}
