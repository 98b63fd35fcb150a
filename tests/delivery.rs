//! How shared plan groups hand out their matches:
//! `MultiEngine::stream_document` calls back once per group emission and
//! binding it reaches, lent with that binding's subscribers, and
//! `MultiEngine::run` — and `Engine::run`, its one-query case — is that
//! stream flattened per subscriber into vectors sized exactly.

use vitex::core::{Engine, Match, MultiEngine, QueryId};
use vitex::xmlgen::auction::{self, AuctionConfig};
use vitex::xmlsax::XmlReader;

/// Shapes each registered eight times, interleaved: one group with one
/// binding and eight scattered subscribers apiece.
const SHAPES: [&str; 3] = [
    "/site/regions//item/@id",
    "/site/people/person/name",
    "/site/people/person[profile]/emailaddress/text()",
];

/// The payment literals of one shape group, in registration order: `Cash`
/// is tested by two subscribers, registered first and last.
const PAYMENTS: [&str; 4] = ["Cash", "Creditcard", "Wire", "Cash"];

/// The engine with every subscription registered, and its *families*:
/// the subscribers that test the same thing — one binding of one plan
/// group — each in registration order.
fn subscriptions() -> (MultiEngine, Vec<Vec<QueryId>>) {
    let mut engine = MultiEngine::new();
    let mut families = vec![Vec::new(); SHAPES.len()];
    for _ in 0..8 {
        for (family, shape) in families.iter_mut().zip(SHAPES) {
            family.push(engine.add_query(shape).unwrap());
        }
    }
    // Canonically one query: one group, one binding, two subscribers.
    let pair = ["//item[quantity][payment]/name", "//item[payment][quantity]/name"];
    families.push(pair.iter().map(|q| engine.add_query(q).unwrap()).collect());
    let paid: Vec<QueryId> = PAYMENTS
        .iter()
        .map(|p| engine.add_query(&format!("//item[payment = '{p}']/@id")).unwrap())
        .collect();
    families.extend([vec![paid[0], paid[3]], vec![paid[1]], vec![paid[2]]]);
    assert_eq!(engine.plan_stats().groups, 5, "three shapes, the pair, the payment group");
    (engine, families)
}

/// The family index of each payment literal's binding: Cash, Creditcard,
/// Wire.
const CASH: usize = 4;
const CREDITCARD: usize = 5;
const WIRE: usize = 6;

fn auction_doc() -> String {
    auction::to_string(&AuctionConfig::sized(64 << 10))
}

/// Every callback of one streamed document: the subscribers it was lent
/// and the match.
fn stream(engine: &mut MultiEngine, xml: &str) -> Vec<(Vec<QueryId>, Match)> {
    let mut calls = Vec::new();
    engine
        .stream_document(XmlReader::from_str(xml), |reached, m| {
            calls.push((reached.to_vec(), Match::from(*m)))
        })
        .unwrap();
    calls
}

#[test]
fn a_streamed_document_calls_back_once_per_emission_and_reached_binding() {
    let (mut engine, families) = subscriptions();
    let calls = stream(&mut engine, &auction_doc());
    let mut per_family = vec![0u64; families.len()];
    let mut seen = std::collections::HashSet::new();
    for (reached, m) in &calls {
        // The slice is one binding's subscribers, whole and in
        // registration order.
        let f = families.iter().position(|family| family == reached);
        let f = f.unwrap_or_else(|| panic!("{reached:?} is not one binding's subscribers"));
        assert!(seen.insert((f, m.node)), "{m} reached family {f} twice");
        per_family[f] += 1;
    }
    // Each subscriber's `emitted` counts the callbacks its binding got.
    for (family, calls) in families.iter().zip(&per_family) {
        for &q in family {
            assert_eq!(engine.query_stats(q).emitted, *calls, "{q:?}");
        }
    }
    let empty: Vec<usize> = (0..families.len()).filter(|&f| per_family[f] == 0).collect();
    assert_eq!(empty, [WIRE], "every family but the unpaid literal matches");
}

#[test]
fn the_flattened_slices_are_runs_per_subscriber_sequence() {
    let (mut engine, _) = subscriptions();
    let xml = auction_doc();
    let streamed: Vec<(QueryId, Match)> = stream(&mut engine, &xml)
        .into_iter()
        .flat_map(|(reached, m)| reached.into_iter().map(move |q| (q, m.clone())))
        .collect();
    let mut buffered = Vec::new();
    let out = engine.run(XmlReader::from_str(&xml), |q, m| buffered.push((q, m.clone()))).unwrap();
    assert!(streamed.len() > 1000, "{} deliveries", streamed.len());
    assert_eq!(streamed, buffered, "the per-subscriber sequence");
    let mut grouped = vec![Vec::new(); out.matches.len()];
    for (q, m) in streamed {
        grouped[q.0].push(m);
    }
    assert_eq!(out.matches, grouped, "the buffer is the deliveries, by subscriber");
    for (q, (matches, stats)) in out.matches.iter().zip(&out.stats).enumerate() {
        let sizes = (matches.capacity() as u64, matches.len() as u64);
        assert_eq!(sizes, (stats.emitted, stats.emitted), "query {q}: capacity and length");
    }
    // A one-query `Engine` is the same adapter: its vector is the
    // subscription's, sized exactly too.
    let mut single = Engine::from_query(SHAPES[1]).unwrap();
    let one = single.run(XmlReader::from_str(&xml), |_| {}).unwrap();
    assert_eq!(one.matches, out.matches[1], "the Engine's matches are query 1's");
    assert_eq!(one.matches.capacity(), one.matches.len(), "the Engine's vector is sized exactly");
}

#[test]
fn an_emission_reaching_several_bindings_calls_back_once_for_each() {
    let (mut engine, families) = subscriptions();
    let item = |payments: &[&str]| {
        let paid: String = payments.iter().map(|p| format!("<payment>{p}</payment>")).collect();
        format!(r#"<site><regions><europe><item id="i">{paid}</item></europe></regions></site>"#)
    };
    let paid = |calls: Vec<(Vec<QueryId>, Match)>| -> Vec<Vec<QueryId>> {
        let payment_group: Vec<QueryId> = families[CASH..].concat();
        let ours = |reached: &Vec<QueryId>| reached.iter().all(|q| payment_group.contains(q));
        calls.into_iter().map(|(reached, _)| reached).filter(ours).collect()
    };
    // Two bindings reached by one emission: one callback each, in binding
    // (first-registration) order.
    let two = paid(stream(&mut engine, &item(&["Creditcard", "Cash"])));
    assert_eq!(two, [families[CASH].clone(), families[CREDITCARD].clone()]);
    // Every binding reached: still one callback each, in binding order.
    let all = paid(stream(&mut engine, &item(&["Wire", "Cash", "Creditcard"])));
    assert_eq!(all, [CASH, CREDITCARD, WIRE].map(|f| families[f].clone()));
    let out = engine.run(XmlReader::from_str(&item(&["Cash", "Wire"])), |_, _| {}).unwrap();
    for (family, want) in [(CASH, 1), (CREDITCARD, 0), (WIRE, 1)] {
        for &q in &families[family] {
            let matches = &out.matches[q.0];
            assert_eq!((matches.len(), matches.capacity()), (want, want), "{q:?}");
        }
    }
}

#[test]
fn a_run_that_fails_mid_document_leaves_the_next_run_as_a_fresh_engine_would() {
    let (mut engine, families) = subscriptions();
    let xml = auction_doc();
    let cut = &xml[..xml.len() / 2];
    // The cut ends after the payment group's first emissions, several of
    // its bindings among them.
    let payment_group: Vec<QueryId> = families[CASH..].concat();
    let mut reached = std::collections::HashSet::new();
    let cut_stream = engine.stream_document(XmlReader::from_str(cut), |subscribers, _| {
        if subscribers.iter().all(|q| payment_group.contains(q)) {
            reached.insert(subscribers.to_vec());
        }
    });
    assert!(cut_stream.is_err(), "the cut document is truncated");
    assert!(reached.len() >= 2, "bindings reached before the cut: {reached:?}");
    // A good run first, so the failing one follows a collected document.
    let item = r#"<site><regions><asia><item id="w"><payment>Wire</payment></item></asia></regions></site>"#;
    assert_eq!(
        engine.run(XmlReader::from_str(item), |_, _| {}).unwrap().matches[families[WIRE][0].0]
            .len(),
        1
    );
    assert!(engine.run(XmlReader::from_str(cut), |_, _| {}).is_err(), "its error is returned");
    let out = engine.run(XmlReader::from_str(&xml), |_, _| {}).unwrap();
    let want = subscriptions().0.run(XmlReader::from_str(&xml), |_, _| {}).unwrap();
    assert_eq!(out.matches, want.matches);
    assert_eq!(out.stats, want.stats);
    for (q, matches) in out.matches.iter().enumerate() {
        assert_eq!(matches.capacity(), matches.len(), "query {q}");
    }
}
