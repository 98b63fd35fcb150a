//! Per-document work follows the distinct query shapes, not the
//! subscription count k. Four query families run at k = 1, 10, 100 and
//! 1000 over one fixed small document each, built the way CI builds its
//! documents: the plan groups equal the family's distinct shapes, and the
//! machines' pushes (summed over the `groups` rows of a telemetry
//! snapshot) and the step trie's checks stop growing once every shape is
//! registered.

use vitex::core::telemetry::Telemetry;
use vitex::core::MultiEngine;
use vitex::xmlsax::XmlReader;

const KS: [usize; 4] = [1, 10, 100, 1000];
const REGIONS: [&str; 6] = ["africa", "asia", "australia", "europe", "namerica", "samerica"];

/// One family: its document, its n-th query, its distinct shapes at k,
/// and the k from which every shape the document can move is registered.
struct Family {
    name: &'static str,
    doc: String,
    query: fn(usize) -> String,
    shapes: fn(usize) -> usize,
    settled: usize,
}

/// Items with a name in the even regions only (CI's `ci_regions.xml`).
fn regions_doc() -> String {
    let mut doc = String::from("<site><regions>");
    for (r, region) in REGIONS.iter().enumerate() {
        doc += &format!("<{region}>");
        if r % 2 == 0 {
            for i in (r..60).step_by(6) {
                doc += &format!(r#"<item id="item{i}"><name>n{i}</name></item>"#);
            }
        }
        doc += &format!("</{region}>");
    }
    doc + "</regions></site>"
}

/// Persons with an e-mail address for even N only (CI's `ci_people.xml`).
fn people_doc() -> String {
    let mut doc = String::from("<site><people>");
    for n in 0..20 {
        let mail = if n % 2 == 0 {
            format!("<emailaddress>mailto:p{n}@x</emailaddress>")
        } else {
            String::new()
        };
        doc += &format!(r#"<person id="person{n}"><name>n{n}</name>{mail}</person>"#);
    }
    doc + "</people></site>"
}

fn families() -> [Family; 4] {
    [
        Family {
            name: "region-pinned items",
            doc: regions_doc(),
            query: |n| format!("/site/regions/{}/item[@id = 'item{n}']/name", REGIONS[n % 6]),
            shapes: |k| k.min(6),
            settled: 6,
        },
        Family {
            name: "e-mail literals",
            doc: people_doc(),
            query: |n| format!("//person[emailaddress = 'mailto:p{n}@x']/name"),
            shapes: |_| 1,
            settled: 1,
        },
        Family {
            name: "copies of one query",
            // CI's `ci_doc.xml`.
            doc: "<book><section><author>A</author><table><position>1</position><cell>x</cell>\
                  </table></section><section><table><cell>y</cell></table></section></book>"
                .into(),
            query: |_| "//section//cell".into(),
            shapes: |_| 1,
            settled: 1,
        },
        Family {
            name: "disjoint names",
            // The document names only n0 to n3.
            doc: "<n0><n1><n2/><n3/></n1><n3><n1/></n3></n0>".into(),
            query: |n| format!("//n{n}"),
            shapes: |k| k,
            settled: 4,
        },
    ]
}

/// Registers the family's first `k` queries, runs its document once, and
/// returns the plan groups, the summed group pushes and the trie's checks.
fn measure(family: &Family, k: usize) -> (u64, u64, u64) {
    let telemetry = Telemetry::enabled();
    let mut engine = MultiEngine::new();
    engine.set_telemetry(telemetry.clone());
    for n in 0..k {
        engine.add_query(&(family.query)(n)).expect("valid query");
    }
    let out = engine.run(XmlReader::from_str(&family.doc), |_, _| {}).expect("well-formed");
    assert!(out.matches.iter().any(|m| !m.is_empty()), "{} matches at k = {k}", family.name);
    let snapshot = telemetry.snapshot().expect("enabled");
    let pushes = snapshot.groups.iter().map(|g| g.bill.pushes).sum();
    (out.plan.groups, pushes, out.plan.prefix_steps_executed)
}

#[test]
fn plan_groups_equal_the_distinct_shapes() {
    for family in families() {
        for k in KS {
            let (groups, _, _) = measure(&family, k);
            assert_eq!(groups, (family.shapes)(k) as u64, "{} at k = {k}", family.name);
        }
    }
}

#[test]
fn pushes_and_trie_checks_stop_growing_once_every_shape_is_registered() {
    // From its `settled` k on, a family has registered every shape its
    // document can move: the six regions, the one shape, and the four
    // names the disjoint document contains.
    for family in families() {
        let work = |k| {
            let (_, pushes, checks) = measure(&family, k);
            (pushes, checks)
        };
        let settled = work(family.settled);
        assert!(settled.0 > 0 && settled.1 > 0, "{} does work", family.name);
        if family.settled > 1 {
            assert_ne!(work(1), settled, "{}: one shape does less", family.name);
        }
        for k in KS.into_iter().filter(|&k| k >= family.settled) {
            assert_eq!(work(k), settled, "{}: k = {k} against k = {}", family.name, family.settled);
        }
    }
}
