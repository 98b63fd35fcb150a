//! Quickstart: parse a query, inspect the TwigM machine, evaluate over a
//! document, print solutions.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use vitex::core::{evaluate_reader, MachineSpec};
use vitex::xmlsax::XmlReader;
use vitex::xpath::QueryTree;

fn main() {
    // The query and document from the ViteX paper (Figures 1 and 3).
    let query = "//section[author]//table[position]//cell";
    let xml = vitex::xmlgen::recursive::figure1();

    println!("query: {query}\n");

    // 1. The XPath parser + query tree (the paper's "XPath parser" box).
    let tree = QueryTree::parse(query).expect("valid query");
    println!("query tree (* = main path, ? = predicate):\n{tree}");

    // 2. The TwigM builder (linear in |Q|).
    let spec = MachineSpec::compile(&tree).expect("buildable");
    println!("TwigM machine: {} nodes, root = {:?}", spec.len(), spec.nodes[0].name);

    // 3. Stream the document through the machine.
    let out = evaluate_reader(XmlReader::from_str(&xml), &tree).expect("evaluation");
    println!("\ndocument: {} bytes, {} elements", xml.len(), out.elements);
    println!("solutions: {}", out.matches.len());
    for m in &out.matches {
        let fragment = m.span.slice(xml.as_bytes()).expect("span in range");
        println!("  {m}  fragment: {}", String::from_utf8_lossy(fragment));
    }

    // 4. What the machine did (the paper's compactness claim, visible).
    let s = &out.stats;
    println!("\nmachine bookkeeping:");
    println!("  pushes/pops:          {}/{}", s.pushes, s.pops);
    println!("  flag propagations:    {}", s.flag_propagations);
    println!("  candidates created:   {}", s.candidates_created);
    println!("  lazily inherited:     {}", s.candidates_inherited);
    println!("  peak machine bytes:   {}", s.peak_bytes);
    println!("\nThe 9 pattern matches of the paper's walkthrough were never");
    println!("enumerated — one candidate slid across the stacks instead.");
}
