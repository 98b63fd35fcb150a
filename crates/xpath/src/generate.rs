//! Seeded random query generation.
//!
//! The differential test suites (TwigM vs DOM oracle vs naive enumerator)
//! and the query-size scaling experiments (E5, E7) need large families of
//! *valid* queries with controllable shape. [`QueryGenerator`] builds them
//! directly as ASTs, so every generated query parses and round-trips by
//! construction.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ast::{Axis, CmpOp, Condition, Literal, NodeTest, Predicate, Query, Step};

/// Shape parameters for generated queries.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Minimum number of main-path steps (≥ 1).
    pub min_steps: usize,
    /// Maximum number of main-path steps.
    pub max_steps: usize,
    /// Probability that a step uses the descendant axis.
    pub descendant_prob: f64,
    /// Probability that an element step is a wildcard.
    pub wildcard_prob: f64,
    /// Probability of attaching a predicate to an element step.
    pub predicate_prob: f64,
    /// Maximum conditions joined by `and` in one predicate.
    pub max_conditions: usize,
    /// Maximum steps in a predicate's relative path.
    pub max_pred_path: usize,
    /// Maximum predicate nesting depth.
    pub max_pred_depth: usize,
    /// Probability a condition carries a value comparison.
    pub comparison_prob: f64,
    /// Probability a condition path ends in `@attr` instead of an element.
    pub attr_condition_prob: f64,
    /// Probability the result step is `@attr` / `text()`.
    pub special_result_prob: f64,
    /// Element-name alphabet.
    pub tags: Vec<String>,
    /// Attribute-name alphabet.
    pub attrs: Vec<String>,
    /// String comparison values.
    pub values: Vec<String>,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            min_steps: 1,
            max_steps: 4,
            descendant_prob: 0.5,
            wildcard_prob: 0.1,
            predicate_prob: 0.4,
            max_conditions: 2,
            max_pred_path: 2,
            max_pred_depth: 2,
            comparison_prob: 0.3,
            attr_condition_prob: 0.2,
            special_result_prob: 0.15,
            tags: ["a", "b", "c", "d", "e"].iter().map(|s| s.to_string()).collect(),
            attrs: ["id", "k"].iter().map(|s| s.to_string()).collect(),
            values: ["v0", "v1", "v2"].iter().map(|s| s.to_string()).collect(),
        }
    }
}

impl GenConfig {
    /// A configuration that generates deep chain queries of exactly
    /// `steps` descendant steps — the E5/E7 scaling family.
    pub fn chain(steps: usize) -> Self {
        GenConfig {
            min_steps: steps,
            max_steps: steps,
            descendant_prob: 1.0,
            wildcard_prob: 0.0,
            predicate_prob: 0.0,
            special_result_prob: 0.0,
            ..GenConfig::default()
        }
    }
}

/// A deterministic random query generator.
pub struct QueryGenerator {
    rng: StdRng,
    config: GenConfig,
}

impl QueryGenerator {
    /// Creates a generator from a seed and configuration.
    pub fn new(seed: u64, config: GenConfig) -> Self {
        QueryGenerator { rng: StdRng::seed_from_u64(seed), config }
    }

    /// Generates one query.
    pub fn query(&mut self) -> Query {
        let n = self.rng.gen_range(self.config.min_steps..=self.config.max_steps);
        let mut steps = Vec::with_capacity(n);
        for i in 0..n {
            let is_last = i + 1 == n;
            if is_last && self.rng.gen_bool(self.config.special_result_prob) {
                // Attribute/text steps: descendant axis is only valid in
                // leading position (`//@id`); elsewhere they must be
                // child-axis (`a/@id`).
                let axis = if i == 0 { Axis::Descendant } else { Axis::Child };
                steps.push(Step { axis, test: self.special_test(), predicates: Vec::new() });
            } else {
                steps.push(self.element_step(0));
            }
        }
        Query { steps }
    }

    /// Generates a batch of queries.
    pub fn queries(&mut self, count: usize) -> Vec<Query> {
        (0..count).map(|_| self.query()).collect()
    }

    fn axis(&mut self) -> Axis {
        if self.rng.gen_bool(self.config.descendant_prob) {
            Axis::Descendant
        } else {
            Axis::Child
        }
    }

    fn tag(&mut self) -> String {
        let i = self.rng.gen_range(0..self.config.tags.len());
        self.config.tags[i].clone()
    }

    fn attr(&mut self) -> String {
        let i = self.rng.gen_range(0..self.config.attrs.len());
        self.config.attrs[i].clone()
    }

    fn value(&mut self) -> Literal {
        if self.rng.gen_bool(0.3) {
            Literal::Num((self.rng.gen_range(0..100) as f64) / 2.0)
        } else {
            let i = self.rng.gen_range(0..self.config.values.len());
            Literal::Str(self.config.values[i].clone())
        }
    }

    fn cmp_op(&mut self) -> CmpOp {
        match self.rng.gen_range(0..6) {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Lt,
            3 => CmpOp::Le,
            4 => CmpOp::Gt,
            _ => CmpOp::Ge,
        }
    }

    fn special_test(&mut self) -> NodeTest {
        if self.rng.gen_bool(0.5) {
            NodeTest::Attribute(self.attr())
        } else {
            NodeTest::Text
        }
    }

    fn element_step(&mut self, depth: usize) -> Step {
        let test = if self.rng.gen_bool(self.config.wildcard_prob) {
            NodeTest::Wildcard
        } else {
            NodeTest::Name(self.tag())
        };
        let mut predicates = Vec::new();
        if depth < self.config.max_pred_depth && self.rng.gen_bool(self.config.predicate_prob) {
            predicates.push(self.predicate(depth));
        }
        Step { axis: self.axis(), test, predicates }
    }

    fn predicate(&mut self, depth: usize) -> Predicate {
        let n = self.rng.gen_range(1..=self.config.max_conditions);
        let conditions = (0..n).map(|_| self.condition(depth)).collect();
        Predicate { conditions }
    }

    fn condition(&mut self, depth: usize) -> Condition {
        // Attribute / text() conditions are single-step.
        if self.rng.gen_bool(self.config.attr_condition_prob) {
            let test = if self.rng.gen_bool(0.8) {
                NodeTest::Attribute(self.attr())
            } else {
                NodeTest::Text
            };
            let must_compare = matches!(test, NodeTest::Text);
            let comparison = if must_compare || self.rng.gen_bool(self.config.comparison_prob) {
                Some((self.cmp_op(), self.value()))
            } else {
                None
            };
            return Condition {
                path: vec![Step { axis: Axis::Child, test, predicates: Vec::new() }],
                comparison,
            };
        }
        let len = self.rng.gen_range(1..=self.config.max_pred_path);
        let mut path = Vec::with_capacity(len);
        for i in 0..len {
            let mut step = self.element_step(depth + 1);
            if i == 0 {
                step.axis = Axis::Child; // first predicate step is implicit-child
            }
            path.push(step);
        }
        let comparison = if self.rng.gen_bool(self.config.comparison_prob) {
            Some((self.cmp_op(), self.value()))
        } else {
            None
        };
        Condition { path, comparison }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::query_tree::QueryTree;

    #[test]
    fn generated_queries_parse_and_round_trip() {
        let mut g = QueryGenerator::new(42, GenConfig::default());
        for q in g.queries(500) {
            let text = q.to_string();
            let reparsed = parse(&text)
                .unwrap_or_else(|e| panic!("generated query {text:?} failed to parse: {e}"));
            assert_eq!(reparsed, q, "round-trip mismatch for {text:?}");
            QueryTree::build(&q).expect("query tree builds");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = QueryGenerator::new(7, GenConfig::default());
        let mut b = QueryGenerator::new(7, GenConfig::default());
        assert_eq!(a.queries(50), b.queries(50));
        let mut c = QueryGenerator::new(8, GenConfig::default());
        assert_ne!(a.queries(50), c.queries(50));
    }

    #[test]
    fn chain_config_generates_exact_length() {
        let mut g = QueryGenerator::new(1, GenConfig::chain(7));
        for q in g.queries(20) {
            assert_eq!(q.steps.len(), 7);
            assert!(q.steps.iter().all(|s| s.axis == Axis::Descendant));
            assert!(q.steps.iter().all(|s| s.predicates.is_empty()));
        }
    }

    #[test]
    fn respects_step_bounds() {
        let cfg = GenConfig { min_steps: 2, max_steps: 3, ..Default::default() };
        let mut g = QueryGenerator::new(3, cfg);
        for q in g.queries(100) {
            assert!((2..=3).contains(&q.steps.len()));
        }
    }

    #[test]
    fn text_conditions_always_have_comparisons() {
        // A bare [text()] existence test is grammatically fine but the
        // generator always pairs text() with a comparison for meaningful
        // selectivity; check it holds (guards the E5 workload invariants).
        let cfg = GenConfig { attr_condition_prob: 1.0, predicate_prob: 1.0, ..Default::default() };
        let mut g = QueryGenerator::new(11, cfg);
        for q in g.queries(200) {
            for s in &q.steps {
                for p in &s.predicates {
                    for c in &p.conditions {
                        if c.path.last().map(|s| s.test == NodeTest::Text).unwrap_or(false) {
                            assert!(c.comparison.is_some());
                        }
                    }
                }
            }
        }
    }
}
