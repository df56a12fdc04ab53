//! Query workloads mirroring the paper's benchmarks.
//!
//! QALD-4 / WebQuestions / RDF-3x each reduce (per §VII-A) to: a query
//! graph plus a validation answer set. This module emits those pairs for
//! the synthetic datasets: the four Q117 variants of Fig. 1, a per-country
//! "produced in" workload, the Fig. 3(a) chain query, and the Fig. 16
//! complex soccer query used by the pivot-selection experiments.

use crate::dataset::BenchDataset;
use kgraph::NodeId;
use rand::Rng;
use sgq::query::QueryGraph;

/// One benchmark query: graph + validation set.
#[derive(Debug, Clone)]
pub struct BenchQuery {
    /// Identifier (e.g. `Q117-G1@Germany`).
    pub id: String,
    /// The query graph.
    pub graph: QueryGraph,
    /// Validation answer set (pivot entities).
    pub truth: Vec<NodeId>,
    /// Number of sub-queries a minCost decomposition yields (the paper's
    /// complexity classes: 1 = Simple, 2 = Medium, 3 = Complex).
    pub complexity: usize,
    /// Raw `QNodeId` of the target node whose matches are *the answers*
    /// (evaluation reads its bindings, which equals the pivot matches when
    /// the decomposition pivots there).
    pub answer_node: u32,
}

/// The abbreviation used by the transformation library and the G²_Q variant
/// (`Germany → GER`); synthetic countries keep their digits so
/// abbreviations stay unique (`Country_3 → COU3`).
pub fn country_abbreviation(name: &str) -> String {
    let letters: String = name
        .chars()
        .filter(|c| c.is_ascii_alphabetic())
        .take(3)
        .collect::<String>()
        .to_uppercase();
    let digits: String = name.chars().filter(|c| c.is_ascii_digit()).collect();
    format!("{letters}{digits}")
}

/// The four Fig. 1 query-graph variants of Q117 ("cars produced in
/// `country`"), sharing one validation set.
pub fn q117_variants(ds: &BenchDataset, country: &str) -> Vec<BenchQuery> {
    let truth = ds.produced_truth.get(country).cloned().unwrap_or_default();
    let mut variants = Vec::with_capacity(4);
    let make = |target_ty: &str, name: &str, pred: &str| {
        let mut q = QueryGraph::new();
        let auto = q.add_target(target_ty);
        let c = q.add_specific(name, "Country");
        q.add_edge(auto, pred, c);
        q
    };
    // G¹_Q: synonym type <Car>.
    variants.push(BenchQuery {
        id: format!("Q117-G1@{country}"),
        graph: make("Car", country, "assembly"),
        truth: truth.clone(),
        complexity: 1,
        answer_node: 0,
    });
    // G²_Q: abbreviated name.
    variants.push(BenchQuery {
        id: format!("Q117-G2@{country}"),
        graph: make("Automobile", &country_abbreviation(country), "assembly"),
        truth: truth.clone(),
        complexity: 1,
        answer_node: 0,
    });
    // G³_Q: paraphrased predicate `product`.
    variants.push(BenchQuery {
        id: format!("Q117-G3@{country}"),
        graph: make("Automobile", country, "product"),
        truth: truth.clone(),
        complexity: 1,
        answer_node: 0,
    });
    // G⁴_Q: the canonical `assembly` formulation.
    variants.push(BenchQuery {
        id: format!("Q117-G4@{country}"),
        graph: make("Automobile", country, "assembly"),
        truth,
        complexity: 1,
        answer_node: 0,
    });
    variants
}

/// One G⁴-style query per country — the bulk effectiveness workload behind
/// Figs. 12–14.
pub fn produced_workload(ds: &BenchDataset) -> Vec<BenchQuery> {
    ds.countries
        .iter()
        .map(|c| {
            let mut q = QueryGraph::new();
            let auto = q.add_target("Automobile");
            let cn = q.add_specific(c, "Country");
            q.add_edge(auto, "assembly", cn);
            BenchQuery {
                id: format!("produced@{c}"),
                graph: q,
                truth: ds.produced_truth[c].clone(),
                complexity: 1,
                answer_node: 0,
            }
        })
        .collect()
}

/// The Fig. 3(a) chain query: automobiles assembled in `countries[i]` with
/// an engine manufactured in `countries[i+1]` (two sub-queries → Medium).
pub fn chain_query(ds: &BenchDataset, i: usize) -> BenchQuery {
    let ca = ds.countries[i % ds.countries.len()].clone();
    let ce = ds.countries[(i + 1) % ds.countries.len()].clone();
    let mut q = QueryGraph::new();
    let assembly_c = q.add_specific(&ca, "Country");
    let auto = q.add_target("Automobile");
    let device = q.add_target("Device");
    let engine_c = q.add_specific(&ce, "Country");
    q.add_edge(auto, "assembly", assembly_c);
    q.add_edge(auto, "engine", device);
    q.add_edge(device, "manufacturer", engine_c);
    BenchQuery {
        id: format!("chain@{ca}->{ce}"),
        graph: q,
        truth: ds.engine_truth.get(&(ca, ce)).cloned().unwrap_or_default(),
        complexity: 2,
        answer_node: auto.0,
    }
}

/// The Fig. 16(a) complex query: players of nationality `countries[i]` who
/// played for a club grounded in `countries[i]` and a club grounded in
/// `countries[i+1]` (three sub-queries → Complex). Returns the query plus
/// the query-node index of the Person target (`v1`) and of the first
/// SoccerClub target (`v2`) for the Table V forced-pivot comparison.
pub fn soccer_query(ds: &BenchDataset, i: usize) -> (BenchQuery, u32, u32) {
    let home = ds.countries[i % ds.countries.len()].clone();
    let foreign = ds.countries[(i + 1) % ds.countries.len()].clone();
    let mut q = QueryGraph::new();
    let v1 = q.add_target("Person");
    let v2 = q.add_target("SoccerClub");
    let v3 = q.add_specific(&home, "Country");
    let v4 = q.add_target("SoccerClub");
    let v5 = q.add_specific(&foreign, "Country");
    q.add_edge(v2, "ground", v3); // e1
    q.add_edge(v1, "nationality", v3); // e2
    q.add_edge(v1, "team", v2); // e3
    q.add_edge(v1, "team", v4); // e4
    q.add_edge(v4, "ground", v5); // e5
    let truth = ds.players_truth.get(&home).cloned().unwrap_or_default();
    (
        BenchQuery {
            id: format!("soccer@{home}+{foreign}"),
            graph: q,
            truth,
            complexity: 3,
            answer_node: v1.0,
        },
        v1.0,
        v2.0,
    )
}

/// The production-shaped request mix shared by the `loadgen` binary and
/// `semkg-bench`: a fraction of traffic concentrates on a small hot set of
/// queries (the classic 80/20 skew), and priorities split 20/60/20
/// High/Normal/Low. Keeping the mix here — instead of hand-rolled copies —
/// means every serving-tier measurement shapes its traffic identically, so
/// their numbers compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestMix {
    /// Percent of requests (0..=100) drawn from the hot set.
    pub hot_fraction: u64,
    /// Size of the hot set (the first `hot_set` queries of the workload).
    pub hot_set: usize,
}

impl Default for RequestMix {
    /// The benches' canonical 80/20 skew over 4 hot queries.
    fn default() -> Self {
        Self {
            hot_fraction: 80,
            hot_set: 4,
        }
    }
}

impl RequestMix {
    /// Picks a workload index: with probability `hot_fraction`% one of the
    /// first `hot_set` queries, otherwise uniform over the whole workload.
    pub fn pick<R: Rng>(&self, rng: &mut R, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        if rng.random_range(0u64..100) < self.hot_fraction.min(100) {
            rng.random_range(0..self.hot_set.clamp(1, len))
        } else {
            rng.random_range(0..len)
        }
    }

    /// The 20/60/20 High/Normal/Low priority split used by the serving
    /// benches (so overload gates on the high-priority histogram always
    /// have samples).
    pub fn pick_priority<R: Rng>(&self, rng: &mut R) -> sgq::Priority {
        match rng.random_range(0u64..100) {
            0..=19 => sgq::Priority::High,
            20..=79 => sgq::Priority::Normal,
            _ => sgq::Priority::Low,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn abbreviations_are_unique_per_country() {
        assert_eq!(country_abbreviation("Germany"), "GER");
        assert_eq!(country_abbreviation("Country_3"), "COU3");
        assert_ne!(
            country_abbreviation("Country_3"),
            country_abbreviation("Country_13")
        );
    }

    #[test]
    fn q117_variants_cover_fig1() {
        let ds = DatasetSpec::tiny().build();
        let vs = q117_variants(&ds, "Germany");
        assert_eq!(vs.len(), 4);
        // All variants share the same validation set.
        for v in &vs {
            assert_eq!(v.truth, vs[0].truth);
            assert_eq!(v.complexity, 1);
            assert!(v.graph.validate().is_ok());
        }
        // G1 uses the synonym type; G2 the abbreviation.
        assert_eq!(vs[0].graph.node(sgq::QNodeId(0)).type_label(), "Car");
        assert_eq!(vs[1].graph.node(sgq::QNodeId(1)).name(), Some("GER"));
        assert_eq!(vs[2].graph.edges()[0].predicate, "product");
    }

    #[test]
    fn produced_workload_one_query_per_country() {
        let ds = DatasetSpec::tiny().build();
        let w = produced_workload(&ds);
        assert_eq!(w.len(), ds.countries.len());
        assert!(w.iter().all(|q| !q.truth.is_empty()));
    }

    #[test]
    fn chain_query_truth_comes_from_engine_pairs() {
        let ds = DatasetSpec::tiny().build();
        let q = chain_query(&ds, 0);
        assert_eq!(q.complexity, 2);
        assert_eq!(q.truth.len(), ds.spec.engines_per_pair);
        assert!(q.graph.validate().is_ok());
    }

    /// The shared bench/loadgen mix: deterministic under a seed, skewed
    /// toward the hot set at 80/20, degenerating to uniform at 0%.
    #[test]
    fn request_mix_skews_toward_the_hot_set() {
        let mix = RequestMix::default();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 10_000;
        let hot = (0..n)
            .filter(|_| mix.pick(&mut rng, 100) < mix.hot_set)
            .count();
        assert!(
            (0.75..0.88).contains(&(hot as f64 / n as f64)),
            "~80% of picks hit the hot set, got {hot}/{n}"
        );
        // Degenerate workloads never panic or go out of range.
        assert_eq!(mix.pick(&mut rng, 0), 0);
        assert!(mix.pick(&mut rng, 2) < 2);
        // Priorities follow the 20/60/20 split.
        let mut highs = 0usize;
        let mut normals = 0usize;
        for _ in 0..n {
            match mix.pick_priority(&mut rng) {
                sgq::Priority::High => highs += 1,
                sgq::Priority::Normal => normals += 1,
                sgq::Priority::Low => {}
            }
        }
        assert!((0.15..0.25).contains(&(highs as f64 / n as f64)));
        assert!((0.55..0.65).contains(&(normals as f64 / n as f64)));
    }

    #[test]
    fn soccer_query_shape() {
        let ds = DatasetSpec::tiny().build();
        let (q, v1, v2) = soccer_query(&ds, 0);
        assert_eq!(q.complexity, 3);
        assert_eq!(q.graph.edges().len(), 5);
        assert!(!q.truth.is_empty());
        assert!(q.graph.node(sgq::QNodeId(v1)).is_target());
        assert!(q.graph.node(sgq::QNodeId(v2)).is_target());
        assert!(q.graph.validate().is_ok());
    }
}
