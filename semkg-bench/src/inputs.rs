//! Workload definitions and the generated inputs they run on.
//!
//! Every input is a pure function of three seeds (dataset, request stream,
//! churn stream). `--seed` derives the request and churn seeds; the dataset
//! seed is fixed unless given explicitly. The program under test only ever
//! sees the generated dataset, queries and update operations.

use std::time::Duration;

use datagen::churn::{churn_stream, ChurnOp};
use datagen::dataset::{BenchDataset, DatasetSpec};
use datagen::workload::{chain_query, produced_workload, q117_variants, soccer_query, RequestMix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sgq::{Priority, QueryGraph, SchedConfig};

/// Countries in the dataset: 32 × (4 Q117 variants + 1 chain + 1 soccer)
/// gives the 192-query miss pool.
const COUNTRIES: usize = 32;
/// Dataset scale: ~96k nodes, ~127k edges, 19 predicates.
const SCALE: f64 = 20.0;
/// Offered rate of the `overload` open loop: well past capacity on a
/// 2-core host, where one `miss` connection answers ~400 q/s and the
/// overloaded scheduler, batching and degrading, ~900–1400 q/s. Fixed,
/// never re-measured per run, so runs on one host compare.
pub const OVERLOAD_RATE: f64 = 1800.0;
/// Deadline of `overload` requests.
pub const TIGHT_DEADLINE: Duration = Duration::from_millis(25);
/// Deadline of every closed-loop request: slack enough that nothing sheds
/// or degrades.
pub const SLACK_DEADLINE: Duration = Duration::from_secs(10);
/// `churn` writer: operations applied per commit.
pub const OPS_PER_COMMIT: usize = 20;
/// `churn` writer: commits per second, on a fixed schedule.
pub const COMMITS_PER_SEC: f64 = 10.0;

/// The four traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, 2 connections, 80/20 over 4 hot queries, answer cache
    /// on: the cache answers nearly every request.
    Hit,
    /// Closed loop, 1 connection, uniform over the 192-query pool, answer
    /// cache off: the engine dominates.
    Miss,
    /// Open loop, 1 connection, fixed rate, 25 ms deadlines, cache off:
    /// admission control, shedding and TBQ degradation.
    Overload,
    /// The `hit` mix on 1 connection while a writer commits 10×/s.
    Churn,
}

/// How a workload offers load.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Each connection waits for its reply before sending again.
    Closed { connections: usize },
    /// One connection sends on a fixed schedule regardless of replies.
    Open { rate: f64 },
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "hit" => Some(Self::Hit),
            "miss" => Some(Self::Miss),
            "overload" => Some(Self::Overload),
            "churn" => Some(Self::Churn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Hit => "hit",
            Self::Miss => "miss",
            Self::Overload => "overload",
            Self::Churn => "churn",
        }
    }

    pub fn shape(self) -> Shape {
        match self {
            Self::Hit => Shape::Closed { connections: 2 },
            Self::Miss | Self::Churn => Shape::Closed { connections: 1 },
            Self::Overload => Shape::Open {
                rate: OVERLOAD_RATE,
            },
        }
    }

    /// The default scheduler (answer cache on) for the hot-set mixes; the
    /// cache switched off for the engine-bound ones.
    pub fn sched_config(self) -> SchedConfig {
        match self {
            Self::Hit | Self::Churn => SchedConfig::default(),
            Self::Miss | Self::Overload => SchedConfig {
                answer_cache_capacity: 0,
                ..SchedConfig::default()
            },
        }
    }

    pub fn deadline(self) -> Duration {
        match self {
            Self::Overload => TIGHT_DEADLINE,
            _ => SLACK_DEADLINE,
        }
    }

    /// True for the mixes drawn 80/20 from the hot set of the produced
    /// workload; false for the uniform draw over the full pool.
    pub fn hot_mix(self) -> bool {
        matches!(self, Self::Hit | Self::Churn)
    }

    pub fn writes(self) -> bool {
        self == Self::Churn
    }
}

/// Query classes of the pool, by decomposition size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// One sub-query (the Q117 variants and the produced workload).
    Q117,
    /// Two sub-queries (Fig. 3(a) chain).
    Chain,
    /// Three sub-queries (Fig. 16 soccer query).
    Soccer,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Q117, Class::Chain, Class::Soccer];

    pub fn name(self) -> &'static str {
        match self {
            Class::Q117 => "q117",
            Class::Chain => "chain",
            Class::Soccer => "soccer",
        }
    }
}

pub struct PoolQuery {
    pub graph: QueryGraph,
    pub class: Class,
}

/// The three seeds every input derives from.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub dataset: u64,
    pub request: u64,
    pub churn: u64,
}

impl Seeds {
    /// Derives independent seeds from one value (splitmix64 steps).
    pub fn derive(seed: u64) -> Self {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            dataset: next(),
            request: next(),
            churn: next(),
        }
    }
}

pub struct Inputs {
    pub dataset: BenchDataset,
    pub space: embedding::PredicateSpace,
    /// 192 queries: per country the four Q117 variants, one chain and one
    /// soccer query.
    pub pool: Vec<PoolQuery>,
    /// The produced workload (one Q117-G4 query per country); its first
    /// four entries are the hot set.
    pub produced: Vec<PoolQuery>,
    /// Update operations the `churn` writer (and the traced run's commit
    /// probe) consume in order.
    pub churn: Vec<ChurnOp>,
    pub seeds: Seeds,
}

impl Inputs {
    /// Generates every input. `churn_ops` bounds how many update
    /// operations a run may consume.
    pub fn generate(seeds: Seeds, churn_ops: usize) -> Self {
        let dataset = DatasetSpec {
            countries: COUNTRIES,
            seed: seeds.dataset,
            ..DatasetSpec::dbpedia_like(SCALE)
        }
        .build();
        let mut pool = Vec::with_capacity(COUNTRIES * 6);
        for (i, country) in dataset.countries.iter().enumerate() {
            for v in q117_variants(&dataset, country) {
                pool.push(PoolQuery {
                    graph: v.graph,
                    class: Class::Q117,
                });
            }
            pool.push(PoolQuery {
                graph: chain_query(&dataset, i).graph,
                class: Class::Chain,
            });
            pool.push(PoolQuery {
                graph: soccer_query(&dataset, i).0.graph,
                class: Class::Soccer,
            });
        }
        let produced = produced_workload(&dataset)
            .into_iter()
            .map(|q| PoolQuery {
                graph: q.graph,
                class: Class::Q117,
            })
            .collect();
        let churn = churn_stream(&dataset, churn_ops, seeds.churn);
        let space = dataset.oracle_space();
        Self {
            dataset,
            space,
            pool,
            produced,
            churn,
            seeds,
        }
    }

    /// The queries a workload draws from.
    pub fn queries(&self, workload: Workload) -> &[PoolQuery] {
        if workload.hot_mix() {
            &self.produced
        } else {
            &self.pool
        }
    }
}

/// One connection's request stream: which query, at which priority.
/// Seeded per connection, so every lane replays the same sequence.
///
/// The hot-set mixes draw 80/20 with `RequestMix`. The uniform mixes deal
/// from a shuffled deck: every query once per round, in a fresh order each
/// round. The draw stays uniform, but a run holds nearly the same share of
/// each query class on every seed, so the cost mix (0.2 ms
/// Q117 against 3–10 ms chain and soccer queries) does not move the result.
pub struct Stream {
    rng: StdRng,
    mix: RequestMix,
    hot_mix: bool,
    deck: Vec<usize>,
    len: usize,
}

impl Stream {
    pub fn new(workload: Workload, seeds: Seeds, connection: usize, len: usize) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seeds.request ^ (connection as u64).wrapping_mul(0x51_7CC1)),
            mix: RequestMix::default(),
            hot_mix: workload.hot_mix(),
            deck: Vec::with_capacity(len),
            len,
        }
    }

    pub fn next_request(&mut self) -> (usize, Priority) {
        let idx = if self.hot_mix {
            self.mix.pick(&mut self.rng, self.len)
        } else {
            if self.deck.is_empty() {
                self.deck.extend(0..self.len);
                self.deck.shuffle(&mut self.rng);
            }
            self.deck.pop().unwrap_or(0)
        };
        (idx, self.mix.pick_priority(&mut self.rng))
    }
}
