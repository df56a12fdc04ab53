//! Threshold-algorithm (TA) assembly of final matches (paper §V-C).
//!
//! Sub-query match lists — each sorted by pss descending, exactly what the
//! A\* search emits — are consumed by **sorted access**, one match per list
//! per row (Fagin's TA without random access, i.e. NRA). Matches sharing a
//! pivot node match `u^p` join into a final match `fm(u^p)` whose score is
//! the sum of its parts' pss values (Eq. 2). Each candidate has:
//!
//! * a **lower bound** `S̲_m(u^p)` — seen parts contribute their pss,
//!   unseen parts contribute 0 (Eqs. 8–9, Lemma 4);
//! * an **upper bound** `S̄_m(u^p)` — unseen parts contribute the list's
//!   current pss frontier `ψ_cur` (Eqs. 10–11, Lemma 5).
//!
//! Assembly stops after the first row in which the k-th best lower bound
//! `L_k` dominates the best upper bound `U_max` among all other (actual or
//! still unseen) candidates (Theorem 3) — usually long before the lists
//! are drained.
//!
//! # Incremental bookkeeping
//!
//! [`assemble`] keeps the access schedule of the textbook NRA loop, which
//! rebuilds every candidate's bounds after each row: the same rows and the
//! same stopping row, hence the same `accesses` and `certified`. Its cost
//! per row is instead proportional to the streams plus the candidates it
//! inspects:
//!
//! * a candidate's score is summed once, in stream order, when its last
//!   slot fills; a k-bounded min-heap of complete scores yields `L_k`, which
//!   only rises;
//! * a complete candidate outside the top-k has an upper bound equal to its
//!   score, so it can never exceed `L_k`; only incomplete candidates can
//!   block Theorem 3. The check first tests the necessary `L_k ≥ Σ ψ_cur`
//!   (the still-unseen pivot), then looks for one incomplete candidate
//!   whose upper bound exceeds `L_k`, starting from the one that blocked
//!   the previous check;
//! * no candidate is dropped for good: the streams are non-increasing only
//!   to within 1e-12, so an upper bound can climb back above `L_k`;
//! * the outcome names the k winners' parts by stream position, so the
//!   caller builds only those: SGQ and TBQ both stream compact A\* hits
//!   and rebuild just the winners' paths ([`crate::astar::Hit`]).

use crate::answer::{FinalMatch, SubMatch};
use crate::astar::Hit;
use kgraph::NodeId;
use rustc_hash::FxHashMap;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What TA reads of a sub-query match: its join key and its pss.
pub trait Ranked {
    /// The pivot match, the join key of Eq. 2.
    fn pivot(&self) -> NodeId;
    /// The match's path semantic similarity ψ.
    fn pss(&self) -> f64;
}

impl Ranked for SubMatch {
    fn pivot(&self) -> NodeId {
        self.pivot
    }
    fn pss(&self) -> f64 {
        self.pss
    }
}

impl Ranked for Hit {
    fn pivot(&self) -> NodeId {
        self.pivot
    }
    fn pss(&self) -> f64 {
        self.pss
    }
}

/// Result of one TA assembly pass.
#[derive(Debug, Clone)]
pub struct TaOutcome {
    /// Top-k complete final matches, best score first.
    pub winners: Vec<Winner>,
    /// Number of sorted accesses performed.
    pub accesses: usize,
    /// True when the top-k is *certified* global-optimal given the streams:
    /// either the `L_k ≥ U_max` condition fired, or every stream was fully
    /// consumed **and** marked exhausted.
    pub certified: bool,
}

/// One final match as TA ranks it.
#[derive(Debug, Clone, PartialEq)]
pub struct Winner {
    /// The pivot node match `u^p`.
    pub pivot: NodeId,
    /// Match score `S_m(u^p) = Σᵢ ψᵢ` (Eq. 2), summed in stream order.
    pub score: f64,
    /// `parts[i]`: position in stream `i` of this match's part.
    pub parts: Vec<usize>,
}

impl Winner {
    /// The final match, `part(i, idx)` building the part at position `idx`
    /// of stream `i`.
    pub fn build(&self, mut part: impl FnMut(usize, usize) -> SubMatch) -> FinalMatch {
        FinalMatch {
            pivot: self.pivot,
            score: self.score,
            parts: self
                .parts
                .iter()
                .enumerate()
                .map(|(i, &idx)| part(i, idx))
                .collect(),
        }
    }
}

/// Assembles final matches from per-sub-query match lists.
///
/// `streams[i]` must be sorted by pss descending. `exhausted[i]` marks that
/// the i-th A\* search can produce no further matches beyond its list; a
/// non-exhausted stream keeps its last pss as the bound for future matches,
/// which blocks certification (the engine then fetches more and retries).
/// Ties rank by pivot id. `k = 0` asks for nothing: the outcome is empty
/// and certified, after no access.
pub fn assemble<M: Ranked>(streams: &[Vec<M>], exhausted: &[bool], k: usize) -> TaOutcome {
    let n = streams.len();
    assert_eq!(n, exhausted.len());
    debug_assert!(streams
        .iter()
        .all(|s| s.windows(2).all(|w| w[0].pss() >= w[1].pss() - 1e-12)));
    if k == 0 {
        return TaOutcome {
            winners: Vec::new(),
            accesses: 0,
            certified: true,
        };
    }

    let mut candidates = Candidates {
        n,
        ..Candidates::default()
    };
    let mut top_k: BinaryHeap<MinScore> = BinaryHeap::with_capacity(k + 1);
    let mut pos = vec![0usize; n];
    // Future-contribution bound per stream: Eq. 11's ψ_cur (pss is bounded
    // by 1 before any access), or 0 once a stream is provably dry — Lemma 5
    // keeps this non-increasing.
    let mut bound: Vec<f64> = streams
        .iter()
        .zip(exhausted)
        .map(|(s, &e)| if s.is_empty() && e { 0.0 } else { 1.0 })
        .collect();
    // Where the previous check found its blocker, as a position in `open`.
    let mut blocker = 0usize;
    let mut accesses = 0usize;
    let certified;

    loop {
        // One row of sorted access (Fig. 10's row-by-row popping).
        let mut any = false;
        for (i, stream) in streams.iter().enumerate() {
            let Some(m) = stream.get(pos[i]) else {
                continue;
            };
            if let Some(score) = candidates.fill(m.pivot(), i, pos[i], streams) {
                top_k.push(MinScore(score));
                if top_k.len() > k {
                    top_k.pop();
                }
            }
            pos[i] += 1;
            bound[i] = if pos[i] == stream.len() && exhausted[i] {
                0.0
            } else {
                m.pss()
            };
            accesses += 1;
            any = true;
        }

        // Termination check (Theorem 3), once k candidates are complete.
        let l_k = top_k.peek().filter(|_| top_k.len() == k).map(|s| s.0);
        if let Some(l_k) = l_k.filter(|&l| l >= bound.iter().sum::<f64>()) {
            match candidates.blocker(blocker, l_k, &bound, streams) {
                Some(at) => blocker = at,
                None => {
                    certified = true;
                    break;
                }
            }
        }

        if !any {
            // Streams fully consumed; certification only if truly exhausted.
            certified = exhausted.iter().all(|&e| e);
            break;
        }
    }

    TaOutcome {
        winners: candidates.into_top_k(k),
        accesses,
        certified,
    }
}

/// A complete candidate's score in [`assemble`]'s k-bounded heap, ordered
/// by `f64::total_cmp` and reversed, so the heap's top is `L_k`.
#[derive(Clone, Copy)]
struct MinScore(f64);

impl PartialEq for MinScore {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for MinScore {}
impl PartialOrd for MinScore {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MinScore {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.total_cmp(&self.0)
    }
}

/// Candidate final matches seen so far, one row of `n` slots per pivot.
#[derive(Default)]
struct Candidates {
    n: usize,
    rows: FxHashMap<NodeId, usize>,
    /// `slots[row * n + i]`: index in stream `i` of the row's first match
    /// there (the best one, as the stream is sorted).
    slots: Vec<Option<usize>>,
    /// Filled slots per row.
    filled: Vec<usize>,
    /// Incomplete rows, in no particular order.
    open: Vec<usize>,
    /// Position of each incomplete row in `open`.
    open_at: Vec<usize>,
    /// `(pivot, score, row)` of every complete row.
    complete: Vec<(NodeId, f64, usize)>,
}

impl Candidates {
    fn row(&self, row: usize) -> &[Option<usize>] {
        &self.slots[row * self.n..(row + 1) * self.n]
    }

    /// Records the match at `idx` of stream `i`, whose pivot is `pivot`.
    /// Returns the candidate's score when this fills its last slot.
    fn fill<M: Ranked>(
        &mut self,
        pivot: NodeId,
        i: usize,
        idx: usize,
        streams: &[Vec<M>],
    ) -> Option<f64> {
        let n = self.n;
        let row = *self.rows.entry(pivot).or_insert_with(|| {
            let row = self.filled.len();
            self.filled.push(0);
            self.slots.resize((row + 1) * n, None);
            self.open_at.push(self.open.len());
            self.open.push(row);
            row
        });
        let slot = &mut self.slots[row * n + i];
        if slot.is_some() {
            return None;
        }
        *slot = Some(idx);
        self.filled[row] += 1;
        if self.filled[row] < n {
            return None;
        }
        let at = self.open_at[row];
        self.open.swap_remove(at);
        if let Some(&moved) = self.open.get(at) {
            self.open_at[moved] = at;
        }
        // Summed in stream order, like the final score of Eq. 2.
        let score = self
            .row(row)
            .iter()
            .zip(streams)
            .filter_map(|(slot, s)| slot.map(|idx| s[idx].pss()))
            .sum();
        self.complete.push((pivot, score, row));
        Some(score)
    }

    /// Position in `open` of an incomplete candidate whose upper bound
    /// exceeds `l_k`, scanning cyclically from `start`; `None` when none
    /// does.
    fn blocker<M: Ranked>(
        &self,
        start: usize,
        l_k: f64,
        bound: &[f64],
        streams: &[Vec<M>],
    ) -> Option<usize> {
        let len = self.open.len();
        (0..len).map(|s| (start + s) % len).find(|&at| {
            let mut upper = 0.0;
            for ((slot, s), b) in self.row(self.open[at]).iter().zip(streams).zip(bound) {
                upper += match slot {
                    Some(idx) => s[*idx].pss(),
                    None => *b,
                };
            }
            upper > l_k
        })
    }

    /// The k best complete candidates, best score first, ties by pivot.
    fn into_top_k(mut self, k: usize) -> Vec<Winner> {
        self.complete
            .sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        self.complete.truncate(k);
        self.complete
            .iter()
            .map(|&(pivot, score, row)| Winner {
                pivot,
                score,
                parts: self.row(row).iter().flatten().copied().collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn m(pivot: u32, pss: f64) -> SubMatch {
        SubMatch {
            source: NodeId::new(1000 + pivot),
            pivot: NodeId::new(pivot),
            pss,
            nodes: vec![NodeId::new(1000 + pivot), NodeId::new(pivot)],
            edges: vec![kgraph::EdgeId::new(0)],
            bindings: Vec::new(),
        }
    }

    /// What [`assemble_reference`] returns: the final matches themselves.
    struct Reference {
        matches: Vec<FinalMatch>,
        accesses: usize,
        certified: bool,
    }

    /// The textbook NRA loop, `assemble`'s oracle: after every row it
    /// rebuilds every candidate's bounds, sorts the complete ones and scans
    /// all others for `U_max`.
    fn assemble_reference(streams: &[Vec<SubMatch>], exhausted: &[bool], k: usize) -> Reference {
        let n = streams.len();
        assert_eq!(n, exhausted.len());
        debug_assert!(streams
            .iter()
            .all(|s| s.windows(2).all(|w| w[0].pss >= w[1].pss - 1e-12)));

        // Per-pivot candidate: best match index per stream (first occurrence in
        // sorted order is the best; A* emits one match per pivot anyway).
        let mut candidates: FxHashMap<NodeId, Vec<Option<usize>>> = FxHashMap::default();
        let mut pos = vec![0usize; n];
        let mut psi_cur = vec![1.0f64; n]; // pss is bounded by 1 before any access
        let mut accesses = 0usize;
        let certified;

        loop {
            // One round of sorted access (Fig. 10's row-by-row popping).
            let mut any = false;
            for i in 0..n {
                if pos[i] >= streams[i].len() {
                    continue;
                }
                let m = &streams[i][pos[i]];
                psi_cur[i] = m.pss;
                let slots = candidates.entry(m.pivot).or_insert_with(|| vec![None; n]);
                if slots[i].is_none() {
                    slots[i] = Some(pos[i]);
                }
                pos[i] += 1;
                accesses += 1;
                any = true;
            }

            // Future-contribution bound per stream (Eq. 11's ψ_cur, or 0 once a
            // stream is provably dry — Lemma 5 keeps this non-increasing).
            let bound: Vec<f64> = (0..n)
                .map(|i| {
                    if pos[i] >= streams[i].len() && exhausted[i] {
                        0.0
                    } else {
                        psi_cur[i]
                    }
                })
                .collect();

            // Bounds per candidate.
            let mut complete: Vec<(NodeId, f64)> = Vec::new();
            let mut uppers: Vec<(NodeId, f64)> = Vec::new();
            for (&pivot, slots) in &candidates {
                let mut lower = 0.0;
                let mut upper = 0.0;
                let mut full = true;
                for i in 0..n {
                    match slots[i] {
                        Some(idx) => {
                            let pss = streams[i][idx].pss;
                            lower += pss;
                            upper += pss;
                        }
                        None => {
                            full = false;
                            upper += bound[i];
                        }
                    }
                }
                if full {
                    complete.push((pivot, lower));
                }
                uppers.push((pivot, upper));
            }

            // Termination check (Theorem 3).
            if complete.len() >= k {
                complete.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                let top: Vec<NodeId> = complete[..k].iter().map(|c| c.0).collect();
                let l_k = complete[k - 1].1;
                // U_max over candidates outside the provisional top-k, plus a
                // virtual still-unseen pivot bounded by the full frontier.
                let unseen: f64 = bound.iter().sum();
                let u_max = uppers
                    .iter()
                    .filter(|(p, _)| !top.contains(p))
                    .map(|(_, u)| *u)
                    .fold(unseen, f64::max);
                if l_k >= u_max {
                    certified = true;
                    break;
                }
            }

            if !any {
                // Streams fully consumed; certification only if truly exhausted.
                certified = exhausted.iter().all(|&e| e);
                break;
            }
        }

        // Materialise complete candidates, best score first.
        let mut finals: Vec<FinalMatch> = candidates
            .into_iter()
            .filter_map(|(pivot, slots)| {
                let parts: Option<Vec<SubMatch>> = slots
                    .iter()
                    .enumerate()
                    .map(|(i, s)| s.map(|idx| streams[i][idx].clone()))
                    .collect();
                parts.map(|parts| FinalMatch {
                    pivot,
                    score: parts.iter().map(|p| p.pss).sum(),
                    parts,
                })
            })
            .collect();
        finals.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.pivot.cmp(&b.pivot)));
        finals.truncate(k);
        Reference {
            matches: finals,
            accesses,
            certified,
        }
    }

    /// Paper Fig. 4: M1 = {Auto1 .9, Auto2 .8, Auto3 .7},
    /// M2 = {Auto2 .8, Auto3 .75, Auto1 .5} → top-2 are Auto2 (1.6) and
    /// Auto3 (1.45).
    #[test]
    fn figure4_example() {
        let m1 = vec![m(1, 0.9), m(2, 0.8), m(3, 0.7)];
        let m2 = vec![m(2, 0.8), m(3, 0.75), m(1, 0.5)];
        let out = assemble(&[m1, m2], &[true, true], 2);
        assert_eq!(out.winners.len(), 2);
        assert_eq!(out.winners[0].pivot, NodeId::new(2));
        assert!((out.winners[0].score - 1.6).abs() < 1e-12);
        assert_eq!(out.winners[1].pivot, NodeId::new(3));
        assert!((out.winners[1].score - 1.45).abs() < 1e-12);
        assert!(out.certified);
    }

    /// Early termination in the spirit of Fig. 10: a huge gap between the
    /// top candidates and the tail means TA must stop well before draining.
    #[test]
    fn early_termination_before_draining() {
        let s1 = vec![m(1, 0.99), m(2, 0.98), m(3, 0.10), m(4, 0.09), m(5, 0.08)];
        let s2 = vec![m(2, 0.99), m(1, 0.98), m(3, 0.10), m(4, 0.09), m(5, 0.08)];
        let out = assemble(&[s1, s2], &[true, true], 2);
        assert!(out.certified);
        assert!(
            out.accesses < 10,
            "must stop before draining both lists (got {} accesses)",
            out.accesses
        );
        let pivots: Vec<u32> = out.winners.iter().map(|f| f.pivot.0).collect();
        assert_eq!(pivots, vec![1, 2]);
    }

    #[test]
    fn incomplete_joins_never_returned() {
        let s1 = vec![m(1, 0.9), m(2, 0.8)];
        let s2 = vec![m(2, 0.7)]; // pivot 1 never appears in stream 2
        let out = assemble(&[s1, s2], &[true, true], 5);
        assert_eq!(out.winners.len(), 1);
        assert_eq!(out.winners[0].pivot, NodeId::new(2));
        assert!((out.winners[0].score - 1.5).abs() < 1e-12);
    }

    #[test]
    fn single_stream_passthrough() {
        let s = vec![m(1, 0.9), m(2, 0.8), m(3, 0.7)];
        let out = assemble(&[s], &[true], 2);
        assert_eq!(out.winners.len(), 2);
        assert_eq!(out.winners[0].pivot, NodeId::new(1));
        assert!(out.certified);
    }

    #[test]
    fn non_exhausted_streams_block_certification() {
        // Pivot 2 tops stream 1 but never shows in the short stream 2; a
        // future stream-2 match (bounded by its frontier 0.7) could complete
        // fm(2) with 0.9 + 0.7 = 1.6 > 1.3, so certification must wait.
        let s1 = vec![m(2, 0.9), m(1, 0.6)];
        let s2 = vec![m(1, 0.7)];
        let out = assemble(&[s1.clone(), s2.clone()], &[true, false], 1);
        assert!(!out.certified);
        assert_eq!(out.winners.len(), 1, "best-effort answer still returned");
        // Once stream 2 is exhausted, fm(2) can never complete → certified.
        let out = assemble(&[s1, s2], &[true, true], 1);
        assert!(out.certified);
        assert_eq!(out.winners[0].pivot, NodeId::new(1));
    }

    #[test]
    fn empty_streams() {
        let empty: [Vec<SubMatch>; 2] = [vec![], vec![]];
        let out = assemble(&empty, &[true, true], 3);
        assert!(out.winners.is_empty());
        assert!(out.certified);
        assert_eq!(out.accesses, 0);
        let out = assemble(&empty, &[false, true], 3);
        assert!(!out.certified);
    }

    #[test]
    fn k_larger_than_candidates() {
        let s1 = vec![m(1, 0.9)];
        let s2 = vec![m(1, 0.8)];
        let out = assemble(&[s1, s2], &[true, true], 10);
        assert_eq!(out.winners.len(), 1);
        assert!(out.certified);
    }

    /// The streams are non-increasing only to within 1e-12, so an upper
    /// bound that falls to `L_k` can climb back above it. After row 2,
    /// fm(3)'s upper bound equals `L_k` = fm(1)'s 0.875 while fm(2) blocks;
    /// in row 3 stream 2's frontier rises by 1e-13 and fm(3) blocks
    /// instead. Dropping fm(3) at row 2 would certify a row early.
    #[test]
    fn upper_bound_climbing_back_above_l_k_blocks() {
        let s1 = vec![m(1, 0.5), m(3, 0.5), m(2, 0.25), m(6, 0.125)];
        let s2 = vec![m(2, 0.5), m(1, 0.375), m(5, 0.375 + 1e-13), m(7, 0.125)];
        let streams = [s1, s2];
        let out = assemble(&streams, &[true, true], 1);
        assert_eq!(out.accesses, 8);
        assert!(out.certified);
        assert_eq!(out.winners[0].pivot, NodeId::new(1));
        let reference = assemble_reference(&streams, &[true, true], 1);
        assert_eq!(reference.accesses, 8);
    }

    #[test]
    fn k_zero_is_empty_and_certified() {
        let s = vec![m(1, 0.9), m(2, 0.8)];
        let out = assemble(&[s.clone(), s], &[false, true], 0);
        assert!(out.winners.is_empty());
        assert!(out.certified);
        assert_eq!(out.accesses, 0);
    }

    /// Reference implementation: full nested-loop join + sort.
    fn naive(streams: &[Vec<SubMatch>], k: usize) -> Vec<(u32, f64)> {
        let mut per_pivot: FxHashMap<u32, Vec<Option<f64>>> = FxHashMap::default();
        for (i, s) in streams.iter().enumerate() {
            for sm in s {
                let e = per_pivot
                    .entry(sm.pivot.0)
                    .or_insert_with(|| vec![None; streams.len()]);
                let slot = &mut e[i];
                if slot.is_none_or(|v| sm.pss > v) {
                    *slot = Some(sm.pss);
                }
            }
        }
        let mut finals: Vec<(u32, f64)> = per_pivot
            .into_iter()
            .filter_map(|(p, slots)| {
                slots
                    .into_iter()
                    .sum::<Option<f64>>()
                    .map(|score| (p, score))
            })
            .collect();
        finals.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        finals.truncate(k);
        finals
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// TA equals the naive full join on exhausted random streams
        /// (Theorem 3 correctness).
        #[test]
        fn prop_ta_equals_naive_join(
            raw in proptest::collection::vec(
                proptest::collection::vec((0u32..12, 0.0f64..1.0), 0..12),
                1..4,
            ),
            k in 1usize..6,
        ) {
            // Deduplicate pivots within a stream (A* emits unique pivots)
            // and sort descending.
            let streams: Vec<Vec<SubMatch>> = raw
                .iter()
                .map(|s| {
                    let mut best: FxHashMap<u32, f64> = FxHashMap::default();
                    for &(p, pss) in s {
                        let e = best.entry(p).or_insert(pss);
                        if pss > *e {
                            *e = pss;
                        }
                    }
                    let mut v: Vec<SubMatch> =
                        best.into_iter().map(|(p, pss)| m(p, pss)).collect();
                    v.sort_by(|a, b| b.pss.total_cmp(&a.pss));
                    v
                })
                .collect();
            let exhausted = vec![true; streams.len()];
            let out = assemble(&streams, &exhausted, k);
            prop_assert!(out.certified);
            let reference = naive(&streams, k);
            prop_assert_eq!(out.winners.len(), reference.len());
            for (got, want) in out.winners.iter().zip(&reference) {
                // Both sides rank by (score desc, pivot asc).
                prop_assert_eq!(got.pivot.0, want.0);
                prop_assert!((got.score - want.1).abs() < 1e-9,
                    "score mismatch: {} vs {}", got.score, want.1);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        /// The incremental `assemble` equals the textbook loop bit for bit
        /// (pivots, score bits, parts, accesses, certification) on streams
        /// with frequent ties, duplicate pivots, non-exhausted streams, k
        /// above the candidate count and, in half the cases, pss rises
        /// below the 1e-12 that `assemble` tolerates.
        #[test]
        fn prop_incremental_equals_reference(
            raw in proptest::collection::vec(
                proptest::collection::vec((0u32..10, 1u8..=8, 0u8..4), 0..14),
                1..5,
            ),
            flags in proptest::collection::vec(proptest::bool::ANY, 5),
            k in 1usize..14,
        ) {
            let jittered = flags[4];
            let streams: Vec<Vec<SubMatch>> = raw
                .iter()
                .map(|s| {
                    let mut s = s.clone();
                    // Sorted by the coarse level only, so a jittered pss may
                    // rise inside a level.
                    s.sort_by_key(|e| std::cmp::Reverse(e.1));
                    s.iter()
                        .map(|&(p, level, jitter)| {
                            let jitter = if jittered { f64::from(jitter) * 1e-13 } else { 0.0 };
                            m(p, f64::from(level) / 8.0 - jitter)
                        })
                        .collect()
                })
                .collect();
            let exhausted = &flags[..streams.len()];
            let got = assemble(&streams, exhausted, k);
            let want = assemble_reference(&streams, exhausted, k);
            prop_assert_eq!(got.accesses, want.accesses);
            prop_assert_eq!(got.certified, want.certified);
            let got: Vec<FinalMatch> = got
                .winners
                .iter()
                .map(|w| w.build(|i, idx| streams[i][idx].clone()))
                .collect();
            prop_assert_eq!(got.len(), want.matches.len());
            for (g, w) in got.iter().zip(&want.matches) {
                prop_assert_eq!(g.pivot, w.pivot);
                prop_assert_eq!(g.score.to_bits(), w.score.to_bits());
                prop_assert_eq!(&g.parts, &w.parts);
            }
        }
    }
}
