//! Deterministic seeded generation of composite fault schedules for the
//! chaos-soak harness (`cargo xtask chaos`).
//!
//! A chaos *seed* expands into a [`ChaosPlan`]: a multi-fault
//! [`FaultPlan`] drawn from a splitmix64 stream, plus classification
//! predicates telling the harness which invariants each plan can be held
//! to. The generator inserts through the same conflict check as
//! [`FaultPlan::parse`] — one directive per injection point — so every
//! generated plan round-trips through its textual spec, and the spec is
//! what the harness prints when a seed fails (reproduce with
//! `rejecto detect --inject '<spec>'`).
//!
//! Everything here is a pure function of the seed: no OS entropy, no
//! clocks, no allocator addresses. Two machines soaking the same seed
//! range exercise byte-identical schedules.

use crate::faults::{Fault, FaultPlan};

/// Pinned seed base: seed `i` of a soak is `SEED_BASE + i`, so CI runs
/// and local reproductions always mean the same schedule by "seed 7".
pub const SEED_BASE: u64 = 0x7E57_5EED;

/// A splitmix64 stream: the 64-bit finalizer recommended by Vigna as a
/// seeding primitive, tiny and dependency-free. Not cryptographic — it
/// only has to be deterministic and well-spread across seeds.
#[derive(Debug, Clone)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// A stream rooted at `seed`. Distinct seeds give unrelated streams.
    pub fn new(seed: u64) -> Self {
        ChaosRng { state: seed }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `[0, n)`. `n` must be nonzero; the slight modulo bias is
    /// irrelevant for schedule generation.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0) is meaningless");
        self.next_u64() % n.max(1)
    }

    /// A draw in `[lo, hi)` (`lo < hi`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi.saturating_sub(lo).max(1))
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

// Bounds on the schedules `ChaosPlan::generate` draws, sized for the
// harness fixture (a few pruning rounds, a ~15-entry `k` sweep, one or two
// fetch batches a round).

/// Most faults composed into one plan (at least 1 is always drawn).
const MAX_FAULTS: u64 = 4;
/// Round-indexed faults draw rounds in `1..=MAX_ROUND`.
const MAX_ROUND: u64 = 4;
/// Sweep-indexed faults draw indices in `0..MAX_K_INDEX`.
const MAX_K_INDEX: u64 = 10;
/// Worker deaths draw fetch batches in `1..MAX_FETCH`; hangs always land
/// on fetch 1. The harness fixtures (230–260 users) fit a round's first
/// prefetch batch and a read-ahead, so their longest round makes 2 fetch
/// batches at 1 and 4 workers alike.
const MAX_FETCH: u64 = 3;
/// Death schedules draw `1..=MAX_DEATHS` deaths. 9 = 2 × (1 try + 3
/// respawns) + 1 is enough to lose a lone worker (a typed error) or to
/// rebalance a lost shard onto a survivor.
const MAX_DEATHS: u64 = 9;

/// One seed's expanded schedule plus the invariant classification the
/// harness keys on.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// The seed this plan expands (printed on failure for reproduction).
    pub seed: u64,
    /// The composite fault schedule, conflict-free by construction.
    pub faults: FaultPlan,
}

impl ChaosPlan {
    /// Expands `seed` into a composite schedule. Pure: the same seed
    /// always yields the same plan. A `deadline=` directive may be drawn:
    /// deadline trips are wall-clock dependent, so such a plan forfeits
    /// every byte-compare invariant and is soaked for clean termination.
    pub fn generate(seed: u64) -> ChaosPlan {
        let mut rng = ChaosRng::new(seed);
        let mut faults = FaultPlan::none();
        let want = 1 + usize::try_from(rng.below(MAX_FAULTS)).expect("fault count fits in usize");
        // Bounded rejection sampling: a draw landing on an armed injection
        // point is discarded. The attempt cap keeps generation total.
        let mut attempts = 0;
        while faults.faults().len() < want && attempts < 64 {
            attempts += 1;
            let fault = match rng.below(7) {
                0 => Fault::WorkerPanic {
                    k_index: usize::try_from(rng.below(MAX_K_INDEX))
                        .expect("sweep index fits in usize"),
                    persistent: rng.chance(1, 3),
                },
                1 => Fault::CheckpointIoError {
                    round: usize::try_from(rng.range(1, MAX_ROUND + 1))
                        .expect("round fits in usize"),
                },
                2 => Fault::WorkerDeath {
                    fetch: rng.range(1, MAX_FETCH),
                    deaths: u32::try_from(rng.range(1, MAX_DEATHS + 1)).expect("deaths fit in u32"),
                },
                // Fetch 1 is the one fetch every distributed round makes
                // (these fixtures often make no second), so the hang fires.
                3 => Fault::WorkerHang { fetch: 1 },
                4 => Fault::TornWrite {
                    round: usize::try_from(rng.range(1, MAX_ROUND + 1))
                        .expect("round fits in usize"),
                },
                5 => Fault::BitFlip {
                    round: usize::try_from(rng.range(1, MAX_ROUND + 1))
                        .expect("round fits in usize"),
                },
                _ => Fault::Deadline { millis: rng.range(5, 120) },
            };
            let _ = faults.push_directive(fault, &fault.to_string());
        }
        ChaosPlan { seed, faults }
    }

    /// The textual spec of this schedule, accepted verbatim by
    /// [`FaultPlan::parse`] (and the CLI's `--inject`).
    pub fn spec(&self) -> String {
        self.faults.to_string()
    }

    /// Whether the plan arms a wall-clock deadline. Deadline interruption
    /// points are scheduling-dependent, so such plans are soaked for clean
    /// termination only — every byte-compare invariant is skipped.
    pub fn has_deadline(&self) -> bool {
        self.faults.faults().iter().any(|f| matches!(f, Fault::Deadline { .. }))
    }

    /// Whether the plan arms a persistent worker panic. Its deterministic
    /// degradation is a *local* contract (threads 1/4 agree byte-for-byte)
    /// but the distributed runtime absorbs worker loss differently, so
    /// cross-runtime byte-compares are off for these plans.
    pub fn has_persistent_panic(&self) -> bool {
        self.faults
            .faults()
            .iter()
            .any(|f| matches!(f, Fault::WorkerPanic { persistent: true, .. }))
    }

    /// Whether a sinkless uninterrupted run under this plan must render
    /// byte-identically across thread counts (everything except deadline
    /// plans: absorbed faults leave no report trace without a checkpoint
    /// sink, and persistent-panic degradation is deterministic locally).
    pub fn locally_comparable(&self) -> bool {
        !self.has_deadline()
    }

    /// Whether local and distributed legs of this plan must agree
    /// byte-for-byte (and hence also reconcile stripped metrics), and
    /// whether a kill-and-resume leg must reproduce the uninterrupted run
    /// byte-for-byte. Persistent panics are excluded from both: the
    /// distributed runtime absorbs worker loss differently, and their
    /// recorded failures straddle the checkpoint boundary, so a resumed
    /// report legitimately carries a different failure tally.
    pub fn cross_runtime_comparable(&self) -> bool {
        !self.has_deadline() && !self.has_persistent_panic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_expands_to_the_same_plan() {
        for seed in 0..64 {
            let a = ChaosPlan::generate(seed);
            let b = ChaosPlan::generate(seed);
            assert_eq!(a, b, "seed {seed} is not reproducible");
        }
    }

    #[test]
    fn every_generated_plan_round_trips_through_its_spec() {
        for seed in 0..256 {
            let plan = ChaosPlan::generate(seed);
            assert!(!plan.faults.faults().is_empty(), "seed {seed} drew no faults");
            let spec = plan.spec();
            let reparsed = FaultPlan::parse(&spec)
                .unwrap_or_else(|e| panic!("seed {seed}: spec `{spec}` rejected: {e}"));
            assert_eq!(reparsed, plan.faults, "seed {seed}: `{spec}`");
        }
    }

    #[test]
    fn the_seed_range_covers_every_fault_kind() {
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..256 {
            for f in ChaosPlan::generate(seed).faults.faults() {
                kinds.insert(f.injection_point().0);
            }
        }
        for expected in
            ["worker_panic", "io_error", "deadline", "worker_death", "worker_hang", "store mangle"]
        {
            assert!(kinds.contains(expected), "no seed in 0..256 drew {expected}");
        }
    }

    /// A schedule of more than 3 deaths outlives one lineage's respawn
    /// budget, so the soak reaches the worker-lost and rebalance paths.
    #[test]
    fn the_ci_seeds_outlive_a_respawn_budget() {
        let most = (SEED_BASE..SEED_BASE + 16)
            .flat_map(|seed| ChaosPlan::generate(seed).faults.faults().to_vec())
            .filter_map(|f| match f {
                Fault::WorkerDeath { deaths, .. } => Some(deaths),
                _ => None,
            })
            .max();
        assert!(most > Some(3), "the 16 CI seeds draw at most {most:?} deaths in a row");
    }

    #[test]
    fn classification_matches_the_drawn_faults() {
        let plan = |spec: &str| ChaosPlan {
            seed: 0,
            faults: FaultPlan::parse(spec).expect("spec is well-formed"),
        };
        let plan_a = plan("worker_death@fetch=2");
        assert!(plan_a.cross_runtime_comparable());
        let plan_b = plan("worker_death@fetch=2,worker_panic@k=1:always");
        assert!(plan_b.locally_comparable());
        assert!(!plan_b.cross_runtime_comparable());
        let plan_c = plan("worker_death@fetch=2,worker_panic@k=1:always,deadline=10ms");
        assert!(!plan_c.locally_comparable() && !plan_c.cross_runtime_comparable());
    }
}
