//! Property-based tests of the §VI-A scenario generator.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simulator::{Scenario, ScenarioConfig};
use socialgraph::generators::BarabasiAlbert;
use socialgraph::Graph;

fn host(n: usize, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    BarabasiAlbert::new(n.max(10), 3).generate(&mut rng)
}

fn small_config() -> impl Strategy<Value = ScenarioConfig> {
    (
        5usize..60,    // fakes
        0usize..10,    // intra edges
        0.0f64..=1.0,  // spammer fraction
        1usize..15,    // requests per spammer
        0.0f64..=1.0,  // spam rejection
        0.0f64..0.9,   // legit rejection
        0.0f64..=1.0,  // careless fraction
    )
        .prop_map(|(fakes, intra, frac, reqs, srej, lrej, careless)| ScenarioConfig {
            num_fakes: fakes,
            fake_intra_edges: intra,
            spammer_fraction: frac,
            requests_per_spammer: reqs,
            spam_rejection_rate: srej,
            legit_rejection_rate: lrej,
            careless_fraction: careless,
            ..ScenarioConfig::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The simulation is a pure function of (host, config, seed).
    #[test]
    fn simulation_is_deterministic(cfg in small_config(), seed in 0u64..1000) {
        let h = host(80, 1);
        let a = Scenario::new(cfg.clone()).run(&h, seed);
        let b = Scenario::new(cfg).run(&h, seed);
        prop_assert_eq!(a.graph, b.graph);
        prop_assert_eq!(a.log, b.log);
        prop_assert_eq!(a.spammers, b.spammers);
    }

    /// The augmented graph is exactly the projection of the request log:
    /// same friendship count, and every rejection edge has a rejected
    /// request behind it.
    #[test]
    fn graph_is_projection_of_log(cfg in small_config(), seed in 0u64..1000) {
        let h = host(60, 2);
        let sim = Scenario::new(cfg).run(&h, seed);
        let rebuilt = sim.log.to_augmented_graph();
        prop_assert_eq!(&sim.graph, &rebuilt);
        for u in sim.graph.nodes() {
            for &v in sim.graph.rejected_by(u) {
                let backing = sim
                    .log
                    .requests()
                    .iter()
                    .any(|r| r.from == v && r.to == u && !r.accepted);
                prop_assert!(backing, "rejection ⟨{u}, {v}⟩ without a rejected request");
            }
        }
    }

    /// Ground-truth layout: legit users first, fakes after; spammers are
    /// fakes; counts line up with the config.
    #[test]
    fn ground_truth_is_consistent(cfg in small_config(), seed in 0u64..1000) {
        let h = host(60, 3);
        let sim = Scenario::new(cfg.clone()).run(&h, seed);
        prop_assert_eq!(sim.num_legit, h.num_nodes());
        prop_assert_eq!(sim.fakes.len(), cfg.num_fakes);
        prop_assert_eq!(
            sim.is_fake.iter().filter(|&&f| f).count(),
            cfg.num_fakes
        );
        for (i, &f) in sim.is_fake.iter().enumerate() {
            prop_assert_eq!(f, i >= sim.num_legit);
        }
        for s in &sim.spammers {
            prop_assert!(sim.is_fake[s.index()], "spammer {s} not a fake");
        }
        // With no self-rejection, spammer count follows the fraction.
        let expect = (cfg.num_fakes as f64 * cfg.spammer_fraction).round() as usize;
        prop_assert_eq!(sim.spammers.len(), expect);
    }

    /// Attack edges equal the accepted cross-boundary requests
    /// (spam accepted by legit + careless accepted by fakes), up to
    /// duplicate collapsing.
    #[test]
    fn attack_edges_match_accepted_cross_requests(cfg in small_config(), seed in 0u64..1000) {
        let h = host(60, 4);
        let sim = Scenario::new(cfg).run(&h, seed);
        let accepted_cross = sim
            .log
            .requests()
            .iter()
            .filter(|r| {
                r.accepted && (sim.is_fake[r.from.index()] != sim.is_fake[r.to.index()])
            })
            .count() as u64;
        let attack = sim.attack_edges();
        prop_assert!(attack <= accepted_cross, "{attack} > {accepted_cross}");
        // Duplicates are rare at this scale; the counts stay close.
        prop_assert!(
            attack as f64 >= 0.9 * accepted_cross as f64,
            "attack {attack} vs accepted cross {accepted_cross}"
        );
    }

    /// The Sybil region: the `i`-th arriving fake sends accepted requests
    /// to exactly `min(fake_intra_edges, i)` distinct earlier fakes, and
    /// `sim/intra_fake_edges` counts exactly those requests. Without
    /// self-rejection they are the only fake-to-fake requests.
    #[test]
    fn each_fake_befriends_min_m_i_distinct_earlier_fakes(
        cfg in small_config(),
        seed in 0u64..1000,
    ) {
        let h = host(40, 6);
        let obs = rejecto_obs::Obs::default();
        let sim = Scenario::new(cfg.clone()).run_observed(&h, seed, &obs);
        let mut targets: Vec<Vec<usize>> = vec![Vec::new(); cfg.num_fakes];
        for r in sim.log.requests() {
            if sim.is_fake[r.from.index()] && sim.is_fake[r.to.index()] {
                prop_assert!(r.accepted);
                targets[r.from.index() - sim.num_legit].push(r.to.index() - sim.num_legit);
            }
        }
        let mut expected_total = 0u64;
        for (i, t) in targets.iter_mut().enumerate() {
            let want = cfg.fake_intra_edges.min(i);
            expected_total += want as u64;
            prop_assert_eq!(t.len(), want, "fake #{} sent {:?}", i, t);
            prop_assert!(t.iter().all(|&j| j < i), "fake #{} targets a later fake: {:?}", i, t);
            t.sort_unstable();
            t.dedup();
            prop_assert_eq!(t.len(), want, "fake #{} repeats a target", i);
        }
        prop_assert_eq!(obs.counter("sim/intra_fake_edges"), expected_total);
    }

    /// Host friendships always survive into the simulated graph.
    #[test]
    fn host_graph_is_preserved(cfg in small_config(), seed in 0u64..1000) {
        let h = host(50, 5);
        let sim = Scenario::new(cfg).run(&h, seed);
        for (u, v) in h.edges() {
            prop_assert!(sim.graph.are_friends(u, v), "lost host edge ({u}, {v})");
        }
    }
}
