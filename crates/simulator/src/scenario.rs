use crate::RequestLog;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rejection::AugmentedGraph;
use socialgraph::{Graph, NodeId};

/// The self-rejection whitewashing strategy (§IV-E, Fig 14).
///
/// The attacker wants to protect `whitewashed` of his *spamming* accounts.
/// He sacrifices the remaining fakes: they stop spamming legitimate users
/// and instead send `requests_per_sender` requests each to the whitewashed
/// accounts, who **reject** them at `rejection_rate`. Rejecting requests is
/// what legitimate users do to spam, so the whitewashed accounts now look
/// legitimate — and the crafted intra-fake cut around the sacrificed
/// senders can have a lower friends-to-rejections ratio than the global
/// spammer/legitimate cut, luring a single-cut detector away.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfRejectionConfig {
    /// How many fakes the attacker whitewashes. These accounts keep
    /// sending friend spam to legitimate users, but additionally reject
    /// the internal requests.
    pub whitewashed: usize,
    /// Requests each sacrificed fake sends to the whitewashed set
    /// (sacrificed fakes send no spam to legitimate users).
    pub requests_per_sender: usize,
    /// Rejection rate of those internal requests (the Fig 14 sweep axis).
    pub rejection_rate: f64,
}

/// Parameters of the §VI-A simulation protocol. Defaults are the paper's
/// baseline; the experiment harnesses sweep one field at a time.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Number of injected fake accounts (paper: 10,000).
    pub num_fakes: usize,
    /// Accepted intra-fake requests per arriving fake (paper: 6;
    /// Fig 13 sweeps this as the collusion axis, 0–40).
    pub fake_intra_edges: usize,
    /// Fraction of fakes that send spam to legitimate users (Fig 10: 0.5).
    pub spammer_fraction: f64,
    /// Spam requests per spamming fake (paper: 20; Fig 9 sweeps 5–50).
    pub requests_per_spammer: usize,
    /// Rejection rate of spam requests by legitimate users (paper: 0.70,
    /// from the RenRen measurement; Fig 11 sweeps it).
    pub spam_rejection_rate: f64,
    /// Rejection rate among legitimate users (paper: 0.20; Fig 12 sweeps).
    pub legit_rejection_rate: f64,
    /// Fraction of legitimate users that carelessly send one accepted
    /// request into the Sybil region (paper: 0.15).
    pub careless_fraction: f64,
    /// Optional self-rejection strategy (Fig 14).
    pub self_rejection: Option<SelfRejectionConfig>,
    /// Requests from random legitimate users to fakes that the fakes
    /// reject, i.e. rejections cast **on** legitimate users (Fig 15 sweeps
    /// 16K–160K at paper scale).
    pub legit_requests_rejected_by_fakes: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            num_fakes: 10_000,
            fake_intra_edges: 6,
            spammer_fraction: 1.0,
            requests_per_spammer: 20,
            spam_rejection_rate: 0.70,
            legit_rejection_rate: 0.20,
            careless_fraction: 0.15,
            self_rejection: None,
            legit_requests_rejected_by_fakes: 0,
        }
    }
}

/// Why a [`ScenarioConfig`] cannot be simulated; see
/// [`ScenarioConfig::check`].
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidScenario(String);

impl std::fmt::Display for InvalidScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for InvalidScenario {}

impl ScenarioConfig {
    /// Checks the rates and counts [`Scenario::new`] relies on: every
    /// rate and fraction in `[0, 1]` (the legitimate rejection rate in
    /// `[0, 1)`, since the simulator divides by `1 − ρ`), and no more
    /// whitewashed accounts than fakes.
    ///
    /// # Errors
    ///
    /// Returns the first violated bound, naming the field and its value.
    pub fn check(&self) -> Result<(), InvalidScenario> {
        let unit = |name: &str, x: f64| {
            if (0.0..=1.0).contains(&x) {
                Ok(())
            } else {
                Err(InvalidScenario(format!("{name} out of [0,1]: {x}")))
            }
        };
        unit("spammer_fraction", self.spammer_fraction)?;
        unit("spam_rejection_rate", self.spam_rejection_rate)?;
        if !(0.0..1.0).contains(&self.legit_rejection_rate) {
            return Err(InvalidScenario(format!(
                "legit_rejection_rate out of [0,1): {}",
                self.legit_rejection_rate
            )));
        }
        unit("careless_fraction", self.careless_fraction)?;
        if let Some(sr) = &self.self_rejection {
            if sr.whitewashed > self.num_fakes {
                return Err(InvalidScenario(format!(
                    "whitewashed exceeds num_fakes: {} > {}",
                    sr.whitewashed, self.num_fakes
                )));
            }
            unit("self-rejection rate", sr.rejection_rate)?;
        }
        Ok(())
    }
}

/// Floyd's sampling: fills `picked` (cleared first) with `m` distinct
/// indices from `0..n`, every `m`-subset equally likely, in `m` draws.
/// Draw `j` takes a uniform `t` in `0..=j` and keeps it, or keeps `j`
/// itself when `t` is already taken (`j` cannot be: earlier draws never
/// exceed their own, smaller `j`).
///
/// # Panics
///
/// Panics if `m > n`.
fn floyd_sample<R: Rng>(rng: &mut R, n: usize, m: usize, picked: &mut Vec<usize>) {
    assert!(m <= n, "cannot pick {m} distinct indices from 0..{n}");
    picked.clear();
    for j in n - m..n {
        let t = rng.gen_range(0..=j);
        picked.push(if picked.contains(&t) { j } else { t });
    }
}

/// The simulated OSN produced by [`Scenario::run`].
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// The rejection-augmented social graph (host graph + Sybil region +
    /// all request outcomes).
    pub graph: AugmentedGraph,
    /// The directed friend-request log (VoteTrust's input). Pre-existing
    /// host friendships are logged as accepted requests with a random
    /// historical direction.
    pub log: RequestLog,
    /// Ground truth: `is_fake[u]`.
    pub is_fake: Vec<bool>,
    /// Ids of the fakes that sent spam to legitimate users.
    pub spammers: Vec<NodeId>,
    /// Ids of all fakes (`num_legit..num_legit + num_fakes`).
    pub fakes: Vec<NodeId>,
    /// Number of legitimate users (the host-graph nodes, `0..num_legit`).
    pub num_legit: usize,
}

impl SimOutput {
    /// Ground-truth mask sliced as `&[bool]` (indexed by node id).
    pub fn is_fake_mask(&self) -> &[bool] {
        &self.is_fake
    }

    /// Number of attack edges (friendships straddling the fake/legit
    /// boundary).
    pub fn attack_edges(&self) -> u64 {
        let mut n = 0u64;
        for u in self.graph.nodes() {
            if !self.is_fake[u.index()] {
                continue;
            }
            for &v in self.graph.friends(u) {
                if !self.is_fake[v.index()] {
                    n += 1;
                }
            }
        }
        n
    }
}

/// Deterministic scenario runner; see [`ScenarioConfig`] for the knobs.
#[derive(Debug, Clone)]
pub struct Scenario {
    config: ScenarioConfig,
}

impl Scenario {
    /// Creates a runner.
    ///
    /// # Panics
    ///
    /// Panics if [`ScenarioConfig::check`] rejects the configuration
    /// (rates outside `[0, 1]`, whitewashed count exceeding `num_fakes`).
    /// Callers holding untrusted input call `check` first.
    pub fn new(config: ScenarioConfig) -> Self {
        if let Err(e) = config.check() {
            panic!("{e}");
        }
        Scenario { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// Simulates the attack on `host` (its nodes are the legitimate users),
    /// deterministically from `seed`.
    pub fn run(&self, host: &Graph, seed: u64) -> SimOutput {
        self.run_impl(host, seed, None)
    }

    /// [`Scenario::run`], recording the attack generator's volumes
    /// (`sim/spam_requests`, `sim/intra_fake_edges`, ...) into `obs`. The
    /// simulation is single-threaded and seed-deterministic, so every
    /// counter is deterministic and lands in the byte-compared section.
    pub fn run_observed(&self, host: &Graph, seed: u64, obs: &rejecto_obs::Obs) -> SimOutput {
        self.run_impl(host, seed, Some(obs))
    }

    fn run_impl(&self, host: &Graph, seed: u64, obs: Option<&rejecto_obs::Obs>) -> SimOutput {
        let _sim_span = obs.map(|o| o.span("simulate"));
        let cfg = &self.config;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let num_legit = host.num_nodes();
        let total = num_legit + cfg.num_fakes;
        let mut log = RequestLog::new(total);

        // Host friendships as historical accepted requests. Directions are
        // balanced per user (whoever has sent fewer so far initiates, ties
        // random) — over time both parties of a friendship circle initiate,
        // and this keeps every user's sent-request count near deg/2 instead
        // of leaving a Binomial tail of users who "never sent anything".
        let mut host_accepted_edges = 0u64;
        let mut sent_count = vec![0u32; total];
        for (u, v) in host.edges() {
            let u_first = match sent_count[u.index()].cmp(&sent_count[v.index()]) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => rng.gen_bool(0.5),
            };
            let (from, to) = if u_first { (u, v) } else { (v, u) };
            sent_count[from.index()] += 1;
            log.push(from, to, true);
            host_accepted_edges += 1;
        }

        let fakes: Vec<NodeId> =
            (num_legit..total).map(NodeId::from_index).collect();

        // Under self-rejection, split fakes into the whitewashed (who keep
        // spamming legitimate users) and the sacrificed internal senders
        // (who do not).
        let whitewashed_count = cfg.self_rejection.map_or(0, |sr| sr.whitewashed);
        let (whitewashed, sacrificed): (Vec<NodeId>, Vec<NodeId>) = {
            let mut shuffled = fakes.clone();
            shuffled.shuffle(&mut rng);
            let w = shuffled[..whitewashed_count].to_vec();
            let r = shuffled[whitewashed_count..].to_vec();
            (w, r)
        };

        // Attack-generator volume counters, flushed into `obs` at the end.
        let mut intra_fake_edges = 0u64;
        let mut spam_requests = 0u64;
        let mut careless_accepts = 0u64;
        let mut legit_rejections = 0u64;
        let mut self_rejection_requests = 0u64;
        let mut fig15_rejections = 0u64;

        // Sybil-region topology: each arriving fake sends accepted requests
        // to `fake_intra_edges` distinct random earlier fakes.
        let mut targets = Vec::with_capacity(cfg.fake_intra_edges);
        for (i, &f) in fakes.iter().enumerate() {
            floyd_sample(&mut rng, i, cfg.fake_intra_edges.min(i), &mut targets);
            for &t in &targets {
                log.push(f, fakes[t], true);
                intra_fake_edges += 1;
            }
        }

        // Spamming subset. With self-rejection active, only the
        // whitewashed accounts spam legitimate users (the sacrificed fakes
        // spend their requests internally); otherwise all fakes are in the
        // pool.
        let spam_pool: &[NodeId] =
            if cfg.self_rejection.is_some() { &whitewashed } else { &fakes };
        let spam_count = (spam_pool.len() as f64 * cfg.spammer_fraction).round() as usize;
        let mut spammers: Vec<NodeId> = {
            let mut pool = spam_pool.to_vec();
            pool.shuffle(&mut rng);
            pool.truncate(spam_count.min(pool.len()));
            pool
        };
        spammers.sort_unstable();

        // Friend spam toward legitimate users.
        if num_legit > 0 {
            for &s in &spammers {
                let mut sent: Vec<NodeId> = Vec::with_capacity(cfg.requests_per_spammer);
                while sent.len() < cfg.requests_per_spammer.min(num_legit) {
                    let t = NodeId(rng.gen_range(0..num_legit as u32));
                    if sent.contains(&t) {
                        continue;
                    }
                    sent.push(t);
                    let accepted = !rng.gen_bool(cfg.spam_rejection_rate);
                    log.push(s, t, accepted);
                    spam_requests += 1;
                }
            }
        }

        // Careless legitimate users: one accepted request into the region.
        if !fakes.is_empty() {
            let careless = (num_legit as f64 * cfg.careless_fraction).round() as usize;
            let mut legit_ids: Vec<u32> = (0..num_legit as u32).collect();
            legit_ids.shuffle(&mut rng);
            for &u in legit_ids.iter().take(careless) {
                let f = fakes[rng.gen_range(0..fakes.len())];
                log.push(NodeId(u), f, true);
                careless_accepts += 1;
            }
        }

        // Rejections among legitimate users: user u's rejected-request count
        // is derived from the requests he sent (≈ his accepted friendships
        // he initiated) and the legit rejection rate: r/(r + sent) = ρ ⇒
        // r = sent·ρ/(1−ρ). Origins are random non-friend legitimate users.
        let rho = cfg.legit_rejection_rate;
        if rho > 0.0 && num_legit > 1 {
            let scale = rho / (1.0 - rho);
            for u in host.nodes() {
                let expected = sent_count[u.index()] as f64 * scale;
                let mut count = expected.floor() as usize;
                if rng.gen_bool(expected - count as f64) {
                    count += 1;
                }
                let mut placed = 0usize;
                let mut guard = 0usize;
                while placed < count && guard < 20 * count + 20 {
                    guard += 1;
                    let x = NodeId(rng.gen_range(0..num_legit as u32));
                    if x == u || host.has_edge(u, x) {
                        continue;
                    }
                    log.push(u, x, false);
                    placed += 1;
                    legit_rejections += 1;
                }
            }
        }

        // Self-rejection whitewashing (Fig 14): sacrificed fakes send
        // internal requests; whitewashed fakes reject them at the crafted
        // rate, mimicking how legitimate users treat spam.
        if let Some(sr) = cfg.self_rejection {
            if !whitewashed.is_empty() {
                for &s in &sacrificed {
                    for _ in 0..sr.requests_per_sender {
                        let t = whitewashed[rng.gen_range(0..whitewashed.len())];
                        let accepted = !rng.gen_bool(sr.rejection_rate);
                        log.push(s, t, accepted);
                        self_rejection_requests += 1;
                    }
                }
            }
        }

        // Fakes rejecting legitimate users' requests (Fig 15). Requests
        // are spread round-robin over a shuffled legit population so every
        // legitimate user carries a near-equal share (no artificial
        // high-rejection subgroup).
        if !fakes.is_empty() && num_legit > 0 && cfg.legit_requests_rejected_by_fakes > 0 {
            let mut order: Vec<u32> = (0..num_legit as u32).collect();
            order.shuffle(&mut rng);
            for i in 0..cfg.legit_requests_rejected_by_fakes {
                let u = NodeId(order[(i % num_legit as u64) as usize]);
                let f = fakes[rng.gen_range(0..fakes.len())];
                log.push(u, f, false);
                fig15_rejections += 1;
            }
        }

        let mut is_fake = vec![false; total];
        for &f in &fakes {
            is_fake[f.index()] = true;
        }
        if let Some(obs) = obs {
            obs.incr("sim/host_accepted_edges", host_accepted_edges);
            obs.incr("sim/intra_fake_edges", intra_fake_edges);
            obs.incr("sim/spam_requests", spam_requests);
            obs.incr("sim/careless_accepts", careless_accepts);
            obs.incr("sim/legit_rejections", legit_rejections);
            obs.incr("sim/self_rejection_requests", self_rejection_requests);
            obs.incr("sim/fig15_rejections", fig15_rejections);
        }
        let graph = log.to_augmented_graph();
        SimOutput { graph, log, is_fake, spammers, fakes, num_legit }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialgraph::generators::BarabasiAlbert;

    fn host(n: usize) -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        BarabasiAlbert::new(n, 4).generate(&mut rng)
    }

    fn small_config() -> ScenarioConfig {
        ScenarioConfig { num_fakes: 40, requests_per_spammer: 10, ..ScenarioConfig::default() }
    }

    #[test]
    fn ground_truth_matches_layout() {
        let sim = Scenario::new(small_config()).run(&host(300), 1);
        assert_eq!(sim.num_legit, 300);
        assert_eq!(sim.fakes.len(), 40);
        assert!(sim.is_fake[300] && sim.is_fake[339]);
        assert!(!sim.is_fake[0] && !sim.is_fake[299]);
    }

    #[test]
    fn observed_run_matches_unobserved_and_reconciles_with_the_log() {
        let h = host(200);
        let cfg = ScenarioConfig {
            legit_requests_rejected_by_fakes: 50,
            self_rejection: Some(SelfRejectionConfig {
                whitewashed: 10,
                requests_per_sender: 5,
                rejection_rate: 0.5,
            }),
            ..small_config()
        };
        let plain = Scenario::new(cfg.clone()).run(&h, 7);
        let obs = rejecto_obs::Obs::default();
        let observed = Scenario::new(cfg).run_observed(&h, 7, &obs);
        assert_eq!(plain.graph, observed.graph);
        assert_eq!(plain.log, observed.log);
        assert_eq!(obs.span_count("simulate"), 1);

        // Every logged request is claimed by exactly one counter.
        let total: u64 = [
            "sim/host_accepted_edges",
            "sim/intra_fake_edges",
            "sim/spam_requests",
            "sim/careless_accepts",
            "sim/legit_rejections",
            "sim/self_rejection_requests",
            "sim/fig15_rejections",
        ]
        .iter()
        .map(|k| obs.counter(k))
        .sum();
        let logged = u64::try_from(observed.log.requests().len()).expect("log fits in u64");
        assert_eq!(total, logged);
        assert_eq!(obs.counter("sim/fig15_rejections"), 50);
        assert!(obs.counter("sim/spam_requests") > 0);
        assert!(obs.counter("sim/self_rejection_requests") > 0);
    }

    #[test]
    fn is_deterministic_per_seed() {
        let h = host(200);
        let a = Scenario::new(small_config()).run(&h, 7);
        let b = Scenario::new(small_config()).run(&h, 7);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.log, b.log);
        let c = Scenario::new(small_config()).run(&h, 8);
        assert_ne!(a.log, c.log);
    }

    #[test]
    fn spam_rejection_rate_is_respected_in_aggregate() {
        let sim = Scenario::new(ScenarioConfig {
            num_fakes: 100,
            requests_per_spammer: 20,
            spam_rejection_rate: 0.7,
            careless_fraction: 0.0,
            legit_rejection_rate: 0.0,
            ..ScenarioConfig::default()
        })
        .run(&host(500), 3);
        // Rejections received by fakes from legit ÷ spam volume ≈ 0.7.
        let mut rejected = 0usize;
        let mut total = 0usize;
        for r in sim.log.requests() {
            if sim.is_fake[r.from.index()] && !sim.is_fake[r.to.index()] {
                total += 1;
                if !r.accepted {
                    rejected += 1;
                }
            }
        }
        assert_eq!(total, 100 * 20);
        let rate = rejected as f64 / total as f64;
        assert!((rate - 0.7).abs() < 0.05, "empirical spam rejection rate {rate}");
    }

    #[test]
    fn half_spammer_fraction_halves_senders() {
        let sim = Scenario::new(ScenarioConfig {
            num_fakes: 100,
            spammer_fraction: 0.5,
            ..ScenarioConfig::default()
        })
        .run(&host(300), 4);
        assert_eq!(sim.spammers.len(), 50);
        // Non-spamming fakes still have intra-fake friendships.
        let silent = sim.fakes.iter().find(|f| !sim.spammers.contains(f)).unwrap();
        assert!(sim.graph.friend_degree(*silent) > 0);
    }

    #[test]
    fn collusion_densifies_the_fake_region() {
        let base = Scenario::new(ScenarioConfig {
            num_fakes: 60,
            fake_intra_edges: 4,
            ..ScenarioConfig::default()
        })
        .run(&host(200), 5);
        let dense = Scenario::new(ScenarioConfig {
            num_fakes: 60,
            fake_intra_edges: 30,
            ..ScenarioConfig::default()
        })
        .run(&host(200), 5);
        let intra = |sim: &SimOutput| -> u64 {
            sim.fakes
                .iter()
                .map(|&f| {
                    sim.graph.friends(f).iter().filter(|v| sim.is_fake[v.index()]).count() as u64
                })
                .sum::<u64>()
                / 2
        };
        assert!(intra(&dense) > 3 * intra(&base));
    }

    #[test]
    fn self_rejection_sacrifices_internal_senders() {
        let sim = Scenario::new(ScenarioConfig {
            num_fakes: 60,
            self_rejection: Some(SelfRejectionConfig {
                whitewashed: 30,
                requests_per_sender: 10,
                rejection_rate: 0.8,
            }),
            ..ScenarioConfig::default()
        })
        .run(&host(200), 6);
        // Only the whitewashed accounts spam legitimate users.
        assert_eq!(sim.spammers.len(), 30);
        // The sacrificed fakes got rejected by the whitewashed ⇒ internal
        // fake-to-fake rejections exist, all landing on non-spammers.
        let mut internal_rejections = 0usize;
        for &f in &sim.fakes {
            let from_fakes = sim
                .graph
                .rejectors_of(f)
                .iter()
                .filter(|r| sim.is_fake[r.index()])
                .count();
            if from_fakes > 0 {
                assert!(
                    !sim.spammers.contains(&f),
                    "whitewashed (spamming) fake {f} received internal rejections"
                );
            }
            internal_rejections += from_fakes;
        }
        assert!(internal_rejections > 0);
        // Sacrificed fakes never sent a request to a legit user.
        for r in sim.log.requests() {
            if sim.is_fake[r.from.index()]
                && !sim.is_fake[r.to.index()]
                && !sim.spammers.contains(&r.from)
            {
                panic!("sacrificed fake {} sent spam", r.from);
            }
        }
    }

    #[test]
    fn legit_rejections_scale_with_rate() {
        let lo = Scenario::new(ScenarioConfig {
            num_fakes: 10,
            legit_rejection_rate: 0.1,
            ..ScenarioConfig::default()
        })
        .run(&host(400), 7);
        let hi = Scenario::new(ScenarioConfig {
            num_fakes: 10,
            legit_rejection_rate: 0.5,
            ..ScenarioConfig::default()
        })
        .run(&host(400), 7);
        let legit_rej = |sim: &SimOutput| {
            sim.log
                .requests()
                .iter()
                .filter(|r| {
                    !r.accepted && !sim.is_fake[r.from.index()] && !sim.is_fake[r.to.index()]
                })
                .count()
        };
        assert!(legit_rej(&hi) > 3 * legit_rej(&lo));
    }

    #[test]
    fn fig15_knob_adds_rejections_on_legit() {
        let sim = Scenario::new(ScenarioConfig {
            num_fakes: 20,
            legit_requests_rejected_by_fakes: 500,
            ..ScenarioConfig::default()
        })
        .run(&host(200), 8);
        let on_legit: usize = (0..sim.num_legit)
            .map(|u| {
                sim.graph
                    .rejectors_of(NodeId(u as u32))
                    .iter()
                    .filter(|r| sim.is_fake[r.index()])
                    .count()
            })
            .sum();
        // Duplicates collapse, so ≤ 500 but clearly present.
        assert!(on_legit > 400, "got {on_legit}");
    }

    #[test]
    fn attack_edges_count_straddling_friendships() {
        let sim = Scenario::new(ScenarioConfig {
            num_fakes: 50,
            careless_fraction: 0.0,
            spam_rejection_rate: 1.0,
            legit_rejection_rate: 0.0,
            ..ScenarioConfig::default()
        })
        .run(&host(200), 9);
        // All spam rejected + no careless users ⇒ no attack edges.
        assert_eq!(sim.attack_edges(), 0);
    }

    #[test]
    fn floyd_sample_is_uniform_over_the_earlier_fakes() {
        let mut rng = ChaCha8Rng::seed_from_u64(2024);
        let mut picked = Vec::new();
        let mut values = [0usize; 10];
        let mut subsets = std::collections::BTreeMap::<Vec<usize>, usize>::new();
        for _ in 0..30_000 {
            floyd_sample(&mut rng, 10, 3, &mut picked);
            for &t in &picked {
                values[t] += 1;
            }
            let mut key = picked.clone();
            key.sort_unstable();
            *subsets.entry(key).or_default() += 1;
        }
        // Each value is expected 9,000 times (sd ≈ 79); ±4 % is about
        // 4.5 sd. Drawing from `0..j` instead of `0..=j` starves the top
        // values (7, 8, 9 fall to ~6,600).
        for (t, &c) in values.iter().enumerate() {
            assert!((8_640..=9_360).contains(&c), "value {t} picked {c} times: {values:?}");
        }
        // Every 3-subset, not just every value, is equally likely: each of
        // the C(10,3) = 120 is expected 250 times (sd ≈ 15.8).
        assert_eq!(subsets.len(), 120);
        for (subset, &c) in &subsets {
            assert!((180..=320).contains(&c), "subset {subset:?} drawn {c} times");
        }
    }

    #[test]
    fn floyd_sample_takes_everything_or_nothing_at_the_ends() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut picked = vec![99];
        floyd_sample(&mut rng, 0, 0, &mut picked);
        assert!(picked.is_empty());
        floyd_sample(&mut rng, 5, 0, &mut picked);
        assert!(picked.is_empty());
        floyd_sample(&mut rng, 7, 7, &mut picked);
        picked.sort_unstable();
        assert_eq!(picked, (0..7).collect::<Vec<_>>());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Exactly `m` distinct indices, all below `n`, whatever the
        /// stream and the scratch buffer held before.
        #[test]
        fn floyd_sample_picks_m_distinct_indices_below_n(
            n in 0usize..64,
            m_frac in 0.0f64..=1.0,
            seed in 0u64..10_000,
            stale in proptest::collection::vec(0usize..1_000, 0..8),
        ) {
            let m = (n as f64 * m_frac).floor() as usize;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut picked = stale;
            floyd_sample(&mut rng, n, m, &mut picked);
            proptest::prop_assert_eq!(picked.len(), m);
            let mut sorted = picked.clone();
            sorted.sort_unstable();
            sorted.dedup();
            proptest::prop_assert_eq!(sorted.len(), m, "repeated index in {:?}", picked);
            proptest::prop_assert!(picked.iter().all(|&t| t < n), "{:?} not below {}", picked, n);
        }
    }

    #[test]
    fn check_rejects_out_of_range_rates_and_counts() {
        let bad = [
            ScenarioConfig { spam_rejection_rate: 1.5, ..ScenarioConfig::default() },
            ScenarioConfig { legit_rejection_rate: 1.0, ..ScenarioConfig::default() },
            ScenarioConfig { careless_fraction: f64::NAN, ..ScenarioConfig::default() },
            ScenarioConfig { spammer_fraction: -0.1, ..ScenarioConfig::default() },
            ScenarioConfig {
                num_fakes: 60,
                self_rejection: Some(SelfRejectionConfig {
                    whitewashed: 100,
                    requests_per_sender: 1,
                    rejection_rate: 0.5,
                }),
                ..ScenarioConfig::default()
            },
        ];
        for cfg in bad {
            assert!(cfg.check().is_err(), "accepted {cfg:?}");
        }
        assert!(ScenarioConfig::default().check().is_ok());
        let msg = ScenarioConfig { spam_rejection_rate: 1.5, ..ScenarioConfig::default() }
            .check()
            .expect_err("1.5 is not a rate")
            .to_string();
        assert_eq!(msg, "spam_rejection_rate out of [0,1]: 1.5");
    }

    #[test]
    #[should_panic(expected = "whitewashed exceeds num_fakes")]
    fn validates_whitewashed_bound() {
        let _ = Scenario::new(ScenarioConfig {
            num_fakes: 5,
            self_rejection: Some(SelfRejectionConfig {
                whitewashed: 6,
                requests_per_sender: 1,
                rejection_rate: 0.5,
            }),
            ..ScenarioConfig::default()
        });
    }
}

#[cfg(test)]
mod fig15_tests {
    use super::*;
    use rand_chacha::ChaCha8Rng;
    use socialgraph::generators::BarabasiAlbert;

    #[test]
    fn fig15_rejections_are_spread_evenly_over_legit_users() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let host = BarabasiAlbert::new(400, 4).generate(&mut rng);
        let sim = Scenario::new(ScenarioConfig {
            num_fakes: 50,
            legit_requests_rejected_by_fakes: 1_200, // 3 per legit user
            legit_rejection_rate: 0.0,
            ..ScenarioConfig::default()
        })
        .run(&host, 9);
        // Count rejections each legit user received from fakes.
        let mut min = usize::MAX;
        let mut max = 0usize;
        for u in 0..sim.num_legit {
            let from_fakes = sim
                .graph
                .rejectors_of(NodeId(u as u32))
                .iter()
                .filter(|r| sim.is_fake[r.index()])
                .count();
            min = min.min(from_fakes);
            max = max.max(from_fakes);
        }
        // Round-robin placement: every user within one of the mean (some
        // loss to duplicate-edge collapsing is tolerated on the low side).
        assert!(max <= 4, "max per-user rejections {max}");
        assert!(min >= 1, "min per-user rejections {min}");
    }

    #[test]
    fn sent_requests_are_balanced_per_user() {
        let mut rng = ChaCha8Rng::seed_from_u64(78);
        let host = BarabasiAlbert::new(300, 4).generate(&mut rng);
        let sim = Scenario::new(ScenarioConfig {
            num_fakes: 10,
            legit_rejection_rate: 0.0,
            careless_fraction: 0.0,
            ..ScenarioConfig::default()
        })
        .run(&host, 10);
        // Accepted host requests sent by each legit user ≈ deg/2 ± 1.
        let mut sent = vec![0usize; sim.num_legit];
        for r in sim.log.requests() {
            if !sim.is_fake[r.from.index()] && !sim.is_fake[r.to.index()] && r.accepted {
                sent[r.from.index()] += 1;
            }
        }
        // The greedy assignment is order-local, so hubs can end up sending
        // far fewer than deg/2 — that is fine. The property that matters
        // for the VoteTrust baseline is the absence of a zero-sender tail:
        // every connected user has at least one accepted sent request, so
        // nobody's rating collapses to 0 from sheer direction bad luck.
        for u in host.nodes() {
            let deg = host.degree(u);
            let s = sent[u.index()];
            assert!(s >= 1, "user {u} with degree {deg} sent nothing");
            assert!(s <= deg, "user {u}: sent {s} exceeds degree {deg}");
        }
        let total: usize = sent.iter().sum();
        assert_eq!(total as u64, host.num_edges(), "every edge sent exactly once");
    }
}
