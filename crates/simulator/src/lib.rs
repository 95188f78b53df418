//! Attack and workload simulation for the Rejecto evaluation (§VI-A).
//!
//! Builds, from a legitimate host graph and a [`ScenarioConfig`], the full
//! simulated OSN the paper evaluates on:
//!
//! * a Sybil region grafted onto the host graph (each arriving fake
//!   connects to 6 distinct earlier fakes by default, Floyd-sampled);
//! * friend spam: each spamming fake sends `requests_per_spammer` requests
//!   to random legitimate users, rejected at `spam_rejection_rate`;
//! * rejections among legitimate users derived from the legit rejection
//!   rate and each user's friend count, cast by random non-friend
//!   legitimate users;
//! * *careless* legitimate users (15% by default) who send one accepted
//!   request into the Sybil region;
//! * the attack strategies: collusion (dense accepted intra-fake
//!   requests), self-rejection whitewashing ([`SelfRejectionConfig`]), and
//!   fakes rejecting legitimate users' requests (Fig 15).
//!
//! The output carries both the rejection-augmented graph (for Rejecto) and
//! the directed [`RequestLog`] (for the VoteTrust baseline), plus ground
//! truth.
//!
//! ```
//! use simulator::{ScenarioConfig, Scenario};
//! use socialgraph::generators::BarabasiAlbert;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let host = BarabasiAlbert::new(500, 4).generate(&mut rng);
//! let config = ScenarioConfig { num_fakes: 50, ..ScenarioConfig::default() };
//! let sim = Scenario::new(config).run(&host, 42);
//! assert_eq!(sim.graph.num_nodes(), 550);
//! assert_eq!(sim.is_fake.iter().filter(|&&f| f).count(), 50);
//! ```

#![forbid(unsafe_code)]

mod purchased;
mod requests;
mod scenario;
mod seeds;
pub mod timeline;

pub use purchased::{FriendProfile, PurchasedAccount, PurchasedStudy, PurchasedStudyConfig};
pub use requests::{Request, RequestLog};
pub use scenario::{InvalidScenario, Scenario, ScenarioConfig, SelfRejectionConfig, SimOutput};
pub use seeds::{sample_seeds, sample_seeds_community};
pub use timeline::{TimedRequest, Timeline, TimelineConfig};
