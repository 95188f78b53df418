//! Random-graph generators.
//!
//! The paper evaluates on one Facebook sample, five SNAP datasets, and a
//! Barabási–Albert synthetic graph (Table I). We do not have the raw
//! datasets, so [`crate::surrogates`] uses these generators to synthesize
//! graphs in the same size and clustering regime. Every generator takes an
//! explicit RNG so runs are reproducible from a seed.
//!
//! ```
//! use socialgraph::generators::BarabasiAlbert;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let g = BarabasiAlbert::new(1_000, 4).generate(&mut rng);
//! assert_eq!(g.num_nodes(), 1_000);
//! ```

mod ba;
mod holme_kim;
mod watts_strogatz;

pub use ba::BarabasiAlbert;
pub use holme_kim::HolmeKim;
pub use watts_strogatz::WattsStrogatz;
