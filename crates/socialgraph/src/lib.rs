//! Social-graph substrate for the Rejecto reproduction.
//!
//! This crate implements everything the paper's evaluation needs from a
//! graph library, from scratch:
//!
//! * a compact undirected simple graph ([`Graph`]) with a deduplicating
//!   [`GraphBuilder`];
//! * random-graph generators used to synthesize the evaluation's host
//!   graphs ([`generators`]): Barabási–Albert, Holme–Kim (power-law with
//!   tunable clustering) and Watts–Strogatz;
//! * graph metrics ([`metrics`]): average local clustering coefficient,
//!   (pseudo-)diameter, degree statistics, connected components;
//! * community detection by label propagation ([`communities`]) and the
//!   SybilRank-style community-spread seed picker;
//! * SNAP-style edge-list I/O ([`io`]);
//! * the catalog of Table-I surrogate graphs ([`surrogates`]).
//!
//! # Example
//!
//! ```
//! use socialgraph::{GraphBuilder, NodeId};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(NodeId(0), NodeId(1));
//! b.add_edge(NodeId(1), NodeId(2));
//! let g = b.build();
//! assert_eq!(g.num_nodes(), 4);
//! assert_eq!(g.num_edges(), 2);
//! assert_eq!(g.degree(NodeId(1)), 2);
//! ```

mod error;
mod graph;
mod id;

pub mod analysis;
pub mod communities;
pub mod det;
pub mod generators;
pub mod io;
pub mod metrics;
pub mod surrogates;

pub use error::GraphError;
pub use graph::{EdgesIter, Graph, GraphBuilder};
pub use id::NodeId;
