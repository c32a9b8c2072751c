//! Physical execution: fully materialized, column-at-a-time operators.

pub mod aggregate;
pub mod executor;
pub mod expression;
pub mod graph_op;
pub mod join;
pub mod pipeline;
pub mod unnest;
pub mod vertex_dict;

pub use executor::Executor;
pub use graph_op::{build_graph, build_graph_with_threads, MaterializedGraph};
pub use vertex_dict::VertexDict;
