//! One module per reproduced artifact; [`crate::registry`] is the index.

pub mod breakeven;
pub mod ca_spectrum;
pub mod eq1;
pub mod eq2;
pub mod ffvb;
pub mod fig1;
pub mod fig2;
pub mod fig45;
pub mod lsb;
pub mod matrices;
pub mod noise;
pub mod overlap;
pub mod progressive;
pub mod resilience;
pub mod solvers;
pub mod table1;
pub mod table2;
pub mod tiled;
pub mod warmup;
