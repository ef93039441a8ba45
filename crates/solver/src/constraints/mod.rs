//! The constraint library: exactly the propagators the placement and
//! scheduling models post.

pub mod cumulative;
pub mod element;
pub mod lex;
pub mod linear;
pub mod minmax;
pub mod table;

pub use cumulative::{Cumulative, Task};
pub use element::ElementConst;
pub use lex::LexLeqPair;
pub use linear::{LinRel, Linear};
pub use minmax::Maximum;
pub use table::Table;
