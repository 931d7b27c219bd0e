//! The rule catalog: [`lock_discipline`].

pub mod lock_discipline;
