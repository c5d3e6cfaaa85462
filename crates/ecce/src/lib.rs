//! # pse-ecce — the Extensible Computational Chemistry Environment data layer
//!
//! The application half of the paper: Ecce's calculation data model
//! (Figure 3), the layered data-access architecture (Figure 2), the
//! mapping of that model onto DAV constructs (Figure 4), and everything
//! the evaluation section exercises — the six Ecce tools of Table 3, the
//! OODB→DAV migration of §3.2.4, and the metadata agents of §4.
//!
//! Layer map (Figure 2 → modules):
//!
//! | Figure 2 layer | module |
//! |---|---|
//! | Ecce applications (tools) | [`tools`] |
//! | Object / factory layer | [`factory`] (`EcceStore` trait) |
//! | Data Storage Interface | [`dsi`] (`DataStorage` trait) |
//! | DAV protocol client | [`davstore`] over `pse-dav` |
//! | (legacy 1.5 path) | [`oodbstore`] over `pse-oodb` |
//!
//! Domain substrate: [`chem`] (molecules, XYZ/PDB formats, the
//! UO2·15H2O test system), [`basis`] (Gaussian basis sets), [`model`]
//! (projects, calculations, tasks, jobs, output properties), [`jobs`]
//! (NWChem-style input decks and a synthetic compute runner).
//!
//! Evaluation support: [`migrate`] (two-stage OODB→DAV migration with
//! disk accounting), [`agent`] (third-party metadata agents), [`query`]
//! (the metadata query interface over DASL SEARCH).

pub mod agent;
pub mod basis;
pub mod chem;
pub mod davstore;
pub mod dsi;
pub mod error;
pub mod factory;
pub mod jobs;
pub mod migrate;
pub mod model;
pub mod oodbstore;
pub mod query;
pub mod tools;

pub use chem::Molecule;
pub use davstore::DavEcceStore;
pub use error::{EcceError, Result};
pub use factory::EcceStore;
pub use model::{CalcState, Calculation, OutputProperty, Project, RunType, Theory};
pub use oodbstore::OodbEcceStore;

/// The single metadata namespace the paper defines: "For metadata, a
/// single 'ecce' namespace was defined."
pub const ECCE_NS: &str = "http://emsl.pnl.gov/ecce";
