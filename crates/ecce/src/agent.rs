//! Third-party metadata agents — the §4 lightweight-integration
//! scenarios.
//!
//! "This open data architecture also makes possible feature analysis
//! applications or agents that can independently discover objects in the
//! data store (3D structures, for example), apply feature analysis
//! algorithms, and attach their discoveries to the objects as new
//! metadata. For example, an agent could use the molecular geometry,
//! vibrational frequencies, electron distribution and other properties
//! calculated via Ecce to determine thermodynamic properties of the
//! molecule which could then be appended as new DAV metadata."
//!
//! Crucially, these agents work **below the Ecce schema**: they discover
//! resources by the metadata they understand (`format`, `formula`,
//! property documents) and write new keys Ecce has never heard of —
//! no coordination required.

use crate::dsi::DataStorage;
use crate::error::Result;
use crate::model::{OutputProperty, PropertyValue};
use pse_http::uri::{join_path, parent_path};

/// Conversion: wavenumber (cm⁻¹) to kcal/mol of vibrational quantum.
const CM1_TO_KCAL: f64 = 2.859e-3;

/// What the thermodynamics agent did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AgentReport {
    /// Molecule documents discovered.
    pub discovered: usize,
    /// Molecules annotated with new thermodynamic metadata.
    pub annotated: usize,
}

/// Zero-point energy (kcal/mol) from harmonic frequencies: ½ Σ hν.
pub fn zero_point_energy(frequencies: &[f64]) -> f64 {
    0.5 * frequencies.iter().filter(|f| **f > 0.0).sum::<f64>() * CM1_TO_KCAL
}

/// A crude vibrational entropy estimate (cal/mol·K at 298 K): low
/// frequencies dominate.
pub fn vibrational_entropy(frequencies: &[f64]) -> f64 {
    frequencies
        .iter()
        .filter(|f| **f > 1.0)
        .map(|f| 1.987 * (1.0 + (208.5 / f).ln().max(0.0)))
        .sum()
}

/// The thermodynamic feature agent. It discovers molecule documents by
/// the `format` metadata, reads the sibling `frequencies` property when
/// one exists, computes thermodynamic quantities, and attaches them as
/// new metadata on the molecule document itself.
pub fn thermodynamic_agent<S: DataStorage>(storage: &mut S, scope: &str) -> Result<AgentReport> {
    let mut report = AgentReport::default();
    // Discovery: nothing but the open `format` key is needed.
    let molecules = storage.find_by_meta(scope, "format", "xyz")?;
    for mol_path in molecules {
        report.discovered += 1;
        let calc_path = parent_path(&mol_path);
        let freq_path = join_path(&join_path(&calc_path, "properties"), "frequencies");
        if !storage.exists(&freq_path)? {
            continue;
        }
        let body = storage.read(&freq_path)?;
        let Ok(prop) = OutputProperty::from_text(&String::from_utf8_lossy(&body)) else {
            continue;
        };
        let PropertyValue::Vector(freqs) = &prop.value else {
            continue;
        };
        let zpe = zero_point_energy(freqs);
        let entropy = vibrational_entropy(freqs);
        storage.set_meta(&mol_path, "thermo-zpe-kcal", &format!("{zpe:.3}"))?;
        storage.set_meta(&mol_path, "thermo-svib-cal", &format!("{entropy:.3}"))?;
        storage.set_meta(&mol_path, "thermo-agent", "pse-thermo/1.0")?;
        report.annotated += 1;
    }
    Ok(report)
}

/// The electronic-notebook agent: references Ecce data and adds "digital
/// signatures and annotation relationships … without affecting the
/// operation of Ecce".
pub fn notebook_annotate<S: DataStorage>(
    storage: &mut S,
    path: &str,
    note: &str,
    author: &str,
) -> Result<String> {
    // A content signature over the resource's documents.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    if let Ok(children) = storage.list(path) {
        for child in children {
            if let Ok(data) = storage.read(&join_path(path, &child)) {
                mix(&data);
            }
        }
    } else if let Ok(data) = storage.read(path) {
        mix(&data);
    }
    let signature = format!("fnv1a:{hash:016x}");
    storage.set_meta(path, "notebook-note", note)?;
    storage.set_meta(path, "notebook-author", author)?;
    storage.set_meta(path, "notebook-signature", &signature)?;
    Ok(signature)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::davstore::DavEcceStore;
    use crate::dsi::InProcStorage;
    use crate::factory::EcceStore;
    use crate::jobs;
    use crate::model::{CalcState, Calculation, Project, RunType};
    use pse_dav::memrepo::MemRepository;
    use std::sync::Arc;

    fn populated_store() -> (DavEcceStore<InProcStorage<MemRepository>>, String) {
        let mut store =
            DavEcceStore::open(InProcStorage::new(Arc::new(MemRepository::new())), "/Ecce")
                .unwrap();
        let proj = store.create_project(&Project::new("aq", "")).unwrap();
        // One frequency calc (agent target) and one bare energy calc.
        let mut freq = Calculation::new("freq-run");
        freq.run_type = RunType::Frequency;
        freq.molecule = Some(crate::chem::water());
        freq.basis = crate::basis::by_name("STO-3G");
        freq.input_deck = Some(jobs::input_deck(&freq));
        freq.transition(CalcState::InputReady).unwrap();
        jobs::run_to_completion(
            &mut freq,
            &jobs::RunnerConfig {
                output_scale: 0.05,
                ..Default::default()
            },
        )
        .unwrap();
        let target = store.save_calculation(&proj, &freq).unwrap();

        let mut plain = Calculation::new("energy-run");
        plain.molecule = Some(crate::chem::uranyl());
        store.save_calculation(&proj, &plain).unwrap();
        (store, target)
    }

    #[test]
    fn agent_discovers_and_annotates() {
        let (mut store, target) = populated_store();
        let report = thermodynamic_agent(store.storage(), "/Ecce").unwrap();
        assert_eq!(report.discovered, 2); // both molecule docs
        assert_eq!(report.annotated, 1); // only the frequency run

        // The new metadata is on the molecule document, visible to any
        // application, including Ecce's query interface.
        let mol_path = format!("{target}/molecule");
        let zpe = store
            .storage()
            .get_meta(&mol_path, "thermo-zpe-kcal")
            .unwrap()
            .unwrap();
        assert!(zpe.parse::<f64>().unwrap() > 0.0);
        assert_eq!(
            store
                .storage()
                .get_meta(&mol_path, "thermo-agent")
                .unwrap()
                .as_deref(),
            Some("pse-thermo/1.0")
        );
        // Ecce's own view of the calculation is unaffected.
        let back = store.load_calculation(&target).unwrap();
        assert_eq!(back.state, CalcState::Complete);
    }

    #[test]
    fn agent_is_idempotent_in_counts() {
        let (mut store, _) = populated_store();
        let first = thermodynamic_agent(store.storage(), "/Ecce").unwrap();
        let second = thermodynamic_agent(store.storage(), "/Ecce").unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn thermo_math() {
        // ZPE of a single 1000 cm-1 mode: 0.5 * 1000 * 2.859e-3 ≈ 1.43.
        assert!((zero_point_energy(&[1000.0]) - 1.4295).abs() < 1e-3);
        // Negative (imaginary) frequencies are excluded.
        assert_eq!(zero_point_energy(&[-500.0]), 0.0);
        // Lower frequencies carry more entropy.
        assert!(vibrational_entropy(&[50.0]) > vibrational_entropy(&[3000.0]));
    }

    #[test]
    fn notebook_signature_changes_with_content() {
        let (mut store, target) = populated_store();
        let sig1 = notebook_annotate(store.storage(), &target, "first look", "karen").unwrap();
        assert!(sig1.starts_with("fnv1a:"));
        assert_eq!(
            store
                .storage()
                .get_meta(&target, "notebook-author")
                .unwrap()
                .as_deref(),
            Some("karen")
        );
        // Change the calculation content: the signature must differ.
        store
            .storage()
            .write(
                &format!("{target}/input.nw"),
                b"revised deck",
                Some("text/plain"),
            )
            .unwrap();
        let sig2 = notebook_annotate(store.storage(), &target, "revised", "karen").unwrap();
        assert_ne!(sig1, sig2);
    }
}
