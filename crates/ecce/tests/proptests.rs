//! Property-based tests on the Ecce domain formats and invariants.

use proptest::prelude::*;
use pse_ecce::chem::{Atom, Molecule};
use pse_ecce::model::{CalcState, OutputProperty, PropertyValue};

fn symbol_strategy() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("H"),
        Just("C"),
        Just("N"),
        Just("O"),
        Just("S"),
        Just("Cl"),
        Just("Fe"),
        Just("U"),
    ]
}

fn molecule_strategy() -> impl Strategy<Value = Molecule> {
    (
        "[a-zA-Z][a-zA-Z0-9 _-]{0,14}",
        prop::collection::vec(
            (
                symbol_strategy(),
                -50.0f64..50.0,
                -50.0f64..50.0,
                -50.0f64..50.0,
            ),
            1..40,
        ),
        -3i32..4,
    )
        .prop_map(|(name, atoms, charge)| {
            let mut m = Molecule::new(name.trim());
            m.charge = charge;
            for (s, x, y, z) in atoms {
                m.atoms.push(Atom::new(s, x, y, z));
            }
            m
        })
}

proptest! {
    /// XYZ serialisation round-trips symbols and coordinates.
    #[test]
    fn xyz_roundtrip(mol in molecule_strategy()) {
        let text = mol.to_xyz();
        let back = Molecule::from_xyz(&text).unwrap();
        prop_assert_eq!(back.natoms(), mol.natoms());
        prop_assert_eq!(&back.name, &mol.name);
        for (a, b) in mol.atoms.iter().zip(&back.atoms) {
            prop_assert_eq!(&a.symbol, &b.symbol);
            prop_assert!((a.x - b.x).abs() < 1e-5);
            prop_assert!((a.y - b.y).abs() < 1e-5);
            prop_assert!((a.z - b.z).abs() < 1e-5);
        }
    }

    /// PDB serialisation preserves atom count, symbols, and coordinates
    /// to the format's fixed 3-decimal precision.
    #[test]
    fn pdb_roundtrip(mol in molecule_strategy()) {
        // PDB's fixed columns hold coordinates within ±999.999.
        let text = mol.to_pdb();
        let back = Molecule::from_pdb(&text).unwrap();
        prop_assert_eq!(back.natoms(), mol.natoms());
        for (a, b) in mol.atoms.iter().zip(&back.atoms) {
            prop_assert_eq!(&a.symbol, &b.symbol);
            prop_assert!((a.x - b.x).abs() < 2e-3);
        }
    }

    /// The empirical formula counts every atom exactly once.
    #[test]
    fn formula_counts_atoms(mol in molecule_strategy()) {
        let formula = mol.empirical_formula();
        // Re-parse the formula and compare total counts.
        let mut total = 0usize;
        let mut chars = formula.chars().peekable();
        while let Some(c) = chars.next() {
            prop_assert!(c.is_ascii_uppercase(), "formula {formula}");
            let mut _sym = String::from(c);
            while let Some(&l) = chars.peek() {
                if l.is_ascii_lowercase() {
                    _sym.push(l);
                    chars.next();
                } else {
                    break;
                }
            }
            let mut digits = String::new();
            while let Some(&d) = chars.peek() {
                if d.is_ascii_digit() {
                    digits.push(d);
                    chars.next();
                } else {
                    break;
                }
            }
            total += digits.parse::<usize>().unwrap_or(1);
        }
        prop_assert_eq!(total, mol.natoms());
    }

    /// Output-property text serialisation round-trips every kind.
    #[test]
    fn property_text_roundtrip(
        name in "[a-z][a-z0-9-]{0,15}",
        units in "[a-zA-Z0-9/^-]{1,10}",
        data in prop::collection::vec(-1e6f64..1e6, 1..200),
        cols in 1usize..8,
    ) {
        for value in [
            PropertyValue::Scalar(data[0]),
            PropertyValue::Vector(data.clone()),
            {
                let rows = data.len() / cols;
                prop_assume!(rows > 0);
                PropertyValue::Table {
                    rows,
                    cols,
                    data: data[..rows * cols].to_vec(),
                }
            },
        ] {
            let p = OutputProperty {
                name: name.clone(),
                units: units.clone(),
                value,
            };
            let back = OutputProperty::from_text(&p.to_text()).unwrap();
            prop_assert_eq!(&back.name, &p.name);
            prop_assert_eq!(&back.units, &p.units);
            prop_assert_eq!(back.value.len(), p.value.len());
        }
    }

    /// The calculation state machine has no illegal shortcuts: from any
    /// state, only the documented transitions are accepted.
    #[test]
    fn state_machine_closed(
        from in prop_oneof![
            Just(CalcState::Created),
            Just(CalcState::InputReady),
            Just(CalcState::Submitted),
            Just(CalcState::Running),
            Just(CalcState::Complete),
            Just(CalcState::Failed),
        ],
        to in prop_oneof![
            Just(CalcState::Created),
            Just(CalcState::InputReady),
            Just(CalcState::Submitted),
            Just(CalcState::Running),
            Just(CalcState::Complete),
            Just(CalcState::Failed),
        ],
    ) {
        use CalcState::*;
        let legal = matches!(
            (from, to),
            (Created, InputReady)
                | (InputReady, Submitted)
                | (InputReady, InputReady)
                | (Submitted, Running)
                | (Submitted, Failed)
                | (Running, Complete)
                | (Running, Failed)
                | (Failed, InputReady)
                | (Complete, InputReady)
        );
        prop_assert_eq!(from.can_transition_to(to), legal);
        // No state may transition to Created, ever.
        prop_assert!(!from.can_transition_to(Created));
    }
}

/// Basis-set text round-trip over the whole shipped library (exhaustive,
/// not random — the library is the fixed input space).
#[test]
fn basis_library_roundtrips() {
    for set in pse_ecce::basis::library() {
        let back = pse_ecce::basis::BasisSet::from_text(&set.to_text()).unwrap();
        assert_eq!(back.name, set.name);
        assert_eq!(back.elements.len(), set.elements.len());
        let water = pse_ecce::chem::water();
        assert_eq!(back.function_count(&water), set.function_count(&water));
    }
}
