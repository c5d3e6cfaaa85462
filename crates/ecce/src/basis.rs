//! Gaussian basis sets — the `Molecular Basisset` document of Figure 4.
//!
//! "Where standards do not currently exist, plain text or XML markup
//! (where appropriate) is applied to the data, as is done for the
//! Molecular Basisset document." We serialise basis sets in the common
//! plain-text exchange format (element blocks of shells with
//! exponent/coefficient rows) and ship a small library of synthetic
//! standard-named sets sufficient to exercise the BasisTool workloads.

use crate::error::{EcceError, Result};
use std::collections::BTreeMap;

/// Angular momentum labels in order.
const SHELL_LABELS: &[&str] = &["S", "P", "D", "F", "G"];

/// One contracted shell: angular momentum + primitive rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Shell {
    /// 0 = S, 1 = P, ...
    pub angular_momentum: u8,
    /// Primitive Gaussian exponents.
    pub exponents: Vec<f64>,
    /// Contraction coefficients (same length as exponents).
    pub coefficients: Vec<f64>,
}

impl Shell {
    /// The letter label (`S`, `P`, ...).
    pub fn label(&self) -> &'static str {
        SHELL_LABELS
            .get(self.angular_momentum as usize)
            .copied()
            .unwrap_or("X")
    }

    /// Number of primitives.
    pub fn nprim(&self) -> usize {
        self.exponents.len()
    }
}

/// A named basis set: per-element shell lists.
#[derive(Debug, Clone, PartialEq)]
pub struct BasisSet {
    /// The set name (`STO-3G`, `6-31G*`, ...).
    pub name: String,
    /// Element symbol → shells.
    pub elements: BTreeMap<String, Vec<Shell>>,
}

impl BasisSet {
    /// An empty set.
    pub fn new(name: &str) -> BasisSet {
        BasisSet {
            name: name.to_owned(),
            elements: BTreeMap::new(),
        }
    }

    /// Does the set cover every element of the formula's symbols?
    pub fn covers(&self, symbols: &[&str]) -> bool {
        symbols.iter().all(|s| self.elements.contains_key(*s))
    }

    /// Total basis-function count for a molecule (counting 2l+1
    /// spherical functions per shell).
    pub fn function_count(&self, mol: &crate::chem::Molecule) -> usize {
        mol.atoms
            .iter()
            .filter_map(|a| self.elements.get(&a.symbol))
            .flat_map(|shells| shells.iter())
            .map(|sh| 2 * sh.angular_momentum as usize + 1)
            .sum()
    }

    /// Serialise to the plain-text exchange format:
    ///
    /// ```text
    /// basis "6-31G*"
    /// O S
    ///   5484.671660  0.001831
    ///   ...
    /// end
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = format!("basis \"{}\"\n", self.name);
        for (elem, shells) in &self.elements {
            for shell in shells {
                out.push_str(&format!("{elem} {}\n", shell.label()));
                for (e, c) in shell.exponents.iter().zip(&shell.coefficients) {
                    out.push_str(&format!("  {e:>14.6}  {c:>12.7}\n"));
                }
            }
        }
        out.push_str("end\n");
        out
    }

    /// Parse the plain-text exchange format.
    pub fn from_text(text: &str) -> Result<BasisSet> {
        let mut lines = text.lines().peekable();
        let header = lines.next().unwrap_or("").trim();
        let name = header
            .strip_prefix("basis")
            .map(|r| r.trim().trim_matches('"').to_owned())
            .filter(|n| !n.is_empty())
            .ok_or_else(|| EcceError::Format {
                format: "basis",
                msg: "missing `basis \"name\"` header".into(),
            })?;
        let mut set = BasisSet::new(&name);
        let mut current: Option<(String, Shell)> = None;
        for line in lines {
            let t = line.trim();
            if t.is_empty() {
                continue;
            }
            if t == "end" {
                if let Some((elem, shell)) = current.take() {
                    set.elements.entry(elem).or_default().push(shell);
                }
                return Ok(set);
            }
            let starts_numeric = t
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit() || c == '-' || c == '.');
            if starts_numeric {
                let Some((_, shell)) = current.as_mut() else {
                    return Err(EcceError::Format {
                        format: "basis",
                        msg: format!("primitive row before any shell header: `{t}`"),
                    });
                };
                let mut parts = t.split_whitespace();
                let (e, c) = match (parts.next(), parts.next()) {
                    (Some(e), Some(c)) => (e, c),
                    _ => {
                        return Err(EcceError::Format {
                            format: "basis",
                            msg: format!("bad primitive row `{t}`"),
                        })
                    }
                };
                let parse = |v: &str| -> Result<f64> {
                    v.parse().map_err(|_| EcceError::Format {
                        format: "basis",
                        msg: format!("bad number `{v}`"),
                    })
                };
                shell.exponents.push(parse(e)?);
                shell.coefficients.push(parse(c)?);
            } else {
                // A new `<Elem> <L>` shell header: flush the previous.
                if let Some((elem, shell)) = current.take() {
                    set.elements.entry(elem).or_default().push(shell);
                }
                let mut parts = t.split_whitespace();
                let (elem, l) = match (parts.next(), parts.next()) {
                    (Some(e), Some(l)) => (e, l),
                    _ => {
                        return Err(EcceError::Format {
                            format: "basis",
                            msg: format!("bad shell header `{t}`"),
                        })
                    }
                };
                let angular_momentum = SHELL_LABELS
                    .iter()
                    .position(|s| s.eq_ignore_ascii_case(l))
                    .ok_or_else(|| EcceError::Format {
                        format: "basis",
                        msg: format!("unknown shell label `{l}`"),
                    })? as u8;
                current = Some((
                    crate::chem::canonical_symbol(elem),
                    Shell {
                        angular_momentum,
                        exponents: Vec::new(),
                        coefficients: Vec::new(),
                    },
                ));
            }
        }
        Err(EcceError::Format {
            format: "basis",
            msg: "missing `end`".into(),
        })
    }
}

/// Deterministic synthetic shells for an element: exponent ladders keyed
/// by Z, scaled per set quality. The numbers are not chemistry, but they
/// are stable, element-dependent, and realistically sized.
fn synth_shells(z: u8, quality: usize) -> Vec<Shell> {
    let mut shells = Vec::new();
    let base = 0.5 + z as f64 * 3.0;
    // Core S shells.
    for q in 0..quality {
        let nprim = 3 + (quality - q);
        let mut exponents = Vec::with_capacity(nprim);
        let mut coefficients = Vec::with_capacity(nprim);
        for p in 0..nprim {
            exponents.push(base * (10.0f64).powi((quality - q) as i32 - p as i32));
            coefficients.push(0.1 + 0.8 / (p + 1) as f64);
        }
        shells.push(Shell {
            angular_momentum: 0,
            exponents,
            coefficients,
        });
    }
    // Valence P (all but H), D for heavier / polarised sets.
    if z > 2 {
        shells.push(Shell {
            angular_momentum: 1,
            exponents: vec![base, base / 4.0, base / 16.0],
            coefficients: vec![0.4, 0.5, 0.2],
        });
    }
    if z > 10 || quality >= 3 {
        shells.push(Shell {
            angular_momentum: 2,
            exponents: vec![base / 8.0],
            coefficients: vec![1.0],
        });
    }
    shells
}

/// The shipped library of named sets, spanning the elements
/// [`crate::chem`] knows.
pub fn library() -> Vec<BasisSet> {
    let names: &[(&str, usize)] = &[("STO-3G", 1), ("3-21G", 2), ("6-31G*", 3), ("LANL2DZ", 2)];
    names
        .iter()
        .map(|&(name, quality)| {
            let mut set = BasisSet::new(name);
            for &(sym, z, _) in &[
                ("H", 1u8, 0.0),
                ("C", 6, 0.0),
                ("N", 7, 0.0),
                ("O", 8, 0.0),
                ("F", 9, 0.0),
                ("Na", 11, 0.0),
                ("P", 15, 0.0),
                ("S", 16, 0.0),
                ("Cl", 17, 0.0),
                ("Fe", 26, 0.0),
                ("U", 92, 0.0),
            ] {
                set.elements
                    .insert(sym.to_owned(), synth_shells(z, quality));
            }
            set
        })
        .collect()
}

/// Look up one library set by name.
pub fn by_name(name: &str) -> Option<BasisSet> {
    library().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chem;

    #[test]
    fn library_covers_test_systems() {
        for set in library() {
            assert!(
                set.covers(&["U", "O", "H"]),
                "{} missing elements",
                set.name
            );
            let n = set.function_count(&chem::uo2_15h2o());
            assert!(n > 50, "{}: only {n} functions", set.name);
        }
        assert!(by_name("6-31G*").is_some());
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn text_roundtrip() {
        let set = by_name("6-31G*").unwrap();
        let text = set.to_text();
        let back = BasisSet::from_text(&text).unwrap();
        assert_eq!(back.name, set.name);
        assert_eq!(back.elements.len(), set.elements.len());
        for (elem, shells) in &set.elements {
            let back_shells = &back.elements[elem];
            assert_eq!(back_shells.len(), shells.len(), "element {elem}");
            for (a, b) in shells.iter().zip(back_shells) {
                assert_eq!(a.angular_momentum, b.angular_momentum);
                assert_eq!(a.nprim(), b.nprim());
                for (x, y) in a.exponents.iter().zip(&b.exponents) {
                    assert!((x - y).abs() / x.max(1e-12) < 1e-5);
                }
            }
        }
    }

    #[test]
    fn bigger_sets_have_more_functions() {
        let m = chem::water();
        let sto = by_name("STO-3G").unwrap().function_count(&m);
        let pople = by_name("6-31G*").unwrap().function_count(&m);
        assert!(pople > sto, "{pople} vs {sto}");
    }

    #[test]
    fn parse_errors() {
        assert!(BasisSet::from_text("").is_err());
        assert!(BasisSet::from_text("basis \"x\"\nO S\n 1.0 0.5\n").is_err()); // no end
        assert!(BasisSet::from_text("basis \"x\"\n 1.0 0.5\nend\n").is_err()); // row first
        assert!(BasisSet::from_text("basis \"x\"\nO Q\nend\n").is_err()); // bad label
        assert!(BasisSet::from_text("nonsense\nend").is_err());
    }

    #[test]
    fn shell_labels() {
        let s = Shell {
            angular_momentum: 0,
            exponents: vec![1.0],
            coefficients: vec![1.0],
        };
        assert_eq!(s.label(), "S");
        let d = Shell {
            angular_momentum: 2,
            ..s.clone()
        };
        assert_eq!(d.label(), "D");
    }
}
