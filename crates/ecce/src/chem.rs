//! Molecules, file formats, and test chemical systems.
//!
//! Figure 4 maps Ecce's `Molecule` object to a document in "Protein Data
//! Bank (PDB), simple XYZ, or custom encoded molecular geometry" with
//! metadata for "the format of the raw data, empirical formula, symmetry
//! group, and charge state" — so an application "could search the data
//! store for DAV documents matching the formula metadata and render a 3D
//! display of the molecule without understanding the rest of the Ecce
//! schema". This module provides the molecule type, both community
//! formats, Hill-order empirical formulas, and the UO2·15H2O test system
//! Table 3 is built around.

use crate::error::{EcceError, Result};

/// Atomic numbers and masses for the elements the test systems use
/// (symbol, Z, atomic mass in u).
const ELEMENTS: &[(&str, u8, f64)] = &[
    ("H", 1, 1.008),
    ("C", 6, 12.011),
    ("N", 7, 14.007),
    ("O", 8, 15.999),
    ("F", 9, 18.998),
    ("Na", 11, 22.990),
    ("P", 15, 30.974),
    ("S", 16, 32.06),
    ("Cl", 17, 35.45),
    ("Fe", 26, 55.845),
    ("U", 92, 238.029),
];

/// Atomic number of an element symbol, if known.
pub fn atomic_number(symbol: &str) -> Option<u8> {
    ELEMENTS
        .iter()
        .find(|(s, _, _)| s.eq_ignore_ascii_case(symbol))
        .map(|&(_, z, _)| z)
}

/// Atomic mass of an element symbol, if known.
pub fn atomic_mass(symbol: &str) -> Option<f64> {
    ELEMENTS
        .iter()
        .find(|(s, _, _)| s.eq_ignore_ascii_case(symbol))
        .map(|&(_, _, m)| m)
}

/// Canonical capitalisation of a symbol (`"NA"` → `"Na"`).
pub fn canonical_symbol(symbol: &str) -> String {
    ELEMENTS
        .iter()
        .find(|(s, _, _)| s.eq_ignore_ascii_case(symbol))
        .map(|&(s, _, _)| s.to_owned())
        .unwrap_or_else(|| {
            let mut c = symbol.chars();
            match c.next() {
                Some(f) => f.to_uppercase().collect::<String>() + &c.as_str().to_lowercase(),
                None => String::new(),
            }
        })
}

/// One atom: element symbol plus Cartesian coordinates in Ångström.
#[derive(Debug, Clone, PartialEq)]
pub struct Atom {
    /// Element symbol.
    pub symbol: String,
    /// x coordinate (Å).
    pub x: f64,
    /// y coordinate (Å).
    pub y: f64,
    /// z coordinate (Å).
    pub z: f64,
}

impl Atom {
    /// A new atom.
    pub fn new(symbol: &str, x: f64, y: f64, z: f64) -> Atom {
        Atom {
            symbol: canonical_symbol(symbol),
            x,
            y,
            z,
        }
    }

    /// Euclidean distance to another atom (Å).
    pub fn distance(&self, other: &Atom) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2) + (self.z - other.z).powi(2))
            .sqrt()
    }
}

/// A molecular structure: the study subject of the Figure 3 model.
#[derive(Debug, Clone, PartialEq)]
pub struct Molecule {
    /// Human name ("uranyl pentadecahydrate").
    pub name: String,
    /// Atoms in order.
    pub atoms: Vec<Atom>,
    /// Net charge state.
    pub charge: i32,
    /// Point-group symmetry label (`C1`, `C2v`, ...).
    pub symmetry: String,
}

impl Molecule {
    /// A new, empty molecule with `C1` symmetry.
    pub fn new(name: &str) -> Molecule {
        Molecule {
            name: name.to_owned(),
            atoms: Vec::new(),
            charge: 0,
            symmetry: "C1".to_owned(),
        }
    }

    /// Add an atom (builder style).
    pub fn with_atom(mut self, symbol: &str, x: f64, y: f64, z: f64) -> Molecule {
        self.atoms.push(Atom::new(symbol, x, y, z));
        self
    }

    /// Number of atoms.
    pub fn natoms(&self) -> usize {
        self.atoms.len()
    }

    /// Total molecular mass (u); unknown elements count 0.
    pub fn mass(&self) -> f64 {
        self.atoms
            .iter()
            .map(|a| atomic_mass(&a.symbol).unwrap_or(0.0))
            .sum()
    }

    /// Total electron count (neutral atoms minus the charge).
    pub fn electrons(&self) -> i64 {
        let z: i64 = self
            .atoms
            .iter()
            .map(|a| atomic_number(&a.symbol).unwrap_or(0) as i64)
            .sum();
        z - self.charge as i64
    }

    /// Empirical formula in Hill order (C first, H second, rest
    /// alphabetical; without C, all alphabetical).
    pub fn empirical_formula(&self) -> String {
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for a in &self.atoms {
            *counts.entry(a.symbol.clone()).or_insert(0) += 1;
        }
        let mut parts: Vec<(String, usize)> = Vec::new();
        let has_c = counts.contains_key("C");
        if has_c {
            if let Some(n) = counts.remove("C") {
                parts.push(("C".into(), n));
            }
            if let Some(n) = counts.remove("H") {
                parts.push(("H".into(), n));
            }
        }
        for (s, n) in counts {
            parts.push((s, n));
        }
        parts
            .into_iter()
            .map(|(s, n)| if n == 1 { s } else { format!("{s}{n}") })
            .collect()
    }

    /// Geometric centroid.
    pub fn centroid(&self) -> (f64, f64, f64) {
        let n = self.atoms.len().max(1) as f64;
        let (mut x, mut y, mut z) = (0.0, 0.0, 0.0);
        for a in &self.atoms {
            x += a.x;
            y += a.y;
            z += a.z;
        }
        (x / n, y / n, z / n)
    }

    /// Translate every atom.
    pub fn translate(&mut self, dx: f64, dy: f64, dz: f64) {
        for a in &mut self.atoms {
            a.x += dx;
            a.y += dy;
            a.z += dz;
        }
    }

    // ---- XYZ format ----

    /// Serialise to the simple XYZ format.
    pub fn to_xyz(&self) -> String {
        let mut out = format!("{}\n{}\n", self.atoms.len(), self.name);
        for a in &self.atoms {
            out.push_str(&format!("{} {:.6} {:.6} {:.6}\n", a.symbol, a.x, a.y, a.z));
        }
        out
    }

    /// Parse the simple XYZ format.
    pub fn from_xyz(text: &str) -> Result<Molecule> {
        let mut lines = text.lines();
        let n: usize =
            lines
                .next()
                .unwrap_or("")
                .trim()
                .parse()
                .map_err(|_| EcceError::Format {
                    format: "xyz",
                    msg: "first line must be the atom count".into(),
                })?;
        let name = lines.next().unwrap_or("").trim().to_owned();
        let mut mol = Molecule::new(&name);
        for (i, line) in lines.enumerate() {
            if mol.atoms.len() == n {
                break;
            }
            let mut parts = line.split_whitespace();
            let (sym, x, y, z) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(s), Some(x), Some(y), Some(z)) => (s, x, y, z),
                _ => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    return Err(EcceError::Format {
                        format: "xyz",
                        msg: format!("bad atom line {}", i + 3),
                    });
                }
            };
            let parse = |v: &str| -> Result<f64> {
                v.parse().map_err(|_| EcceError::Format {
                    format: "xyz",
                    msg: format!("bad coordinate `{v}` on line {}", i + 3),
                })
            };
            mol.atoms
                .push(Atom::new(sym, parse(x)?, parse(y)?, parse(z)?));
        }
        if mol.atoms.len() != n {
            return Err(EcceError::Format {
                format: "xyz",
                msg: format!("expected {n} atoms, found {}", mol.atoms.len()),
            });
        }
        Ok(mol)
    }

    // ---- PDB format (minimal ATOM/HETATM records) ----

    /// Serialise to a minimal PDB (HETATM records + END).
    pub fn to_pdb(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("COMPND    {}\n", self.name));
        for (i, a) in self.atoms.iter().enumerate() {
            // Columns follow the PDB fixed layout closely enough for
            // interchange: serial, name, resName=MOL, chain=A, resSeq=1.
            out.push_str(&format!(
                "HETATM{:>5} {:<4} MOL A   1    {:>8.3}{:>8.3}{:>8.3}  1.00  0.00          {:>2}\n",
                i + 1,
                a.symbol,
                a.x,
                a.y,
                a.z,
                a.symbol
            ));
        }
        out.push_str("END\n");
        out
    }

    /// Parse ATOM/HETATM records from PDB text.
    pub fn from_pdb(text: &str) -> Result<Molecule> {
        let mut mol = Molecule::new("");
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("COMPND") {
                mol.name = rest.trim().to_owned();
            }
            if !(line.starts_with("ATOM") || line.starts_with("HETATM")) {
                continue;
            }
            if line.len() < 54 {
                return Err(EcceError::Format {
                    format: "pdb",
                    msg: "coordinate record too short".into(),
                });
            }
            let parse = |range: std::ops::Range<usize>| -> Result<f64> {
                line[range.clone()]
                    .trim()
                    .parse()
                    .map_err(|_| EcceError::Format {
                        format: "pdb",
                        msg: format!("bad coordinate in columns {range:?}"),
                    })
            };
            let x = parse(30..38)?;
            let y = parse(38..46)?;
            let z = parse(46..54)?;
            // Element column (77-78) when present; atom-name otherwise.
            let symbol = if line.len() >= 78 && !line[76..78].trim().is_empty() {
                line[76..78].trim().to_owned()
            } else {
                line[12..16]
                    .trim()
                    .trim_end_matches(|c: char| c.is_ascii_digit())
                    .to_owned()
            };
            mol.atoms.push(Atom::new(&symbol, x, y, z));
        }
        if mol.atoms.is_empty() {
            return Err(EcceError::Format {
                format: "pdb",
                msg: "no ATOM/HETATM records".into(),
            });
        }
        Ok(mol)
    }
}

// ---- test chemical systems ----

/// A single water molecule at the origin (experimental geometry).
pub fn water() -> Molecule {
    let mut m = Molecule::new("water")
        .with_atom("O", 0.0, 0.0, 0.1173)
        .with_atom("H", 0.0, 0.7572, -0.4692)
        .with_atom("H", 0.0, -0.7572, -0.4692);
    m.symmetry = "C2v".into();
    m
}

/// The uranyl cation UO2²⁺ (linear O=U=O).
pub fn uranyl() -> Molecule {
    let mut m = Molecule::new("uranyl")
        .with_atom("U", 0.0, 0.0, 0.0)
        .with_atom("O", 0.0, 0.0, 1.76)
        .with_atom("O", 0.0, 0.0, -1.76);
    m.charge = 2;
    m.symmetry = "Dinfh".into();
    m
}

/// The paper's Table 3 test system: "a molecule of Uranium Oxide
/// surrounded by 15 water molecules (UO2-15H2O)". Waters are placed on
/// a deterministic spherical shell around the uranyl axis.
pub fn uo2_15h2o() -> Molecule {
    let mut m = uranyl();
    m.name = "UO2-15H2O".into();
    m.symmetry = "C1".into();
    let shell_radius = 4.2;
    for i in 0..15 {
        // Fibonacci-sphere placement: deterministic, roughly uniform.
        let golden = (1.0 + 5f64.sqrt()) / 2.0;
        let t = (i as f64 + 0.5) / 15.0;
        let inclination = (1.0 - 2.0 * t).acos();
        let azimuth = 2.0 * std::f64::consts::PI * (i as f64) / golden;
        let (sx, sy, sz) = (
            shell_radius * inclination.sin() * azimuth.cos(),
            shell_radius * inclination.sin() * azimuth.sin(),
            shell_radius * inclination.cos(),
        );
        let mut w = water();
        w.translate(sx, sy, sz);
        for a in w.atoms {
            m.atoms.push(a);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_lookups() {
        assert_eq!(atomic_number("U"), Some(92));
        assert_eq!(atomic_number("u"), Some(92));
        assert_eq!(atomic_number("Xx"), None);
        assert!(atomic_mass("O").unwrap() > 15.9);
        assert_eq!(canonical_symbol("NA"), "Na");
        assert_eq!(canonical_symbol("cl"), "Cl");
        assert_eq!(canonical_symbol("zz"), "Zz");
    }

    #[test]
    fn formulas_in_hill_order() {
        assert_eq!(water().empirical_formula(), "H2O");
        assert_eq!(uranyl().empirical_formula(), "O2U");
        let methane = Molecule::new("methane")
            .with_atom("C", 0.0, 0.0, 0.0)
            .with_atom("H", 0.6, 0.6, 0.6)
            .with_atom("H", -0.6, -0.6, 0.6)
            .with_atom("H", 0.6, -0.6, -0.6)
            .with_atom("H", -0.6, 0.6, -0.6);
        assert_eq!(methane.empirical_formula(), "CH4");
        // Ethanol: C2H6O — C, H first, then alphabetical.
        let mut ethanol = Molecule::new("ethanol");
        for s in ["C", "C", "O", "H", "H", "H", "H", "H", "H"] {
            ethanol.atoms.push(Atom::new(s, 0.0, 0.0, 0.0));
        }
        assert_eq!(ethanol.empirical_formula(), "C2H6O");
    }

    #[test]
    fn test_system_shape() {
        let m = uo2_15h2o();
        assert_eq!(m.natoms(), 48); // UO2 (3) + 15 × H2O (45)
        assert_eq!(m.charge, 2);
        assert_eq!(m.empirical_formula(), "H30O17U");
        // All waters sit near the shell radius.
        let u = &m.atoms[0];
        for w in m.atoms[3..].chunks(3) {
            let d = u.distance(&w[0]);
            assert!((3.0..6.0).contains(&d), "O at distance {d}");
        }
        // Electron count: 92 + 2*8 + 15*10 = 258, minus +2 charge.
        assert_eq!(m.electrons(), 256);
    }

    #[test]
    fn xyz_roundtrip() {
        let m = uo2_15h2o();
        let text = m.to_xyz();
        let back = Molecule::from_xyz(&text).unwrap();
        assert_eq!(back.natoms(), m.natoms());
        assert_eq!(back.name, m.name);
        for (a, b) in m.atoms.iter().zip(&back.atoms) {
            assert_eq!(a.symbol, b.symbol);
            assert!((a.x - b.x).abs() < 1e-5);
            assert!((a.z - b.z).abs() < 1e-5);
        }
    }

    #[test]
    fn xyz_errors() {
        assert!(Molecule::from_xyz("").is_err());
        assert!(Molecule::from_xyz("two\nname\nO 0 0 0\n").is_err()); // bad count line
        assert!(Molecule::from_xyz("2\nname\nO 0 0 0\n").is_err()); // short
        assert!(Molecule::from_xyz("1\nname\nO zero 0 0\n").is_err()); // bad coord
    }

    #[test]
    fn pdb_roundtrip() {
        let m = water();
        let text = m.to_pdb();
        assert!(text.contains("HETATM"));
        let back = Molecule::from_pdb(&text).unwrap();
        assert_eq!(back.natoms(), 3);
        assert_eq!(back.atoms[0].symbol, "O");
        assert!((back.atoms[1].y - 0.757).abs() < 1e-2);
        assert_eq!(back.name, "water");
    }

    #[test]
    fn pdb_errors() {
        assert!(Molecule::from_pdb("nothing here").is_err());
        assert!(Molecule::from_pdb("ATOM  short").is_err());
    }

    #[test]
    fn geometry_helpers() {
        let mut m = water();
        let (cx0, cy0, cz0) = m.centroid();
        assert!(cx0.abs() < 1e-9);
        m.translate(1.0, 2.0, 3.0);
        let (cx, cy, cz) = m.centroid();
        assert!(
            (cx - cx0 - 1.0).abs() < 1e-9
                && (cy - cy0 - 2.0).abs() < 1e-9
                && (cz - cz0 - 3.0).abs() < 1e-9
        );
        assert!(m.mass() > 18.0 && m.mass() < 18.1);
    }
}
