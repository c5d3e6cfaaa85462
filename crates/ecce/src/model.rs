//! The calculation object model — Figure 3.
//!
//! "The model shows a study subject (Molecule) on which a task of an
//! Experiment is performed, the results of which are a series of
//! n-dimensional output Properties. … All the information needed to
//! reproduce the calculation and provide historical context or
//! post-analysis capabilities is captured."
//!
//! The inheritance of the UML model (Experiment ⇐ Calculation) carries
//! its semantics "through virtual methods, as well as through data
//! derivation"; here the enum-of-kinds plus shared fields express the
//! same structure without a class hierarchy.

use crate::basis::BasisSet;
use crate::chem::Molecule;
use crate::error::{EcceError, Result};

/// A project: the top-level organizational unit chemists see.
#[derive(Debug, Clone, PartialEq)]
pub struct Project {
    /// Project name (unique per user area).
    pub name: String,
    /// Free-text description / annotation.
    pub description: String,
}

impl Project {
    /// A new project.
    pub fn new(name: &str, description: &str) -> Project {
        Project {
            name: name.to_owned(),
            description: description.to_owned(),
        }
    }
}

/// Level of theory for a simulated experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Theory {
    /// Hartree–Fock self-consistent field.
    Scf,
    /// Density functional theory (B3LYP-flavoured).
    Dft,
    /// Second-order Møller–Plesset perturbation theory.
    Mp2,
}

impl Theory {
    /// Stable string form used in metadata.
    pub fn as_str(self) -> &'static str {
        match self {
            Theory::Scf => "SCF",
            Theory::Dft => "DFT",
            Theory::Mp2 => "MP2",
        }
    }

    /// Parse the metadata form.
    pub fn parse(s: &str) -> Option<Theory> {
        match s.trim().to_ascii_uppercase().as_str() {
            "SCF" | "HF" => Some(Theory::Scf),
            "DFT" | "B3LYP" => Some(Theory::Dft),
            "MP2" => Some(Theory::Mp2),
            _ => None,
        }
    }
}

/// What kind of calculation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunType {
    /// Single-point energy.
    Energy,
    /// Geometry optimization.
    Optimize,
    /// Harmonic vibrational frequencies.
    Frequency,
}

impl RunType {
    /// Stable string form used in metadata.
    pub fn as_str(self) -> &'static str {
        match self {
            RunType::Energy => "energy",
            RunType::Optimize => "optimize",
            RunType::Frequency => "frequency",
        }
    }

    /// Parse the metadata form.
    pub fn parse(s: &str) -> Option<RunType> {
        match s.trim().to_ascii_lowercase().as_str() {
            "energy" => Some(RunType::Energy),
            "optimize" | "geometry" => Some(RunType::Optimize),
            "frequency" | "freq" => Some(RunType::Frequency),
            _ => None,
        }
    }
}

/// Calculation lifecycle states, in workflow order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CalcState {
    /// Created, nothing set up yet.
    Created,
    /// Molecule + basis + theory chosen; input deck generated.
    InputReady,
    /// Handed to a compute resource.
    Submitted,
    /// Executing.
    Running,
    /// Finished with output properties stored.
    Complete,
    /// Failed on the compute resource.
    Failed,
}

impl CalcState {
    /// Stable string form used in metadata.
    pub fn as_str(self) -> &'static str {
        match self {
            CalcState::Created => "created",
            CalcState::InputReady => "input-ready",
            CalcState::Submitted => "submitted",
            CalcState::Running => "running",
            CalcState::Complete => "complete",
            CalcState::Failed => "failed",
        }
    }

    /// Parse the metadata form.
    pub fn parse(s: &str) -> Option<CalcState> {
        match s.trim() {
            "created" => Some(CalcState::Created),
            "input-ready" => Some(CalcState::InputReady),
            "submitted" => Some(CalcState::Submitted),
            "running" => Some(CalcState::Running),
            "complete" => Some(CalcState::Complete),
            "failed" => Some(CalcState::Failed),
            _ => None,
        }
    }

    /// Is `next` a legal workflow transition from `self`?
    pub fn can_transition_to(self, next: CalcState) -> bool {
        use CalcState::*;
        matches!(
            (self, next),
            (Created, InputReady)
                | (InputReady, Submitted)
                | (InputReady, InputReady)
                | (Submitted, Running)
                | (Submitted, Failed)
                | (Running, Complete)
                | (Running, Failed)
                | (Failed, InputReady)
                | (Complete, InputReady) // re-parameterise and re-run
        )
    }
}

/// One step in a multi-step study (the ordered members of a
/// calculation's task list, located "through the collection mechanism").
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Task name (unique within the calculation).
    pub name: String,
    /// What the step does.
    pub run_type: RunType,
    /// 0-based order within the calculation.
    pub sequence: u32,
}

/// A compute job bound to a calculation.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Machine name ("colony", "nwmpp1", ...).
    pub machine: String,
    /// Queue submitted to.
    pub queue: String,
    /// Process/batch identifier on the machine.
    pub job_id: u64,
    /// Wall-clock seconds consumed (filled at completion).
    pub wall_seconds: f64,
}

/// The value payload of an output property — "a series of n-dimensional
/// output Properties".
#[derive(Debug, Clone, PartialEq)]
pub enum PropertyValue {
    /// A single number (total energy, HOMO-LUMO gap...).
    Scalar(f64),
    /// A vector (Mulliken charges, frequencies...).
    Vector(Vec<f64>),
    /// A rows×cols table (gradients, geometry trajectories...).
    Table {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
        /// Row-major values; `rows * cols` entries.
        data: Vec<f64>,
    },
}

impl PropertyValue {
    /// Number of scalar entries.
    pub fn len(&self) -> usize {
        match self {
            PropertyValue::Scalar(_) => 1,
            PropertyValue::Vector(v) => v.len(),
            PropertyValue::Table { data, .. } => data.len(),
        }
    }

    /// Is it empty? (Only possible for empty vectors/tables.)
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A named output property with units.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputProperty {
    /// Property name ("total-energy", "frequencies", ...).
    pub name: String,
    /// Units string ("hartree", "cm-1", "angstrom").
    pub units: String,
    /// The value payload.
    pub value: PropertyValue,
}

impl OutputProperty {
    /// A scalar property.
    pub fn scalar(name: &str, units: &str, v: f64) -> OutputProperty {
        OutputProperty {
            name: name.to_owned(),
            units: units.to_owned(),
            value: PropertyValue::Scalar(v),
        }
    }

    /// Serialise to the stored text form: a small header + one value per
    /// line (the "plain text … applied to the data" of Figure 4).
    pub fn to_text(&self) -> String {
        let (kind, rows, cols) = match &self.value {
            PropertyValue::Scalar(_) => ("scalar", 1, 1),
            PropertyValue::Vector(v) => ("vector", v.len(), 1),
            PropertyValue::Table { rows, cols, .. } => ("table", *rows, *cols),
        };
        let mut out = format!(
            "property {name}\nunits {units}\nkind {kind}\ndims {rows} {cols}\n",
            name = self.name,
            units = self.units
        );
        match &self.value {
            PropertyValue::Scalar(v) => out.push_str(&format!("{v:.12e}\n")),
            PropertyValue::Vector(vs) => {
                for v in vs {
                    out.push_str(&format!("{v:.12e}\n"));
                }
            }
            PropertyValue::Table { data, cols, .. } => {
                for row in data.chunks(*cols) {
                    let line: Vec<String> = row.iter().map(|v| format!("{v:.12e}")).collect();
                    out.push_str(&line.join(" "));
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Parse the stored text form.
    pub fn from_text(text: &str) -> Result<OutputProperty> {
        let mut lines = text.lines();
        let bad = |msg: &str| EcceError::Format {
            format: "property",
            msg: msg.to_owned(),
        };
        let name = lines
            .next()
            .and_then(|l| l.strip_prefix("property "))
            .ok_or_else(|| bad("missing property header"))?
            .trim()
            .to_owned();
        let units = lines
            .next()
            .and_then(|l| l.strip_prefix("units "))
            .ok_or_else(|| bad("missing units"))?
            .trim()
            .to_owned();
        let kind = lines
            .next()
            .and_then(|l| l.strip_prefix("kind "))
            .ok_or_else(|| bad("missing kind"))?
            .trim()
            .to_owned();
        let dims = lines
            .next()
            .and_then(|l| l.strip_prefix("dims "))
            .ok_or_else(|| bad("missing dims"))?;
        let mut dparts = dims.split_whitespace();
        let rows: usize = dparts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad dims"))?;
        let cols: usize = dparts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad dims"))?;
        let mut data = Vec::with_capacity(rows * cols);
        for line in lines {
            for v in line.split_whitespace() {
                data.push(v.parse::<f64>().map_err(|_| bad("bad value"))?);
            }
        }
        if data.len() != rows * cols {
            return Err(bad(&format!(
                "expected {} values, found {}",
                rows * cols,
                data.len()
            )));
        }
        let value = match kind.as_str() {
            "scalar" => PropertyValue::Scalar(data[0]),
            "vector" => PropertyValue::Vector(data),
            "table" => PropertyValue::Table { rows, cols, data },
            other => return Err(bad(&format!("unknown kind `{other}`"))),
        };
        Ok(OutputProperty { name, units, value })
    }
}

/// A calculation: the central entity of Figure 3. A simulated experiment
/// on a molecule, with its theory, basis, task list, job, and outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Calculation {
    /// Calculation name (unique within the project).
    pub name: String,
    /// Lifecycle state.
    pub state: CalcState,
    /// Level of theory.
    pub theory: Theory,
    /// Run type of the primary task.
    pub run_type: RunType,
    /// The study subject.
    pub molecule: Option<Molecule>,
    /// The basis set assigned.
    pub basis: Option<BasisSet>,
    /// Ordered task list.
    pub tasks: Vec<Task>,
    /// The compute job, once submitted.
    pub job: Option<Job>,
    /// Generated input deck text.
    pub input_deck: Option<String>,
    /// Output properties, once complete.
    pub properties: Vec<OutputProperty>,
}

impl Calculation {
    /// A new calculation in the `Created` state with SCF energy defaults.
    pub fn new(name: &str) -> Calculation {
        Calculation {
            name: name.to_owned(),
            state: CalcState::Created,
            theory: Theory::Scf,
            run_type: RunType::Energy,
            molecule: None,
            basis: None,
            tasks: Vec::new(),
            job: None,
            input_deck: None,
            properties: Vec::new(),
        }
    }

    /// Move to a new state, enforcing the workflow order.
    pub fn transition(&mut self, next: CalcState) -> Result<()> {
        if self.state.can_transition_to(next) {
            self.state = next;
            Ok(())
        } else {
            Err(EcceError::InvalidState {
                operation: format!("transition to {}", next.as_str()),
                state: self.state.as_str().to_owned(),
            })
        }
    }

    /// A named output property.
    pub fn property(&self, name: &str) -> Option<&OutputProperty> {
        self.properties.iter().find(|p| p.name == name)
    }

    /// Approximate in-memory footprint of the loaded calculation (drives
    /// the Table 3 resident-size figures).
    pub fn approx_bytes(&self) -> usize {
        let mol = self
            .molecule
            .as_ref()
            .map(|m| m.atoms.len() * 56 + 64)
            .unwrap_or(0);
        let basis = self
            .basis
            .as_ref()
            .map(|b| {
                b.elements
                    .values()
                    .flatten()
                    .map(|s| s.nprim() * 16 + 24)
                    .sum::<usize>()
            })
            .unwrap_or(0);
        let props: usize = self.properties.iter().map(|p| p.value.len() * 8 + 64).sum();
        let input = self.input_deck.as_ref().map(String::len).unwrap_or(0);
        mol + basis + props + input + 256
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_string_roundtrips() {
        for t in [Theory::Scf, Theory::Dft, Theory::Mp2] {
            assert_eq!(Theory::parse(t.as_str()), Some(t));
        }
        for r in [RunType::Energy, RunType::Optimize, RunType::Frequency] {
            assert_eq!(RunType::parse(r.as_str()), Some(r));
        }
        for s in [
            CalcState::Created,
            CalcState::InputReady,
            CalcState::Submitted,
            CalcState::Running,
            CalcState::Complete,
            CalcState::Failed,
        ] {
            assert_eq!(CalcState::parse(s.as_str()), Some(s));
        }
        assert_eq!(Theory::parse("b3lyp"), Some(Theory::Dft));
        assert_eq!(Theory::parse("CCSD"), None);
        assert_eq!(RunType::parse("freq"), Some(RunType::Frequency));
        assert_eq!(CalcState::parse("nope"), None);
    }

    #[test]
    fn workflow_transitions() {
        let mut c = Calculation::new("aq-1");
        assert_eq!(c.state, CalcState::Created);
        c.transition(CalcState::InputReady).unwrap();
        c.transition(CalcState::Submitted).unwrap();
        c.transition(CalcState::Running).unwrap();
        c.transition(CalcState::Complete).unwrap();
        // Cannot jump back to running.
        assert!(c.transition(CalcState::Running).is_err());
        // But can re-parameterise.
        c.transition(CalcState::InputReady).unwrap();
        // Failure recovery path.
        c.transition(CalcState::Submitted).unwrap();
        c.transition(CalcState::Failed).unwrap();
        c.transition(CalcState::InputReady).unwrap();
    }

    #[test]
    fn illegal_transitions_rejected() {
        let mut c = Calculation::new("x");
        assert!(c.transition(CalcState::Complete).is_err());
        assert!(c.transition(CalcState::Running).is_err());
        assert_eq!(c.state, CalcState::Created);
    }

    #[test]
    fn property_text_roundtrip_scalar() {
        let p = OutputProperty::scalar("total-energy", "hartree", -1287.5536210071);
        let back = OutputProperty::from_text(&p.to_text()).unwrap();
        assert_eq!(back.name, "total-energy");
        assert_eq!(back.units, "hartree");
        match back.value {
            PropertyValue::Scalar(v) => assert!((v + 1287.5536210071).abs() < 1e-9),
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn property_text_roundtrip_vector_and_table() {
        let vec_p = OutputProperty {
            name: "frequencies".into(),
            units: "cm-1".into(),
            value: PropertyValue::Vector((0..138).map(|i| 100.0 + i as f64 * 13.7).collect()),
        };
        let back = OutputProperty::from_text(&vec_p.to_text()).unwrap();
        assert_eq!(back.value.len(), 138);

        let table_p = OutputProperty {
            name: "gradient".into(),
            units: "hartree/bohr".into(),
            value: PropertyValue::Table {
                rows: 48,
                cols: 3,
                data: (0..144).map(|i| i as f64 * 0.001).collect(),
            },
        };
        let back = OutputProperty::from_text(&table_p.to_text()).unwrap();
        match back.value {
            PropertyValue::Table { rows, cols, data } => {
                assert_eq!((rows, cols), (48, 3));
                assert!((data[143] - 0.143).abs() < 1e-12);
            }
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn property_parse_errors() {
        assert!(OutputProperty::from_text("").is_err());
        assert!(OutputProperty::from_text("property x\nunits u\nkind scalar\ndims 1 1\n").is_err()); // no data
        assert!(
            OutputProperty::from_text("property x\nunits u\nkind blob\ndims 1 1\n1.0\n").is_err()
        );
        assert!(OutputProperty::from_text(
            "property x\nunits u\nkind vector\ndims 3 1\n1.0\n2.0\n"
        )
        .is_err()); // short
    }

    #[test]
    fn approx_bytes_scales_with_content() {
        let mut small = Calculation::new("s");
        let empty = small.approx_bytes();
        small.molecule = Some(crate::chem::uo2_15h2o());
        small.properties.push(OutputProperty {
            name: "big".into(),
            units: "u".into(),
            value: PropertyValue::Vector(vec![0.0; 10_000]),
        });
        assert!(small.approx_bytes() > empty + 80_000);
    }
}
