//! Gate and library models.

use crate::expr::Expr;
use crate::parse::{parse_genlib, ParseGenlibError};

/// Electrical description of one gate input pin.
///
/// Genlib rise/fall blocks are collapsed to a single worst-case pair: the
/// mapper's delay model (paper eq. 14) is `delay = intrinsic + drive ·
/// C_load`.
#[derive(Debug, Clone, PartialEq)]
pub struct Pin {
    /// Pin (input) name.
    pub name: String,
    /// Input capacitance in load units.
    pub input_cap: f64,
    /// Maximum load this pin's gate may drive through this arc.
    pub max_load: f64,
    /// Intrinsic (block) delay τ from this pin to the output, ns.
    pub intrinsic: f64,
    /// Drive resistance R: additional delay per load unit, ns / load.
    pub drive: f64,
}

/// One library cell.
#[derive(Debug, Clone)]
pub struct Gate {
    name: String,
    area: f64,
    output: String,
    inputs: Vec<String>,
    function: Expr,
    pins: Vec<Pin>,
}

impl Gate {
    pub(crate) fn new(
        name: String,
        area: f64,
        output: String,
        inputs: Vec<String>,
        function: Expr,
        pins: Vec<Pin>,
    ) -> Gate {
        assert_eq!(inputs.len(), pins.len(), "one pin record per input");
        Gate {
            name,
            area,
            output,
            inputs,
            function,
            pins,
        }
    }

    /// Cell name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Cell area (library units).
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Output pin name.
    pub fn output(&self) -> &str {
        &self.output
    }

    /// Ordered input names (positions match [`Gate::function`] variables).
    pub fn inputs(&self) -> &[String] {
        &self.inputs
    }

    /// The gate function over input positions.
    pub fn function(&self) -> &Expr {
        &self.function
    }

    /// Pin records, aligned with [`Gate::inputs`].
    pub fn pins(&self) -> &[Pin] {
        &self.pins
    }

    /// Pin record for input position `i`.
    pub fn pin(&self, i: usize) -> &Pin {
        &self.pins[i]
    }

    /// Evaluate the gate on an input assignment.
    pub fn eval(&self, inputs: &[bool]) -> bool {
        assert_eq!(inputs.len(), self.inputs.len(), "gate input width mismatch");
        self.function.eval(inputs)
    }

    /// The gate's truth table, packed 64 entries to a word: bit `x % 64`
    /// of word `x / 64` is the output when pin `j` carries bit `j` of `x`.
    ///
    /// # Panics
    /// Panics on a gate with more than 16 inputs. Only
    /// [`Gate::raw_for_test`] builds one: the parser rejects wider cells.
    pub fn truth_table(&self) -> Vec<u64> {
        let k = self.inputs.len();
        assert!(k <= 16, "cell `{}` too wide for a truth table", self.name);
        let mut table = vec![0; (1usize << k).div_ceil(64)];
        let mut assignment = vec![false; k];
        for x in 0..1usize << k {
            for (j, a) in assignment.iter_mut().enumerate() {
                *a = x >> j & 1 == 1;
            }
            table[x / 64] |= u64::from(self.eval(&assignment)) << (x % 64);
        }
        table
    }

    /// True if the gate is a single-input inverter.
    pub fn is_inverter(&self) -> bool {
        self.inputs.len() == 1 && !self.eval(&[true]) && self.eval(&[false])
    }

    /// True if the gate is a single-input buffer.
    pub fn is_buffer(&self) -> bool {
        self.inputs.len() == 1 && self.eval(&[true]) && !self.eval(&[false])
    }

    /// Build a gate with **no** validation (pin/input arity may mismatch,
    /// electrical values may be negative). Exists solely so lint mutation
    /// tests can construct invalid gates; never call it otherwise.
    #[doc(hidden)]
    pub fn raw_for_test(
        name: String,
        area: f64,
        output: String,
        inputs: Vec<String>,
        function: Expr,
        pins: Vec<Pin>,
    ) -> Gate {
        Gate {
            name,
            area,
            output,
            inputs,
            function,
            pins,
        }
    }
}

/// A cell library.
#[derive(Debug, Clone)]
pub struct Library {
    name: String,
    gates: Vec<Gate>,
}

impl Library {
    pub(crate) fn from_gates(name: String, gates: Vec<Gate>) -> Library {
        Library { name, gates }
    }

    /// Build a library from raw gates with no validation; companion of
    /// [`Gate::raw_for_test`], test-only.
    #[doc(hidden)]
    pub fn from_gates_for_test(name: String, gates: Vec<Gate>) -> Library {
        Library { name, gates }
    }

    /// Parse genlib text into a library.
    ///
    /// # Errors
    /// Returns a [`ParseGenlibError`] describing the first problem found.
    pub fn parse(text: &str) -> Result<Library, ParseGenlibError> {
        parse_genlib(text)
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All gates.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Find a gate by cell name.
    pub fn find(&self, name: &str) -> Option<&Gate> {
        self.gates.iter().find(|g| g.name == name)
    }

    /// The smallest-area inverter; `None` if the library has no inverter.
    pub fn min_inverter(&self) -> Option<&Gate> {
        self.gates
            .iter()
            .filter(|g| g.is_inverter())
            .min_by(|a, b| a.area.partial_cmp(&b.area).expect("finite areas"))
    }

    /// Default unknown-load value: the input capacitance of the smallest
    /// 2-input NAND (paper §3.2.3), falling back to the smallest inverter
    /// and then to 1.0.
    pub fn default_load(&self) -> f64 {
        let nand2 = self
            .gates
            .iter()
            .filter(|g| {
                g.inputs.len() == 2
                    && !g.eval(&[true, true])
                    && g.eval(&[false, true])
                    && g.eval(&[true, false])
                    && g.eval(&[false, false])
            })
            .min_by(|a, b| a.area.partial_cmp(&b.area).expect("finite areas"));
        if let Some(g) = nand2 {
            return g.pins[0].input_cap;
        }
        if let Some(inv) = self.min_inverter() {
            return inv.pins[0].input_cap;
        }
        1.0
    }
}

#[cfg(test)]
mod tests {
    use crate::builtin::lib2_like;

    #[test]
    fn builtin_library_is_well_formed() {
        let lib = lib2_like();
        assert!(lib.gates().len() >= 20, "library should be rich");
        for g in lib.gates() {
            assert!(g.area() > 0.0, "{} area", g.name());
            assert_eq!(g.inputs().len(), g.pins().len());
            for p in g.pins() {
                assert!(p.input_cap > 0.0 && p.intrinsic >= 0.0 && p.drive > 0.0);
            }
        }
    }

    #[test]
    fn truth_tables_agree_with_eval() {
        for g in lib2_like().gates() {
            let k = g.inputs().len();
            let table = g.truth_table();
            assert_eq!(table.len(), (1usize << k).div_ceil(64), "{}", g.name());
            for x in 0..1usize << k {
                let assignment: Vec<bool> = (0..k).map(|j| x >> j & 1 == 1).collect();
                let bit = table[x / 64] >> (x % 64) & 1 == 1;
                assert_eq!(bit, g.eval(&assignment), "{} at {x:#b}", g.name());
            }
        }
    }

    #[test]
    fn inverter_detection() {
        let lib = lib2_like();
        let inv = lib.min_inverter().expect("library has an inverter");
        assert!(inv.is_inverter());
        assert!(!inv.is_buffer());
    }

    #[test]
    fn default_load_comes_from_nand2() {
        let lib = lib2_like();
        let nand2 = lib.find("nand2").expect("nand2 exists");
        assert!((lib.default_load() - nand2.pin(0).input_cap).abs() < 1e-12);
    }

    #[test]
    fn gate_truth_tables() {
        let lib = lib2_like();
        let nand2 = lib.find("nand2").unwrap();
        assert!(!nand2.eval(&[true, true]));
        assert!(nand2.eval(&[false, true]));
        let nor2 = lib.find("nor2").unwrap();
        assert!(nor2.eval(&[false, false]));
        assert!(!nor2.eval(&[true, false]));
        let aoi21 = lib.find("aoi21").unwrap();
        // aoi21 = !((a*b) + c)
        assert!(!aoi21.eval(&[true, true, false]));
        assert!(!aoi21.eval(&[false, false, true]));
        assert!(aoi21.eval(&[true, false, false]));
        let xor2 = lib.find("xor2").unwrap();
        assert!(xor2.eval(&[true, false]));
        assert!(!xor2.eval(&[true, true]));
    }
}
