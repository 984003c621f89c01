//! Parser for Berkeley genlib text.
//!
//! Grammar (combinational subset):
//!
//! ```text
//! file    := (gate)*
//! gate    := "GATE" name area output "=" expr ";" (pin)*
//! pin     := "PIN" (name | "*") phase input-load max-load
//!            rise-block rise-fanout fall-block fall-fanout
//! expr    := term ("+" term)*
//! term    := factor (("*")? factor)*      # implicit AND supported
//! factor  := "!" factor | atom "'"*
//! atom    := "(" expr ")" | identifier | CONST0 | CONST1
//! ```

use crate::expr::Expr;
use crate::library::{Gate, Library, Pin};
use std::collections::HashMap;
use std::fmt;

/// Error raised while parsing genlib text.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseGenlibError {
    /// 1-based line of the problem (0 when unknown).
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for ParseGenlibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "genlib parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseGenlibError {}

/// Widest cell accepted: mapped-netlist emission and glitch simulation
/// enumerate each cell's `2^k`-row truth table and assert this bound.
const MAX_GATE_INPUTS: usize = 16;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Word(String),
    Punct(char),
    Number(f64),
}

fn tokenize(text: &str) -> Result<Vec<(usize, Tok)>, ParseGenlibError> {
    let mut toks = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let s = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        };
        let mut chars = s.chars().peekable();
        while let Some(&c) = chars.peek() {
            if c.is_whitespace() {
                chars.next();
            } else if c.is_ascii_digit()
                || (c == '.' && chars.clone().nth(1).is_some_and(|d| d.is_ascii_digit()))
                || c == '-'
                    && chars
                        .clone()
                        .nth(1)
                        .is_some_and(|d| d.is_ascii_digit() || d == '.')
            {
                let mut num = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit()
                        || d == '.'
                        || d == 'e'
                        || d == 'E'
                        || d == '-'
                        || d == '+'
                    {
                        // stop '-'/'+' unless part of exponent
                        if (d == '-' || d == '+')
                            && !num.is_empty()
                            && !num.ends_with('e')
                            && !num.ends_with('E')
                        {
                            break;
                        }
                        num.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let v: f64 = num.parse().map_err(|_| ParseGenlibError {
                    line,
                    message: format!("bad number `{num}`"),
                })?;
                toks.push((line, Tok::Number(v)));
            } else if c.is_alphanumeric() || c == '_' || c == '[' || c == ']' || c == '.' {
                let mut w = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_alphanumeric() || d == '_' || d == '[' || d == ']' || d == '.' {
                        w.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                toks.push((line, Tok::Word(w)));
            } else {
                chars.next();
                toks.push((line, Tok::Punct(c)));
            }
        }
    }
    Ok(toks)
}

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
}

impl Parser {
    fn line(&self) -> usize {
        self.toks.get(self.pos).map_or(0, |t| t.0)
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.1)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.1.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseGenlibError {
        ParseGenlibError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn expect_word(&mut self) -> Result<String, ParseGenlibError> {
        match self.next() {
            Some(Tok::Word(w)) => Ok(w),
            other => Err(self.err(format!("expected identifier, got {other:?}"))),
        }
    }

    fn expect_number(&mut self) -> Result<f64, ParseGenlibError> {
        match self.next() {
            Some(Tok::Number(v)) => Ok(v),
            // genlib allows things like `999` written as words in odd files
            Some(Tok::Word(w)) if w.parse::<f64>().is_ok() => Ok(w.parse().expect("checked")),
            other => Err(self.err(format!("expected number, got {other:?}"))),
        }
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseGenlibError> {
        match self.next() {
            Some(Tok::Punct(p)) if p == c => Ok(()),
            other => Err(self.err(format!("expected `{c}`, got {other:?}"))),
        }
    }

    // expr := term (+ term)*
    fn parse_expr(&mut self, vars: &mut Vec<String>) -> Result<Expr, ParseGenlibError> {
        let mut terms = vec![self.parse_term(vars)?];
        while matches!(self.peek(), Some(Tok::Punct('+'))) {
            self.next();
            terms.push(self.parse_term(vars)?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("one")
        } else {
            Expr::Or(terms)
        })
    }

    // term := factor (("*")? factor)*
    fn parse_term(&mut self, vars: &mut Vec<String>) -> Result<Expr, ParseGenlibError> {
        let mut factors = vec![self.parse_factor(vars)?];
        loop {
            match self.peek() {
                Some(Tok::Punct('*')) => {
                    self.next();
                    factors.push(self.parse_factor(vars)?);
                }
                // implicit AND: adjacency of factors
                Some(Tok::Punct('(')) | Some(Tok::Punct('!')) | Some(Tok::Word(_)) => {
                    factors.push(self.parse_factor(vars)?);
                }
                _ => break,
            }
        }
        Ok(if factors.len() == 1 {
            factors.pop().expect("one")
        } else {
            Expr::And(factors)
        })
    }

    fn parse_factor(&mut self, vars: &mut Vec<String>) -> Result<Expr, ParseGenlibError> {
        let mut negate = false;
        while matches!(self.peek(), Some(Tok::Punct('!'))) {
            self.next();
            negate = !negate;
        }
        let mut e = match self.next() {
            Some(Tok::Punct('(')) => {
                let inner = self.parse_expr(vars)?;
                self.expect_punct(')')?;
                inner
            }
            Some(Tok::Word(w)) if w == "CONST0" => Expr::Zero,
            Some(Tok::Word(w)) if w == "CONST1" => Expr::One,
            Some(Tok::Word(w)) => {
                let idx = vars.iter().position(|v| *v == w).unwrap_or_else(|| {
                    vars.push(w.clone());
                    vars.len() - 1
                });
                Expr::Var(idx)
            }
            other => return Err(self.err(format!("expected factor, got {other:?}"))),
        };
        // postfix complement(s)
        while matches!(self.peek(), Some(Tok::Punct('\''))) {
            self.next();
            e = Expr::Not(Box::new(e));
        }
        if negate {
            e = Expr::Not(Box::new(e));
        }
        Ok(e)
    }
}

/// Parse genlib text into a [`Library`].
///
/// # Errors
/// Returns [`ParseGenlibError`] on malformed text, a `PIN` for an unknown
/// input, a gate whose inputs lack pin records, or a gate with more than
/// 16 inputs.
pub fn parse_genlib(text: &str) -> Result<Library, ParseGenlibError> {
    let toks = tokenize(text)?;
    let mut p = Parser { toks, pos: 0 };
    let mut gates = Vec::new();
    while let Some(tok) = p.peek() {
        match tok {
            Tok::Word(w) if w == "GATE" => {
                p.next();
                let name = p.expect_word()?;
                let area = p.expect_number()?;
                let output = p.expect_word()?;
                p.expect_punct('=')?;
                let mut vars: Vec<String> = Vec::new();
                let function = p.parse_expr(&mut vars)?;
                if vars.len() > MAX_GATE_INPUTS {
                    return Err(p.err(format!(
                        "gate `{name}` has {} inputs; at most {MAX_GATE_INPUTS} are supported",
                        vars.len()
                    )));
                }
                p.expect_punct(';')?;
                // PIN lines
                let mut star: Option<Pin> = None;
                let mut named: HashMap<String, Pin> = HashMap::new();
                while matches!(p.peek(), Some(Tok::Word(w)) if w == "PIN") {
                    p.next();
                    let pin_name = match p.next() {
                        Some(Tok::Word(w)) => w,
                        Some(Tok::Punct('*')) => "*".to_string(),
                        other => return Err(p.err(format!("expected pin name, got {other:?}"))),
                    };
                    let _phase = p.expect_word()?; // INV / NONINV / UNKNOWN
                    let input_cap = p.expect_number()?;
                    let max_load = p.expect_number()?;
                    let rise_block = p.expect_number()?;
                    let rise_fanout = p.expect_number()?;
                    let fall_block = p.expect_number()?;
                    let fall_fanout = p.expect_number()?;
                    let pin = Pin {
                        name: pin_name.clone(),
                        input_cap,
                        max_load,
                        intrinsic: rise_block.max(fall_block),
                        drive: rise_fanout.max(fall_fanout),
                    };
                    if pin_name == "*" {
                        star = Some(pin);
                    } else {
                        named.insert(pin_name, pin);
                    }
                }
                let mut pins = Vec::with_capacity(vars.len());
                for v in &vars {
                    if let Some(pin) = named.get(v) {
                        pins.push(pin.clone());
                    } else if let Some(s) = &star {
                        let mut pin = s.clone();
                        pin.name = v.clone();
                        pins.push(pin);
                    } else {
                        return Err(p.err(format!("gate `{name}`: no PIN record for input `{v}`")));
                    }
                }
                gates.push(Gate::new(name, area, output, vars, function, pins));
            }
            Tok::Word(w) if w == "LATCH" => {
                // Skip sequential cells: consume until next GATE/LATCH.
                p.next();
                while let Some(t) = p.peek() {
                    if matches!(t, Tok::Word(w) if w == "GATE" || w == "LATCH") {
                        break;
                    }
                    p.next();
                }
            }
            other => return Err(p.err(format!("expected GATE, got {other:?}"))),
        }
    }
    Ok(Library::from_gates("genlib".to_string(), gates))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_gate() {
        let lib = parse_genlib("GATE inv 1.0 O=!a; PIN a INV 1.0 999 0.4 0.9 0.4 0.9\n").unwrap();
        let g = lib.find("inv").unwrap();
        assert!(g.is_inverter());
        assert!((g.pin(0).intrinsic - 0.4).abs() < 1e-12);
    }

    #[test]
    fn star_pin_expands_to_all_inputs() {
        let lib =
            parse_genlib("GATE nand3 3.0 O=!(a*b*c); PIN * INV 1.1 999 0.9 1.2 0.8 1.0\n").unwrap();
        let g = lib.find("nand3").unwrap();
        assert_eq!(g.pins().len(), 3);
        assert_eq!(g.pin(2).name, "c");
        // worst-case collapse: intrinsic = max(0.9, 0.8) = 0.9, drive = 1.2
        assert!((g.pin(0).intrinsic - 0.9).abs() < 1e-12);
        assert!((g.pin(0).drive - 1.2).abs() < 1e-12);
    }

    #[test]
    fn named_pins_override() {
        let lib = parse_genlib(
            "GATE aoi 3.0 O=!(a*b+c); PIN a INV 1.0 999 1 1 1 1\n\
             PIN b INV 1.2 999 1 1 1 1\nPIN c INV 1.5 999 0.5 0.8 0.5 0.8\n",
        )
        .unwrap();
        let g = lib.find("aoi").unwrap();
        assert!((g.pin(2).input_cap - 1.5).abs() < 1e-12);
        assert!((g.pin(2).drive - 0.8).abs() < 1e-12);
    }

    #[test]
    fn expression_syntax_variants() {
        // postfix complement, implicit AND, parentheses
        let lib = parse_genlib(
            "GATE g1 2.0 O=a'b + c; PIN * INV 1 999 1 1 1 1\n\
             GATE g2 2.0 O=!(a+b')*(c); PIN * INV 1 999 1 1 1 1\n",
        )
        .unwrap();
        let g1 = lib.find("g1").unwrap();
        // a'b + c
        assert!(g1.eval(&[false, true, false]));
        assert!(!g1.eval(&[true, true, false]));
        assert!(g1.eval(&[true, true, true]));
        let g2 = lib.find("g2").unwrap();
        // !a * b * c
        assert!(g2.eval(&[false, true, true]));
        assert!(!g2.eval(&[true, true, true]));
    }

    #[test]
    fn constants_parse() {
        let lib = parse_genlib("GATE tie1 1.0 O=CONST1;\nGATE tie0 1.0 O=CONST0;\n").unwrap();
        assert_eq!(lib.find("tie1").unwrap().inputs().len(), 0);
    }

    #[test]
    fn missing_pin_is_error() {
        let r = parse_genlib("GATE bad 1.0 O=a*b; PIN a INV 1 999 1 1 1 1\n");
        assert!(r.is_err());
    }

    #[test]
    fn gates_wider_than_sixteen_inputs_are_rejected() {
        let gate = |k: usize| {
            let ins: Vec<String> = (0..k).map(|i| format!("i{i}")).collect();
            format!(
                "GATE and{k} 1.0 O={}; PIN * NONINV 1 999 1 1 1 1\n",
                ins.join("*")
            )
        };
        let lib = parse_genlib(&gate(16)).expect("16 inputs parse");
        assert_eq!(lib.find("and16").unwrap().inputs().len(), 16);
        let err = parse_genlib(&gate(17)).expect_err("17 inputs are rejected");
        assert_eq!(err.line, 1);
        assert!(err.message.contains("`and17`"), "{err}");
    }

    #[test]
    fn latch_cells_are_skipped() {
        let lib = parse_genlib(
            "LATCH dff 4.0 Q=D; PIN D NONINV 1 999 1 1 1 1 SEQ Q ANY\n\
             GATE inv 1.0 O=!a; PIN a INV 1 999 1 1 1 1\n",
        )
        .unwrap();
        assert_eq!(lib.gates().len(), 1);
    }

    #[test]
    fn comments_and_blank_lines() {
        let lib =
            parse_genlib("# a comment\n\nGATE inv 1.0 O=!a; PIN a INV 1 999 1 1 1 1 # trailing\n")
                .unwrap();
        assert_eq!(lib.gates().len(), 1);
    }
}
