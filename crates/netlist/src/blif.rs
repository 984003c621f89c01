//! BLIF reading and writing.
//!
//! Supports the combinational subset: `.model`, `.inputs`, `.outputs`,
//! `.names` (with PLA cover rows, all of one output phase), `.end`,
//! comments (`#`) and line continuations (`\`). `.latch` lines are
//! accepted by treating the latch output as a primary input and the latch
//! input as a primary output (the usual combinational-core extraction for
//! ISCAS-89 style circuits); the conversion is reported in the parse
//! result.

use crate::cube::Cube;
use crate::network::{Network, NetworkError, NodeId};
use crate::sop::Sop;
use std::collections::HashMap;
use std::fmt;

/// Error raised while parsing BLIF text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBlifError {
    /// 1-based source line.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for ParseBlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "blif parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseBlifError {}

impl From<NetworkError> for ParseBlifError {
    fn from(e: NetworkError) -> Self {
        ParseBlifError {
            line: 0,
            message: e.to_string(),
        }
    }
}

/// Result of parsing a BLIF model.
#[derive(Debug)]
pub struct BlifModel {
    /// The combinational network.
    pub network: Network,
    /// Latch (output, input) signal names converted to PI/PO pairs.
    pub latches: Vec<(String, String)>,
}

/// Parse a single BLIF model from text.
///
/// # Errors
/// Returns a [`ParseBlifError`] describing the first syntactic or structural
/// problem encountered.
pub fn parse_blif(text: &str) -> Result<BlifModel, ParseBlifError> {
    // Phase 1: logical lines (joined continuations, stripped comments).
    let mut lines: Vec<(usize, String)> = Vec::new();
    let mut pending = String::new();
    let mut pending_line = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let without_comment = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        };
        let mut part = without_comment.trim_end().to_string();
        let continued = part.ends_with('\\');
        if continued {
            part.pop();
        }
        if pending.is_empty() {
            pending_line = line_no;
        }
        pending.push_str(&part);
        pending.push(' ');
        if !continued {
            let logical = pending.trim().to_string();
            if !logical.is_empty() {
                lines.push((pending_line, logical));
            }
            pending.clear();
        }
    }
    if !pending.trim().is_empty() {
        lines.push((pending_line, pending.trim().to_string()));
    }

    // Phase 2: gather declarations and .names blocks by name.
    let mut model_name = String::from("unnamed");
    let mut input_names: Vec<String> = Vec::new();
    let mut output_names: Vec<String> = Vec::new();
    let mut latches: Vec<(String, String)> = Vec::new();
    struct NamesBlock {
        line: usize,
        signals: Vec<String>,
        rows: Vec<(Cube, bool)>,
    }
    let mut blocks: Vec<NamesBlock> = Vec::new();
    let mut current: Option<NamesBlock> = None;

    let err = |line: usize, message: String| ParseBlifError { line, message };

    for (line_no, line) in &lines {
        let line_no = *line_no;
        let mut tokens = line.split_whitespace();
        let head = tokens.next().expect("non-empty logical line");
        if head.starts_with('.') {
            if let Some(b) = current.take() {
                blocks.push(b);
            }
        }
        match head {
            ".model" => {
                if let Some(n) = tokens.next() {
                    model_name = n.to_string();
                }
            }
            ".inputs" => input_names.extend(tokens.map(str::to_string)),
            ".outputs" => output_names.extend(tokens.map(str::to_string)),
            ".names" => {
                let signals: Vec<String> = tokens.map(str::to_string).collect();
                if signals.is_empty() {
                    return Err(err(line_no, ".names with no signals".into()));
                }
                current = Some(NamesBlock {
                    line: line_no,
                    signals,
                    rows: Vec::new(),
                });
            }
            ".latch" => {
                let toks: Vec<&str> = tokens.collect();
                if toks.len() < 2 {
                    return Err(err(line_no, ".latch needs input and output".into()));
                }
                latches.push((toks[1].to_string(), toks[0].to_string()));
            }
            ".end" => break,
            ".exdc"
            | ".clock"
            | ".wire_load_slope"
            | ".default_input_arrival"
            | ".default_output_required" => { /* ignored */ }
            _ if head.starts_with('.') => {
                return Err(err(line_no, format!("unsupported construct `{head}`")));
            }
            _ => {
                // Cover row inside a .names block.
                let block = current
                    .as_mut()
                    .ok_or_else(|| err(line_no, format!("cover row `{line}` outside .names")))?;
                let width = block.signals.len() - 1;
                let (in_part, out_part) = if width == 0 {
                    (String::new(), head.to_string())
                } else {
                    let rest: Vec<&str> = tokens.collect();
                    if rest.len() != 1 {
                        return Err(err(line_no, format!("malformed cover row `{line}`")));
                    }
                    (head.to_string(), rest[0].to_string())
                };
                if in_part.len() != width {
                    return Err(err(
                        line_no,
                        format!("cover row width {} != {} inputs", in_part.len(), width),
                    ));
                }
                let cube = Cube::parse(&in_part)
                    .ok_or_else(|| err(line_no, format!("bad cube `{in_part}`")))?;
                let phase = match out_part.as_str() {
                    "1" => true,
                    "0" => false,
                    _ => return Err(err(line_no, format!("bad output value `{out_part}`"))),
                };
                if block.rows.first().is_some_and(|&(_, p)| p != phase) {
                    return Err(err(
                        block.line,
                        format!(
                            ".names {} mixes on-set and off-set rows",
                            block.signals.join(" ")
                        ),
                    ));
                }
                block.rows.push((cube, phase));
            }
        }
    }
    if let Some(b) = current.take() {
        blocks.push(b);
    }

    // Phase 3: build the network. Latch outputs become PIs, latch inputs POs.
    let mut net = Network::new(model_name);
    let mut ids: HashMap<String, NodeId> = HashMap::new();
    for name in &input_names {
        let id = net.add_input(name.clone())?;
        ids.insert(name.clone(), id);
    }
    for (lo, _li) in &latches {
        if !ids.contains_key(lo) {
            let id = net.add_input(lo.clone())?;
            ids.insert(lo.clone(), id);
        }
    }

    // Topological insertion: defer blocks whose fanins are not yet present.
    let mut remaining: Vec<&NamesBlock> = blocks.iter().collect();
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|b| {
            let out = b.signals.last().expect("signals non-empty");
            let fanin_names = &b.signals[..b.signals.len() - 1];
            if !fanin_names.iter().all(|n| ids.contains_key(n)) {
                return true; // keep for a later pass
            }
            let fanins: Vec<NodeId> = fanin_names.iter().map(|n| ids[n]).collect();
            let width = fanins.len();
            // All rows share one phase (mixed covers are rejected above).
            // Off-set rows list the complement; no rows is constant 0.
            let cover = Sop::from_cubes(width, b.rows.iter().map(|(c, _)| c.clone()).collect());
            let sop = match b.rows.first() {
                Some((_, false)) => cover.complement(),
                _ => cover,
            };
            match net.add_logic(out.clone(), fanins, sop) {
                Ok(id) => {
                    ids.insert(out.clone(), id);
                    false
                }
                Err(_) => true,
            }
        });
        if remaining.len() == before {
            let b = remaining[0];
            return Err(err(
                b.line,
                format!(
                    "unresolvable or duplicate signal in .names {}",
                    b.signals.join(" ")
                ),
            ));
        }
    }

    for name in &output_names {
        let id = *ids
            .get(name)
            .ok_or_else(|| err(0, format!("undefined output `{name}`")))?;
        net.add_output(name.clone(), id);
    }
    for (_, li) in &latches {
        let id = *ids
            .get(li)
            .ok_or_else(|| err(0, format!("undefined latch input `{li}`")))?;
        net.add_output(format!("{li}$next"), id);
    }
    net.check()?;
    Ok(BlifModel {
        network: net,
        latches,
    })
}

/// Serialize a network as BLIF text.
pub fn write_blif(net: &Network) -> String {
    let mut out = String::new();
    out.push_str(&format!(".model {}\n", net.name()));
    let input_names: Vec<&str> = net.inputs().iter().map(|&i| net.node(i).name()).collect();
    out.push_str(&format!(".inputs {}\n", input_names.join(" ")));
    let output_names: Vec<String> = net.outputs().iter().map(|(n, _)| n.clone()).collect();
    out.push_str(&format!(".outputs {}\n", output_names.join(" ")));
    let order = net.topo_order().expect("network must be acyclic");
    for id in order {
        let node = net.node(id);
        let Some(sop) = node.sop() else { continue };
        let fanins: Vec<&str> = node.fanins().iter().map(|&f| net.node(f).name()).collect();
        out.push_str(&format!(".names {} {}\n", fanins.join(" "), node.name()).replace("  ", " "));
        for cube in sop.cubes() {
            if cube.width() == 0 {
                out.push_str("1\n");
            } else {
                let row: String = (0..cube.width()).map(|i| cube.lit(i).to_char()).collect();
                out.push_str(&format!("{row} 1\n"));
            }
        }
    }
    // Outputs that alias a differently-named node get a buffer.
    for (name, id) in net.outputs() {
        if net.node(*id).name() != name {
            out.push_str(&format!(".names {} {name}\n1 1\n", net.node(*id).name()));
        }
    }
    out.push_str(".end\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# sample circuit
.model samp
.inputs a b c
.outputs f
.names a b g
11 1
.names g c f
1- 1
-1 1
.end
";

    #[test]
    fn parse_basic() {
        let m = parse_blif(SAMPLE).unwrap();
        let net = &m.network;
        assert_eq!(net.name(), "samp");
        assert_eq!(net.inputs().len(), 3);
        assert_eq!(net.outputs().len(), 1);
        assert_eq!(net.logic_count(), 2);
        assert_eq!(net.eval_outputs(&[true, true, false]), vec![true]);
        assert_eq!(net.eval_outputs(&[false, true, false]), vec![false]);
    }

    #[test]
    fn roundtrip_preserves_function() {
        let m = parse_blif(SAMPLE).unwrap();
        let text = write_blif(&m.network);
        let m2 = parse_blif(&text).unwrap();
        for bits in 0..8u32 {
            let pis: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(m.network.eval_outputs(&pis), m2.network.eval_outputs(&pis));
        }
    }

    #[test]
    fn off_set_cover_is_complemented() {
        let text = "\
.model t
.inputs a b
.outputs f
.names a b f
11 0
.end
";
        let net = parse_blif(text).unwrap().network;
        // f = !(a & b)
        assert_eq!(net.eval_outputs(&[true, true]), vec![false]);
        assert_eq!(net.eval_outputs(&[true, false]), vec![true]);
    }

    #[test]
    fn mixed_on_and_off_set_rows_are_rejected() {
        let text = "\
.model t
.inputs a b
.outputs y
.names a b y
1- 1
-1 0
.end
";
        let e = parse_blif(text).unwrap_err();
        assert_eq!(e.line, 4, "the error points at the `.names` line");
        assert!(e.message.contains("a b y"), "{}", e.message);
        assert!(e.message.contains("on-set and off-set"), "{}", e.message);
    }

    #[test]
    fn constants_parse() {
        let text = "\
.model t
.inputs a
.outputs one zero f
.names one
1
.names zero
.names a f
1 1
.end
";
        let net = parse_blif(text).unwrap().network;
        assert_eq!(net.eval_outputs(&[false]), vec![true, false, false]);
    }

    #[test]
    fn latches_become_pi_po() {
        let text = "\
.model seq
.inputs x
.outputs y
.latch w q 0
.names x q y
11 1
.names x w
0 1
.end
";
        let m = parse_blif(text).unwrap();
        assert_eq!(m.latches, vec![("q".to_string(), "w".to_string())]);
        assert_eq!(m.network.inputs().len(), 2); // x and q
        assert_eq!(m.network.outputs().len(), 2); // y and w$next
    }

    #[test]
    fn out_of_order_names_blocks() {
        let text = "\
.model t
.inputs a
.outputs f
.names g f
1 1
.names a g
0 1
.end
";
        let net = parse_blif(text).unwrap().network;
        assert_eq!(net.eval_outputs(&[false]), vec![true]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = ".model t\n.inputs a\n.outputs f\n.names a f\n1x 1\n.end\n";
        let e = parse_blif(text).unwrap_err();
        assert_eq!(e.line, 5);
    }

    #[test]
    fn continuation_lines_join() {
        let text = ".model t\n.inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n.end\n";
        let net = parse_blif(text).unwrap().network;
        assert_eq!(net.inputs().len(), 2);
    }
}
