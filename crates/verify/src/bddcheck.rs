//! Canonical BDD comparison backend.
//!
//! Both networks are compiled into one [`BddManager`] over the union input
//! space with a shared variable order: `a`'s inputs ranked by `a`'s static
//! depth-first order ([`Network::input_dfs_order`]), then the inputs only
//! `b` has, ranked by `b`'s. Hash-consing makes handle equality function
//! equality, so matching output handles are a proof of equivalence.
//! `sat_one` witnesses come back in variable order and are mapped to union
//! order before minimization. If the manager grows past the node budget
//! while compiling, the check falls back to the simulation backend rather
//! than blowing up memory.

use crate::align;
use crate::{cex, sim, Backend, EquivReport, Verdict, VerifyError, VerifyOptions};
use bdd::{Bdd, BddManager};
use netlist::{Network, NodeId};

pub(crate) fn check(
    a: &Network,
    b: &Network,
    opts: &VerifyOptions,
) -> Result<Verdict, VerifyError> {
    let al = align::align(a, b, opts.outputs)?;
    let var_of_union = union_var_order(a, b, &al);
    let vars = |pos: &[usize]| -> Vec<usize> { pos.iter().map(|&p| var_of_union[p]).collect() };
    let mut manager = BddManager::new(al.names.len());
    let fa = match compile(&mut manager, a, &vars(&al.a_pos), opts.bdd_node_budget)? {
        Some(outputs) => outputs,
        None => {
            obs::counter!("verify.bdd.fallbacks");
            return sim::run(a, b, &al, opts, true);
        }
    };
    let fb = match compile(&mut manager, b, &vars(&al.b_pos), opts.bdd_node_budget)? {
        Some(outputs) => outputs,
        None => {
            obs::counter!("verify.bdd.fallbacks");
            return sim::run(a, b, &al, opts, true);
        }
    };
    for (_, ai, bi) in &al.outputs {
        if fa[*ai] != fb[*bi] {
            let diff = manager.xor(fa[*ai], fb[*bi]);
            let by_var = manager
                .sat_one(diff)
                .expect("XOR of distinct functions is satisfiable");
            let union = var_of_union.iter().map(|&v| by_var[v]).collect();
            return Ok(Verdict::NotEquivalent(Box::new(cex::build(
                a, b, &al, union,
            ))));
        }
    }
    Ok(Verdict::Equivalent(EquivReport {
        backend: Backend::Bdd,
        outputs_checked: al.outputs.len(),
        bdd_fallback: false,
        vectors: 0,
    }))
}

/// Manager variable of every union input: `a`'s inputs take `a`'s
/// depth-first ranks, and the inputs only `b` has follow in `b`'s
/// depth-first order.
fn union_var_order(a: &Network, b: &Network, al: &align::Alignment) -> Vec<usize> {
    let mut var_of_union = vec![0; al.names.len()];
    for (&pos, rank) in al.a_pos.iter().zip(a.input_dfs_order()) {
        var_of_union[pos] = rank;
    }
    let mut b_only: Vec<(usize, usize)> = b
        .input_dfs_order()
        .into_iter()
        .zip(&al.b_pos)
        .filter(|&(_, &pos)| pos >= al.a_pos.len())
        .map(|(rank, &pos)| (rank, pos))
        .collect();
    b_only.sort_unstable();
    for (k, (_, pos)) in b_only.into_iter().enumerate() {
        var_of_union[pos] = al.a_pos.len() + k;
    }
    var_of_union
}

/// Compile every output of `net` to a BDD, mapping the network's `i`-th
/// input to manager variable `var_of_input[i]`. Returns `None` if the
/// manager exceeds `budget` nodes part-way through.
fn compile(
    manager: &mut BddManager,
    net: &Network,
    var_of_input: &[usize],
    budget: usize,
) -> Result<Option<Vec<Bdd>>, VerifyError> {
    let order = net
        .topo_order()
        .map_err(|e| VerifyError::Network(e.to_string()))?;
    let mut input_index = vec![usize::MAX; net.arena_len()];
    for (i, id) in net.inputs().iter().enumerate() {
        input_index[id.index()] = i;
    }
    let mut values: Vec<Bdd> = vec![Bdd::ZERO; net.arena_len()];
    for id in order {
        let node = net.node(id);
        let f = match node.sop() {
            None => manager.var(var_of_input[input_index[id.index()]]),
            Some(sop) => {
                let fanins: Vec<Bdd> = node
                    .fanins()
                    .iter()
                    .map(|&fid: &NodeId| values[fid.index()])
                    .collect();
                let mut acc = Bdd::ZERO;
                for cube in sop.cubes() {
                    let mut product = Bdd::ONE;
                    for (pos, lit) in cube.bound_lits() {
                        let v = if lit == netlist::Lit::Pos {
                            fanins[pos]
                        } else {
                            manager.not(fanins[pos])
                        };
                        product = manager.and(product, v);
                    }
                    acc = manager.or(acc, product);
                }
                acc
            }
        };
        values[id.index()] = f;
        if manager.node_count() > budget {
            return Ok(None);
        }
    }
    Ok(Some(
        net.outputs()
            .iter()
            .map(|(_, id)| values[id.index()])
            .collect(),
    ))
}
