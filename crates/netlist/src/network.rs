//! Multi-level Boolean networks.
//!
//! A [`Network`] is a DAG of named nodes. Each internal node carries a local
//! function as a [`Sop`] over its fanins; primary inputs carry no function.
//! Primary outputs are named references to nodes.

use crate::sop::Sop;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a node within one [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index of the node in the network arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The functional content of a node.
#[derive(Debug, Clone)]
enum NodeFunc {
    /// Primary input: no local function.
    Input,
    /// Internal (or constant) node with a SOP over its fanins.
    Logic(Sop),
}

/// One node of a network.
#[derive(Debug, Clone)]
pub struct Node {
    name: String,
    func: NodeFunc,
    fanins: Vec<NodeId>,
    fanouts: Vec<NodeId>,
    alive: bool,
}

impl Node {
    /// Node name (unique within the network).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The SOP of a logic node, or `None` for a primary input.
    pub fn sop(&self) -> Option<&Sop> {
        match &self.func {
            NodeFunc::Input => None,
            NodeFunc::Logic(s) => Some(s),
        }
    }

    /// Fanin nodes, in SOP variable-position order.
    pub fn fanins(&self) -> &[NodeId] {
        &self.fanins
    }

    /// Fanout nodes (unordered, without duplicates).
    pub fn fanouts(&self) -> &[NodeId] {
        &self.fanouts
    }

    /// True for primary inputs.
    pub fn is_input(&self) -> bool {
        matches!(self.func, NodeFunc::Input)
    }

    /// Literal count of the local function (0 for inputs).
    pub fn literal_count(&self) -> usize {
        self.sop().map_or(0, Sop::literal_count)
    }
}

/// Error raised by [`Network`] construction and mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// A node name was used twice.
    DuplicateName(String),
    /// A referenced name does not exist.
    UnknownName(String),
    /// A SOP width does not match the fanin count.
    WidthMismatch {
        node: String,
        width: usize,
        fanins: usize,
    },
    /// The network contains a combinational cycle; the payload is the
    /// cycle path in fanin order, closed (first name repeated at the end).
    Cycle(Vec<String>),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::DuplicateName(n) => write!(f, "duplicate node name `{n}`"),
            NetworkError::UnknownName(n) => write!(f, "unknown node name `{n}`"),
            NetworkError::WidthMismatch {
                node,
                width,
                fanins,
            } => {
                write!(f, "node `{node}` has SOP width {width} but {fanins} fanins")
            }
            NetworkError::Cycle(path) if path.is_empty() => {
                write!(f, "combinational cycle detected")
            }
            NetworkError::Cycle(path) => {
                write!(f, "combinational cycle: {}", path.join(" -> "))
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// A combinational multi-level Boolean network.
#[derive(Clone)]
pub struct Network {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<(String, NodeId)>,
    by_name: HashMap<String, NodeId>,
    fresh: u64,
}

impl Network {
    /// Create an empty network with the given model name.
    pub fn new(name: impl Into<String>) -> Network {
        Network {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            by_name: HashMap::new(),
            fresh: 0,
        }
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Set the model name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs as `(name, node)` pairs in declaration order.
    pub fn outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// Access a node.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this network or the node was removed.
    pub fn node(&self, id: NodeId) -> &Node {
        let n = &self.nodes[id.index()];
        assert!(n.alive, "access to removed node {:?}", id);
        n
    }

    /// Look up a node by name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// All live node ids (inputs and logic), in arena order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// All live logic node ids, in arena order.
    pub fn logic_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive && !n.is_input())
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// Number of live logic nodes.
    pub fn logic_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.alive && !n.is_input())
            .count()
    }

    /// Total literal count over all logic nodes.
    pub fn literal_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.alive)
            .map(Node::literal_count)
            .sum()
    }

    /// Size of the arena (including removed slots); valid bound for dense
    /// per-node side tables indexed by [`NodeId::index`].
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Add a primary input.
    ///
    /// # Errors
    /// Returns [`NetworkError::DuplicateName`] if the name exists.
    pub fn add_input(&mut self, name: impl Into<String>) -> Result<NodeId, NetworkError> {
        let name = name.into();
        let id = self.insert_node(name, NodeFunc::Input, Vec::new())?;
        self.inputs.push(id);
        Ok(id)
    }

    /// Add a logic node with the given fanins and SOP.
    ///
    /// Duplicate fanin entries are canonically merged: the fanin list is
    /// deduplicated and the SOP is remapped onto the unique positions, with
    /// opposite-phase literals intersecting to contradictions (the cube is
    /// dropped — it covered nothing). A network therefore never stores the
    /// same fanin at two SOP positions, the construction hole behind the
    /// `Cube::remap` duplicate-pin bug.
    ///
    /// # Errors
    /// Returns an error on duplicate name or SOP/fanin width mismatch.
    pub fn add_logic(
        &mut self,
        name: impl Into<String>,
        fanins: Vec<NodeId>,
        sop: Sop,
    ) -> Result<NodeId, NetworkError> {
        let name = name.into();
        if sop.width() != fanins.len() {
            return Err(NetworkError::WidthMismatch {
                node: name,
                width: sop.width(),
                fanins: fanins.len(),
            });
        }
        let (fanins, sop) = canonicalize_function(fanins, sop);
        let id = self.insert_node(name, NodeFunc::Logic(sop), fanins.clone())?;
        for f in fanins {
            self.add_fanout(f, id);
        }
        Ok(id)
    }

    /// Declare a primary output referring to `node` under `name`.
    pub fn add_output(&mut self, name: impl Into<String>, node: NodeId) {
        self.outputs.push((name.into(), node));
    }

    /// Rename a node.
    ///
    /// # Errors
    /// Returns [`NetworkError::DuplicateName`] if the new name is taken by a
    /// different node.
    pub fn rename_node(
        &mut self,
        id: NodeId,
        new_name: impl Into<String>,
    ) -> Result<(), NetworkError> {
        let new_name = new_name.into();
        if let Some(&existing) = self.by_name.get(&new_name) {
            if existing == id {
                return Ok(());
            }
            return Err(NetworkError::DuplicateName(new_name));
        }
        let old = std::mem::replace(&mut self.nodes[id.index()].name, new_name.clone());
        self.by_name.remove(&old);
        self.by_name.insert(new_name, id);
        Ok(())
    }

    /// Generate a fresh node name with the given prefix, guaranteed unused.
    pub fn fresh_name(&mut self, prefix: &str) -> String {
        loop {
            let name = format!("{prefix}{}", self.fresh);
            self.fresh += 1;
            if !self.by_name.contains_key(&name) {
                return name;
            }
        }
    }

    fn insert_node(
        &mut self,
        name: String,
        func: NodeFunc,
        fanins: Vec<NodeId>,
    ) -> Result<NodeId, NetworkError> {
        if self.by_name.contains_key(&name) {
            return Err(NetworkError::DuplicateName(name));
        }
        let id = NodeId(self.nodes.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.nodes.push(Node {
            name,
            func,
            fanins,
            fanouts: Vec::new(),
            alive: true,
        });
        Ok(id)
    }

    fn add_fanout(&mut self, from: NodeId, to: NodeId) {
        let fo = &mut self.nodes[from.index()].fanouts;
        if !fo.contains(&to) {
            fo.push(to);
        }
    }

    fn remove_fanout(&mut self, from: NodeId, to: NodeId) {
        // Only remove if `to` no longer references `from` at all.
        if self.nodes[to.index()].fanins.contains(&from) {
            return;
        }
        self.nodes[from.index()].fanouts.retain(|&x| x != to);
    }

    /// Replace the local function (and fanins) of a logic node.
    ///
    /// Duplicate fanin entries are canonically merged exactly as in
    /// [`Network::add_logic`].
    ///
    /// # Panics
    /// Panics if the node is a primary input or if the SOP width does not
    /// match the new fanin count.
    pub fn replace_function(&mut self, id: NodeId, fanins: Vec<NodeId>, sop: Sop) {
        assert!(
            !self.node(id).is_input(),
            "cannot replace a primary input's function"
        );
        assert_eq!(
            sop.width(),
            fanins.len(),
            "SOP width must equal fanin count"
        );
        let (fanins, sop) = canonicalize_function(fanins, sop);
        let old = std::mem::take(&mut self.nodes[id.index()].fanins);
        self.nodes[id.index()].func = NodeFunc::Logic(sop);
        self.nodes[id.index()].fanins = fanins.clone();
        for f in old {
            self.remove_fanout(f, id);
        }
        for f in fanins {
            self.add_fanout(f, id);
        }
    }

    /// Redirect every use of `old` (fanins of other nodes and primary
    /// outputs) to `new`, merging duplicate fanin entries in consumers.
    ///
    /// # Panics
    /// Panics if `new` lies in the transitive fanout of `old` (would create a
    /// cycle).
    pub fn substitute(&mut self, old: NodeId, new: NodeId) {
        assert_ne!(old, new);
        assert!(
            !self.transitive_fanout_contains(old, new),
            "substitute would create a cycle"
        );
        let fanouts = self.nodes[old.index()].fanouts.clone();
        for fo in fanouts {
            let node = &self.nodes[fo.index()];
            let mut fanins = node.fanins.clone();
            let sop = node.sop().expect("fanout must be a logic node").clone();
            // Build the new fanin list: replace `old` with `new`, dedup.
            let mut new_fanins: Vec<NodeId> = Vec::with_capacity(fanins.len());
            for f in &mut fanins {
                if *f == old {
                    *f = new;
                }
            }
            for &f in &fanins {
                if !new_fanins.contains(&f) {
                    new_fanins.push(f);
                }
            }
            let perm: Vec<usize> = fanins
                .iter()
                .map(|f| {
                    new_fanins
                        .iter()
                        .position(|g| g == f)
                        .expect("fanin present")
                })
                .collect();
            let mut new_sop = sop.remap(&perm, new_fanins.len());
            new_sop.make_scc_minimal();
            self.replace_function(fo, new_fanins, new_sop);
        }
        for (_, out) in self.outputs.iter_mut() {
            if *out == old {
                *out = new;
            }
        }
    }

    fn transitive_fanout_contains(&self, from: NodeId, target: NodeId) -> bool {
        if from == target {
            return true;
        }
        let mut stack = vec![from];
        let mut seen = vec![false; self.nodes.len()];
        while let Some(n) = stack.pop() {
            for &fo in &self.nodes[n.index()].fanouts {
                if fo == target {
                    return true;
                }
                if !seen[fo.index()] {
                    seen[fo.index()] = true;
                    stack.push(fo);
                }
            }
        }
        false
    }

    /// Remove a node that has no fanouts and is not a primary output.
    ///
    /// # Panics
    /// Panics if the node still has fanouts or is referenced by an output.
    pub fn remove_node(&mut self, id: NodeId) {
        assert!(
            self.nodes[id.index()].fanouts.is_empty(),
            "node still has fanouts"
        );
        assert!(
            !self.outputs.iter().any(|(_, o)| *o == id),
            "node is a primary output"
        );
        self.unlink_node(id);
    }

    /// [`Network::remove_node`] without its checks, for a caller that knows
    /// the node has no fanouts and is no output.
    fn unlink_node(&mut self, id: NodeId) {
        let fanins = std::mem::take(&mut self.nodes[id.index()].fanins);
        self.nodes[id.index()].alive = false;
        let name = self.nodes[id.index()].name.clone();
        self.by_name.remove(&name);
        self.inputs.retain(|&i| i != id);
        for f in fanins {
            self.remove_fanout(f, id);
        }
    }

    /// Remove all logic nodes not reachable from any primary output.
    /// Returns the number of nodes removed. Primary inputs are kept.
    pub fn sweep_dangling(&mut self) -> usize {
        let mut is_output = vec![false; self.nodes.len()];
        for (_, o) in &self.outputs {
            is_output[o.index()] = true;
        }
        let mut removed = 0;
        loop {
            let dead: Vec<NodeId> = self
                .logic_ids()
                .filter(|&id| self.node(id).fanouts().is_empty() && !is_output[id.index()])
                .collect();
            if dead.is_empty() {
                return removed;
            }
            for id in dead {
                self.unlink_node(id);
                removed += 1;
            }
        }
    }

    /// Access a node, returning `None` for out-of-range ids and removed
    /// nodes instead of panicking. Useful for diagnostics over networks
    /// whose internal links may be corrupted.
    pub fn try_node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index()).filter(|n| n.alive)
    }

    /// Find a combinational cycle, if one exists. The returned path follows
    /// fanin edges and is closed: the first node is repeated at the end.
    ///
    /// Unlike [`Network::topo_order`], this walks fanin links only, so it
    /// reports cycles even when fanout bookkeeping is inconsistent.
    pub fn find_cycle(&self) -> Option<Vec<NodeId>> {
        // Iterative 3-color DFS: 0 = white, 1 = gray (on stack), 2 = black.
        let mut color = vec![0u8; self.nodes.len()];
        for start in self.node_ids() {
            if color[start.index()] != 0 {
                continue;
            }
            let mut stack: Vec<(NodeId, usize)> = vec![(start, 0)];
            color[start.index()] = 1;
            while let Some(&(id, next)) = stack.last() {
                let fanins = &self.nodes[id.index()].fanins;
                if next < fanins.len() {
                    stack.last_mut().expect("nonempty").1 += 1;
                    let f = fanins[next];
                    match self.nodes.get(f.index()) {
                        Some(n) if n.alive => {}
                        _ => continue, // dangling ref: not a cycle concern here
                    }
                    match color[f.index()] {
                        0 => {
                            color[f.index()] = 1;
                            stack.push((f, 0));
                        }
                        1 => {
                            let pos = stack
                                .iter()
                                .position(|&(x, _)| x == f)
                                .expect("gray node is on the stack");
                            let mut cycle: Vec<NodeId> =
                                stack[pos..].iter().map(|&(x, _)| x).collect();
                            // The stack runs consumer -> fanin; reverse so the
                            // path follows fanin -> consumer order.
                            cycle.reverse();
                            cycle.push(*cycle.first().expect("nonempty cycle"));
                            return Some(cycle);
                        }
                        _ => {}
                    }
                } else {
                    color[id.index()] = 2;
                    stack.pop();
                }
            }
        }
        None
    }

    /// Topological order over live nodes (inputs first). Fails on cycles.
    ///
    /// # Errors
    /// Returns [`NetworkError::Cycle`] with the full cycle path (node names
    /// in fanin order, closed) when the network is cyclic.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, NetworkError> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        let mut order = Vec::with_capacity(self.node_count());
        let mut queue = std::collections::VecDeque::new();
        for id in self.node_ids() {
            // Count unique fanins: a node may legitimately use the same
            // fanin at several SOP positions, but only one fanout edge
            // exists per (fanin, node) pair.
            let fanins = &self.node(id).fanins;
            let unique = fanins
                .iter()
                .enumerate()
                .filter(|(i, f)| !fanins[..*i].contains(f))
                .count();
            indeg[id.index()] = unique;
            if unique == 0 {
                queue.push_back(id);
            }
        }
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for &fo in &self.nodes[id.index()].fanouts {
                indeg[fo.index()] -= 1;
                if indeg[fo.index()] == 0 {
                    queue.push_back(fo);
                }
            }
        }
        if order.len() != self.node_count() {
            let path = self
                .find_cycle()
                .map(|cycle| {
                    cycle
                        .iter()
                        .map(|&id| self.nodes[id.index()].name.clone())
                        .collect()
                })
                .unwrap_or_default();
            return Err(NetworkError::Cycle(path));
        }
        Ok(order)
    }

    /// Evaluate the network on a primary-input assignment (in
    /// [`Network::inputs`] order). Returns values indexed by
    /// [`NodeId::index`] over the arena.
    ///
    /// # Panics
    /// Panics if `pi_values.len()` differs from the input count or the
    /// network is cyclic.
    pub fn eval(&self, pi_values: &[bool]) -> Vec<bool> {
        assert_eq!(
            pi_values.len(),
            self.inputs.len(),
            "PI value count mismatch"
        );
        let order = self.topo_order().expect("network must be acyclic");
        let mut values = vec![false; self.nodes.len()];
        for (i, &pi) in self.inputs.iter().enumerate() {
            values[pi.index()] = pi_values[i];
        }
        for id in order {
            let node = self.node(id);
            if let Some(sop) = node.sop() {
                let assignment: Vec<bool> = node.fanins.iter().map(|f| values[f.index()]).collect();
                values[id.index()] = sop.eval(&assignment);
            }
        }
        values
    }

    /// Evaluate only the primary outputs on a PI assignment.
    pub fn eval_outputs(&self, pi_values: &[bool]) -> Vec<bool> {
        let values = self.eval(pi_values);
        self.outputs
            .iter()
            .map(|&(_, o)| values[o.index()])
            .collect()
    }

    /// Bit-parallel evaluation of 64 PI assignments at once: bit `k` of
    /// `pi_words[i]` is the value of input `i` (in [`Network::inputs`]
    /// order) under assignment `k`. Returns per-node value words indexed by
    /// [`NodeId::index`] over the arena.
    ///
    /// This is the shared simulation kernel of the Monte-Carlo activity
    /// estimator and the `verify` equivalence checker — one network pass
    /// evaluates 64 vectors.
    ///
    /// # Panics
    /// Panics if `pi_words.len()` differs from the input count or the
    /// network is cyclic.
    pub fn eval_words(&self, pi_words: &[u64]) -> Vec<u64> {
        assert_eq!(pi_words.len(), self.inputs.len(), "PI word count mismatch");
        let order = self.topo_order().expect("network must be acyclic");
        let mut values = vec![0u64; self.nodes.len()];
        for (i, &pi) in self.inputs.iter().enumerate() {
            values[pi.index()] = pi_words[i];
        }
        let mut local = Vec::new();
        for id in order {
            let node = self.node(id);
            if let Some(sop) = node.sop() {
                local.clear();
                local.extend(node.fanins.iter().map(|f| values[f.index()]));
                values[id.index()] = sop.eval_words(&local);
            }
        }
        values
    }

    /// Bit-parallel evaluation of only the primary outputs (see
    /// [`Network::eval_words`]).
    pub fn eval_outputs_words(&self, pi_words: &[u64]) -> Vec<u64> {
        let values = self.eval_words(pi_words);
        self.outputs
            .iter()
            .map(|&(_, o)| values[o.index()])
            .collect()
    }

    /// Primary input names in declaration order.
    pub fn input_names(&self) -> Vec<&str> {
        self.inputs.iter().map(|&i| self.node(i).name()).collect()
    }

    /// Depth-first rank of every primary input: `rank[i]` is the position
    /// at which the `i`-th input (in [`Network::inputs`] order) is first
    /// reached by a depth-first walk from the outputs, outputs in declared
    /// order and fanins in order. Inputs that no output reaches follow, in
    /// declared order.
    ///
    /// This is the static variable order of every global BDD: inputs that
    /// meet in the same cone get neighbouring ranks, which keeps the BDDs
    /// of structured logic small.
    pub fn input_dfs_order(&self) -> Vec<usize> {
        let mut input_pos = vec![usize::MAX; self.nodes.len()];
        for (i, id) in self.inputs.iter().enumerate() {
            input_pos[id.index()] = i;
        }
        let mut rank = vec![usize::MAX; self.inputs.len()];
        let mut next = 0;
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = Vec::new();
        for &(_, root) in &self.outputs {
            stack.push(root);
            // Marking on pop and pushing fanins reversed visits nodes in
            // the order of the recursive preorder walk.
            while let Some(id) = stack.pop() {
                if std::mem::replace(&mut seen[id.index()], true) {
                    continue;
                }
                let pos = input_pos[id.index()];
                if pos != usize::MAX {
                    rank[pos] = next;
                    next += 1;
                }
                stack.extend(self.nodes[id.index()].fanins.iter().rev());
            }
        }
        for r in rank.iter_mut().filter(|r| **r == usize::MAX) {
            *r = next;
            next += 1;
        }
        rank
    }

    /// Structural sanity check: name map, fanin/fanout symmetry, widths,
    /// acyclicity, liveness of references.
    ///
    /// # Errors
    /// Returns the first violation found.
    pub fn check(&self) -> Result<(), NetworkError> {
        for id in self.node_ids() {
            let node = self.node(id);
            if self.by_name.get(node.name()) != Some(&id) {
                return Err(NetworkError::UnknownName(node.name().to_string()));
            }
            if let Some(sop) = node.sop() {
                if sop.width() != node.fanins.len() {
                    return Err(NetworkError::WidthMismatch {
                        node: node.name().to_string(),
                        width: sop.width(),
                        fanins: node.fanins.len(),
                    });
                }
            }
            for &f in node.fanins() {
                if !self.nodes[f.index()].alive {
                    return Err(NetworkError::UnknownName(format!(
                        "dead fanin of `{}`",
                        node.name()
                    )));
                }
                if !self.nodes[f.index()].fanouts.contains(&id) {
                    return Err(NetworkError::UnknownName(format!(
                        "missing fanout edge {} -> {}",
                        self.nodes[f.index()].name,
                        node.name()
                    )));
                }
            }
            for &fo in node.fanouts() {
                if !self.nodes[fo.index()].alive || !self.nodes[fo.index()].fanins.contains(&id) {
                    return Err(NetworkError::UnknownName(format!(
                        "stale fanout edge {} -> {}",
                        node.name(),
                        self.nodes[fo.index()].name
                    )));
                }
            }
        }
        for (name, o) in &self.outputs {
            if !self.nodes[o.index()].alive {
                return Err(NetworkError::UnknownName(format!("output `{name}`")));
            }
        }
        self.topo_order().map(|_| ())
    }

    /// Overwrite a logic node's fanins and SOP with **no** bookkeeping:
    /// no width check, no duplicate-pin canonicalization, no fanout-edge
    /// maintenance. Exists solely so tests (lint mutation tests in
    /// particular) can construct invalid networks that the safe API
    /// rejects. Never call this outside test code.
    #[doc(hidden)]
    pub fn corrupt_function_for_test(&mut self, id: NodeId, fanins: Vec<NodeId>, sop: Sop) {
        let node = &mut self.nodes[id.index()];
        node.func = NodeFunc::Logic(sop);
        node.fanins = fanins;
    }

    /// Overwrite a node's fanout list with no symmetry maintenance.
    /// Companion of [`Network::corrupt_function_for_test`]; test-only.
    #[doc(hidden)]
    pub fn corrupt_fanouts_for_test(&mut self, id: NodeId, fanouts: Vec<NodeId>) {
        self.nodes[id.index()].fanouts = fanouts;
    }
}

/// Canonicalize a (fanins, SOP) pair: deduplicate the fanin list and remap
/// the cover onto the unique positions. Merged positions intersect their
/// literals per [`Cube::remap`](crate::Cube::remap) — opposite phases make
/// the cube contradictory and it is dropped. The resulting cover is made
/// single-cube-containment minimal so merged duplicates don't linger.
fn canonicalize_function(fanins: Vec<NodeId>, sop: Sop) -> (Vec<NodeId>, Sop) {
    let mut unique: Vec<NodeId> = Vec::with_capacity(fanins.len());
    let mut perm: Vec<usize> = Vec::with_capacity(fanins.len());
    let mut has_dup = false;
    for f in &fanins {
        match unique.iter().position(|g| g == f) {
            Some(p) => {
                perm.push(p);
                has_dup = true;
            }
            None => {
                perm.push(unique.len());
                unique.push(*f);
            }
        }
    }
    if !has_dup {
        return (fanins, sop);
    }
    let mut s = sop.remap(&perm, unique.len());
    s.make_scc_minimal();
    (unique, s)
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Network `{}`: {} inputs, {} outputs, {} logic nodes, {} literals",
            self.name,
            self.inputs.len(),
            self.outputs.len(),
            self.logic_count(),
            self.literal_count()
        )?;
        for id in self.node_ids() {
            let n = self.node(id);
            if let Some(sop) = n.sop() {
                let fanins: Vec<&str> = n.fanins().iter().map(|&x| self.node(x).name()).collect();
                writeln!(f, "  {} = f({}) : {}", n.name(), fanins.join(", "), sop)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sop::Sop;

    fn and_or_net() -> (Network, NodeId, NodeId, NodeId, NodeId, NodeId) {
        // f = (a & b) | c
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let g = net
            .add_logic("g", vec![a, b], Sop::parse(2, &["11"]).unwrap())
            .unwrap();
        let f = net
            .add_logic("f", vec![g, c], Sop::parse(2, &["1-", "-1"]).unwrap())
            .unwrap();
        net.add_output("f", f);
        (net, a, b, c, g, f)
    }

    #[test]
    fn build_eval_check() {
        let (net, ..) = and_or_net();
        net.check().unwrap();
        assert_eq!(net.eval_outputs(&[true, true, false]), vec![true]);
        assert_eq!(net.eval_outputs(&[true, false, false]), vec![false]);
        assert_eq!(net.eval_outputs(&[false, false, true]), vec![true]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut net = Network::new("t");
        net.add_input("a").unwrap();
        assert!(matches!(
            net.add_input("a"),
            Err(NetworkError::DuplicateName(_))
        ));
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let err = net.add_logic("g", vec![a], Sop::parse(2, &["11"]).unwrap());
        assert!(matches!(err, Err(NetworkError::WidthMismatch { .. })));
    }

    #[test]
    fn topo_order_parents_first() {
        let (net, ..) = and_or_net();
        let order = net.topo_order().unwrap();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        for id in net.node_ids() {
            for &fi in net.node(id).fanins() {
                assert!(pos(fi) < pos(id));
            }
        }
    }

    #[test]
    fn substitute_rewires_and_stays_valid() {
        let (mut net, a, _b, c, g, f) = and_or_net();
        // Replace g by a: f becomes a | c.
        net.substitute(g, a);
        net.check().unwrap();
        assert_eq!(net.node(f).fanins(), &[a, c]);
        assert_eq!(net.eval_outputs(&[true, false, false]), vec![true]);
        assert_eq!(net.eval_outputs(&[false, false, false]), vec![false]);
        // g is now dangling.
        assert_eq!(net.sweep_dangling(), 1);
        net.check().unwrap();
    }

    #[test]
    fn substitute_merges_duplicate_fanins() {
        // f = g & c, then substitute g := c gives f = c.
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let c = net.add_input("c").unwrap();
        let g = net
            .add_logic("g", vec![a], Sop::parse(1, &["1"]).unwrap())
            .unwrap();
        let f = net
            .add_logic("f", vec![g, c], Sop::parse(2, &["11"]).unwrap())
            .unwrap();
        net.add_output("f", f);
        net.substitute(g, c);
        net.check().unwrap();
        assert_eq!(net.node(f).fanins(), &[c]);
        assert_eq!(net.eval_outputs(&[false, true]), vec![true]);
    }

    #[test]
    fn sweep_removes_chains() {
        let (mut net, _a, _b, _c, _g, f) = and_or_net();
        // Add a dangling chain.
        let x = net
            .add_logic("x", vec![f], Sop::parse(1, &["1"]).unwrap())
            .unwrap();
        let _y = net
            .add_logic("y", vec![x], Sop::parse(1, &["0"]).unwrap())
            .unwrap();
        assert_eq!(net.sweep_dangling(), 2);
        net.check().unwrap();
    }

    #[test]
    fn replace_function_updates_edges() {
        let (mut net, a, _b, c, g, _f) = and_or_net();
        net.replace_function(g, vec![c, a], Sop::parse(2, &["10"]).unwrap());
        net.check().unwrap();
        // g = c & !a
        assert_eq!(net.eval_outputs(&[false, false, true]), vec![true]);
    }

    #[test]
    fn word_eval_matches_scalar_eval() {
        let (net, ..) = and_or_net();
        // Pack all 8 assignments of (a, b, c) into one word per input.
        let mut pi_words = vec![0u64; 3];
        for bits in 0..8u64 {
            for (i, w) in pi_words.iter_mut().enumerate() {
                if bits >> i & 1 == 1 {
                    *w |= 1 << bits;
                }
            }
        }
        let words = net.eval_outputs_words(&pi_words);
        for bits in 0..8u64 {
            let pis: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let expect = net.eval_outputs(&pis);
            assert_eq!(words[0] >> bits & 1 == 1, expect[0], "at {pis:?}");
        }
    }

    #[test]
    fn fresh_names_unique() {
        let mut net = Network::new("t");
        net.add_input("n0").unwrap();
        let f1 = net.fresh_name("n");
        let f2 = net.fresh_name("n");
        assert_ne!(f1, "n0");
        assert_ne!(f1, f2);
    }

    #[test]
    fn add_logic_merges_duplicate_fanins() {
        // f(a, a) with cover "11" is just a buffer of a.
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let f = net
            .add_logic("f", vec![a, a], Sop::parse(2, &["11"]).unwrap())
            .unwrap();
        net.add_output("f", f);
        net.check().unwrap();
        assert_eq!(net.node(f).fanins(), &[a]);
        assert_eq!(net.node(f).sop().unwrap().width(), 1);
        assert_eq!(net.eval_outputs(&[true]), vec![true]);
        assert_eq!(net.eval_outputs(&[false]), vec![false]);
    }

    #[test]
    fn add_logic_drops_contradictory_merged_cube() {
        // f(a, a) with cover "10" is a·!a = 0: the cube must vanish.
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let f = net
            .add_logic("f", vec![a, a], Sop::parse(2, &["10"]).unwrap())
            .unwrap();
        net.add_output("f", f);
        net.check().unwrap();
        assert_eq!(net.node(f).fanins(), &[a]);
        assert!(net.node(f).sop().unwrap().is_zero());
        assert_eq!(net.eval_outputs(&[true]), vec![false]);
        assert_eq!(net.eval_outputs(&[false]), vec![false]);
    }

    #[test]
    fn replace_function_merges_duplicate_fanins() {
        let (mut net, a, _b, _c, g, _f) = and_or_net();
        // g(a, a) = a | a — canonicalizes to a width-1 buffer.
        net.replace_function(g, vec![a, a], Sop::parse(2, &["1-", "-1"]).unwrap());
        net.check().unwrap();
        assert_eq!(net.node(g).fanins(), &[a]);
        assert_eq!(net.node(g).sop().unwrap().width(), 1);
        assert_eq!(net.eval_outputs(&[true, false, false]), vec![true]);
        assert_eq!(net.eval_outputs(&[false, false, false]), vec![false]);
    }

    #[test]
    fn cycle_error_names_full_path() {
        // Build x -> y -> x via the raw test mutator (the safe API cannot
        // create cycles since fanins must already exist).
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let x = net
            .add_logic("x", vec![a], Sop::parse(1, &["1"]).unwrap())
            .unwrap();
        let y = net
            .add_logic("y", vec![x], Sop::parse(1, &["1"]).unwrap())
            .unwrap();
        net.add_output("y", y);
        net.corrupt_function_for_test(x, vec![y], Sop::parse(1, &["1"]).unwrap());
        // Keep fanout links symmetric so only the cycle is wrong.
        net.corrupt_fanouts_for_test(a, vec![]);
        net.corrupt_fanouts_for_test(y, vec![x]);
        let err = net.topo_order().unwrap_err();
        match &err {
            NetworkError::Cycle(path) => {
                assert_eq!(path.len(), 3, "closed 2-cycle path: {path:?}");
                assert_eq!(path.first(), path.last());
                assert!(path.contains(&"x".to_string()));
                assert!(path.contains(&"y".to_string()));
            }
            other => panic!("expected Cycle, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("->"), "message shows the path: {msg}");
        // find_cycle follows fanin edges consumer-by-consumer.
        let cycle = net.find_cycle().unwrap();
        assert_eq!(cycle.first(), cycle.last());
        assert_eq!(cycle.len(), 3);
    }

    #[test]
    fn try_node_handles_dead_and_out_of_range() {
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let x = net
            .add_logic("x", vec![a], Sop::parse(1, &["1"]).unwrap())
            .unwrap();
        assert!(net.try_node(x).is_some());
        net.remove_node(x);
        assert!(net.try_node(x).is_none());
        assert!(net.try_node(NodeId(999)).is_none());
    }

    #[test]
    fn input_dfs_order_ranks_by_first_visit_from_the_outputs() {
        // g = d·c, f = g + b; `a` reaches no output.
        let mut net = Network::new("t");
        let [_a, b, c, d] = ["a", "b", "c", "d"].map(|n| net.add_input(n).unwrap());
        let g = net
            .add_logic("g", vec![d, c], Sop::parse(2, &["11"]).unwrap())
            .unwrap();
        let f = net
            .add_logic("f", vec![g, b], Sop::parse(2, &["1-", "-1"]).unwrap())
            .unwrap();
        net.add_output("f", f);
        net.add_output("h", c);
        assert_eq!(net.input_dfs_order(), vec![3, 2, 1, 0]);
    }
}
