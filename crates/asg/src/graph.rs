//! The view Annotated Schema Graph `G_V` (§3.2, Fig. 8).
//!
//! Nodes come in four kinds — root `vR`, internal `vC`, tag `vS`, leaf `vL`
//! — each carrying the annotations the paper's Node Annotation Table lists:
//! leaves carry `{name, type, property, check}` (the merged relational
//! CHECK plus view-predicate domain), root/internal nodes carry their
//! Update Context Binding and Update Point Binding, and every incoming edge
//! carries a cardinality from `{1, ?, +, *}` plus its correlation-predicate
//! conditions. STAR's `(UPoint | UContext)` marks are written back into the
//! same nodes by the marking procedure.

use ufilter_rdb::sat::Domain;
use ufilter_rdb::{ColRef, DataType};

/// Node index within a [`ViewAsg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AsgNodeId(pub usize);

/// Node kind (§3.2, extended).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsgNodeKind {
    /// `vR` — the root tag enclosing the FLWR expressions.
    Root,
    /// `vC` — a complex view element.
    Internal,
    /// `vS` — a simple element / attribute wrapper.
    Tag,
    /// `vL` — an atomic value.
    Leaf,
    /// `vA` — an aggregate value (`count`/`max`/`min`/`avg`/`sum` over a
    /// base-table scan). Not part of the paper's four kinds: aggregate
    /// output is *non-injective* (many base rows map to one view value), so
    /// every `vA` node carries the [`AsgNode::non_injective`] mark and
    /// updates whose footprint reaches it classify as untranslatable.
    Aggregate,
}

/// Edge cardinality (`1`, `?`, `+`, `*` — §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Card {
    /// Exactly one (`1`).
    One,
    /// Zero or one (`?`).
    Opt,
    /// One or more (`+`).
    Plus,
    /// Zero or more (`*`).
    Many,
}

impl Card {
    /// Closure computation flattens `+` into `*` and drops `1`/`?` (§5.1.2).
    pub fn is_starred(self) -> bool {
        matches!(self, Card::Plus | Card::Many)
    }
}

impl std::fmt::Display for Card {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Card::One => "1",
            Card::Opt => "?",
            Card::Plus => "+",
            Card::Many => "*",
        };
        f.write_str(s)
    }
}

/// A correlation predicate on an edge, qualified by relation names
/// (`book.pubid = publisher.pubid`).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinCond {
    /// Left column of the equality.
    pub left: ColRef,
    /// Right column of the equality.
    pub right: ColRef,
}

impl std::fmt::Display for JoinCond {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} = {}", self.left, self.right)
    }
}

/// The base-relation scan an aggregate node (or aggregate predicate)
/// ranges over: `func(document(…)/<table>/row[/<column>])`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggSource {
    /// Aggregate function name (lower-case: `count`, `max`, `min`, `avg`,
    /// `sum`).
    pub func: String,
    /// The aggregated base relation.
    pub table: String,
    /// The aggregated column (`None` = whole rows, `count` only).
    pub column: Option<String>,
}

impl std::fmt::Display for AggSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.column {
            Some(c) => write!(f, "{}({}.{c})", self.func, self.table),
            None => write!(f, "{}({})", self.func, self.table),
        }
    }
}

/// Leaf annotations (`name`, `type`, `property`, `check`).
#[derive(Debug, Clone)]
pub struct LeafInfo {
    /// The corresponding relational attribute `R.a`.
    pub name: ColRef,
    /// Domain type of the attribute.
    pub ty: DataType,
    /// `{Not Null}` property — set when the relational attribute is NOT
    /// NULL or a key member (the paper marks `publisher.pubid` this way).
    pub not_null: bool,
    /// Merged value domain from relational CHECK constraints and the view
    /// query's non-correlation predicates (`{0.00 < value < 50.00}`).
    pub check: Domain,
}

/// `UContext` half of the STAR mark (§5.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UContext {
    /// Deleting an instance of this node causes no view side effect.
    pub safe_delete: bool,
    /// Inserting an instance of this node causes no view side effect.
    pub safe_insert: bool,
}

impl std::fmt::Display for UContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}∧{}",
            if self.safe_delete { "s-d" } else { "u-d" },
            if self.safe_insert { "s-i" } else { "u-i" }
        )
    }
}

/// `UPoint` half of the STAR mark (§5.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UPoint {
    /// The node's sources are not shared elsewhere in the view: updates
    /// through it need no minimization/consistency conditions.
    Clean,
    /// Some source relation also surfaces elsewhere; Observations 1–2
    /// attach conditions to updates through this node.
    Dirty,
}

impl std::fmt::Display for UPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            UPoint::Clean => "clean",
            UPoint::Dirty => "dirty",
        })
    }
}

/// A non-correlation predicate recorded on the internal node whose FLWR
/// declared it. These feed Step-1 overlap checks and Step-3 probe queries —
/// including predicates on *unprojected* columns (`book.year > 1990`),
/// which have no leaf to carry them.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalPred {
    /// The constrained column.
    pub column: ColRef,
    /// Comparison operator.
    pub op: ufilter_rdb::CmpOp,
    /// Literal the column is compared to.
    pub value: ufilter_rdb::Value,
}

impl std::fmt::Display for LocalPred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {}", self.column, self.op, self.value)
    }
}

/// One node of the view ASG with its incoming-edge annotations.
#[derive(Debug, Clone)]
pub struct AsgNode {
    /// This node's index in the owning graph.
    pub id: AsgNodeId,
    /// Root / internal / tag / leaf.
    pub kind: AsgNodeKind,
    /// Element tag; `"text()"` for leaves.
    pub tag: String,
    /// Parent node; `None` for the root.
    pub parent: Option<AsgNodeId>,
    /// Child nodes in document order.
    pub children: Vec<AsgNodeId>,

    // ---- incoming edge annotation --------------------------------------
    /// Cardinality of the incoming edge.
    pub card: Card,
    /// Correlation predicates on the incoming edge.
    pub conditions: Vec<JoinCond>,

    // ---- node annotations ------------------------------------------------
    /// Leaf annotations (`vL` only).
    pub leaf: Option<LeafInfo>,
    /// `UCBinding(v)` — relations influencing the existence of this node
    /// (root/internal only; empty for the root).
    pub ucbinding: Vec<String>,
    /// `UPBinding(v)` — relations referred to in constructing the subtree.
    pub upbinding: Vec<String>,
    /// Variable → relation bindings introduced by this node's FLWR.
    pub bindings: Vec<(String, String)>,
    /// Non-correlation predicates of this node's FLWR.
    pub local_preds: Vec<LocalPred>,

    // ---- aggregate / Distinct extension ----------------------------------
    /// The **non-injective output** mark: this node's instances do not map
    /// one-to-one onto base rows — it is (or lies inside) a `Distinct()`
    /// FLWR region or an aggregate value. Updates whose footprint reaches a
    /// marked region classify as untranslatable at check time.
    pub non_injective: bool,
    /// For [`AsgNodeKind::Aggregate`] nodes: the aggregated scan.
    pub agg: Option<AggSource>,
    /// Aggregate scans referenced by this node's FLWR *predicates*
    /// (`WHERE $b/bid = max(…)`): view membership of the region is gated by
    /// them, so updates into the region are conservatively untranslatable.
    pub agg_deps: Vec<AggSource>,
    /// Path-side columns compared by this node's aggregate gate predicates
    /// (`$b/bid = max(…)` records `book.bid`). The independence analysis
    /// treats them as part of the region's read-set: a write to a gate
    /// column could flip view membership, so it can never be independent.
    pub gate_cols: Vec<ColRef>,

    // ---- STAR marks (written by the marking procedure) -------------------
    /// `UContext` mark (root/internal nodes, after marking).
    pub ucontext: Option<UContext>,
    /// `UPoint` mark (root/internal nodes, after marking).
    pub upoint: Option<UPoint>,
}

impl AsgNode {
    fn new(id: AsgNodeId, kind: AsgNodeKind, tag: String) -> AsgNode {
        AsgNode {
            id,
            kind,
            tag,
            parent: None,
            children: Vec::new(),
            card: Card::One,
            conditions: Vec::new(),
            leaf: None,
            ucbinding: Vec::new(),
            upbinding: Vec::new(),
            bindings: Vec::new(),
            local_preds: Vec::new(),
            non_injective: false,
            agg: None,
            agg_deps: Vec::new(),
            gate_cols: Vec::new(),
            ucontext: None,
            upoint: None,
        }
    }
}

/// The view ASG.
#[derive(Debug, Clone)]
pub struct ViewAsg {
    nodes: Vec<AsgNode>,
    root: AsgNodeId,
    /// `rel(DEF_V)` in first-appearance order.
    pub relations: Vec<String>,
    /// Compile-time summary: some node carries the non-injective mark or an
    /// aggregate gate. Set once by `build_view_asg`; lets the per-update
    /// classification short-circuit in O(1) instead of scanning the graph.
    non_injective_any: bool,
}

impl ViewAsg {
    /// An ASG holding just a root node tagged `root_tag`.
    pub fn new(root_tag: impl Into<String>) -> ViewAsg {
        let mut asg = ViewAsg {
            nodes: Vec::new(),
            root: AsgNodeId(0),
            relations: Vec::new(),
            non_injective_any: false,
        };
        let root = asg.push(AsgNodeKind::Root, root_tag.into());
        asg.root = root;
        asg
    }

    /// Whether any node carries the non-injective mark or an aggregate gate
    /// (aggregate nodes are always marked, so this also implies
    /// [`aggregate_sources`](Self::aggregate_sources) may be non-empty).
    /// Precomputed at build time — O(1) at check time.
    pub fn has_non_injective(&self) -> bool {
        self.non_injective_any
    }

    /// Recompute the [`has_non_injective`](Self::has_non_injective) summary
    /// from the current node marks (the builder calls this once after all
    /// marks are written).
    pub(crate) fn refresh_non_injective_summary(&mut self) {
        self.non_injective_any =
            self.nodes.iter().any(|n| n.non_injective || !n.agg_deps.is_empty());
    }

    pub(crate) fn push(&mut self, kind: AsgNodeKind, tag: String) -> AsgNodeId {
        let id = AsgNodeId(self.nodes.len());
        self.nodes.push(AsgNode::new(id, kind, tag));
        id
    }

    pub(crate) fn attach(&mut self, parent: AsgNodeId, child: AsgNodeId) {
        self.nodes[child.0].parent = Some(parent);
        self.nodes[parent.0].children.push(child);
    }

    /// The root node id.
    pub fn root(&self) -> AsgNodeId {
        self.root
    }

    /// Immutable node access.
    pub fn node(&self, id: AsgNodeId) -> &AsgNode {
        &self.nodes[id.0]
    }

    /// Mutable node access — used by the STAR marking procedure, which
    /// writes `(UPoint|UContext)` back into the graph.
    pub fn node_mut(&mut self, id: AsgNodeId) -> &mut AsgNode {
        &mut self.nodes[id.0]
    }

    /// Number of nodes in the graph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterate over all nodes in id order.
    pub fn iter(&self) -> impl Iterator<Item = &AsgNode> {
        self.nodes.iter()
    }

    /// All internal (`vC`) nodes, the subjects of STAR (§5).
    pub fn internal_nodes(&self) -> impl Iterator<Item = &AsgNode> {
        self.nodes.iter().filter(|n| n.kind == AsgNodeKind::Internal)
    }

    /// `CR(v)` — *Current Relations*: `UCBinding(v) − UCBinding(parent)`
    /// where the parent is the nearest root/internal ancestor (§5.1.1).
    pub fn cr(&self, id: AsgNodeId) -> Vec<String> {
        let node = self.node(id);
        let parent_ucb =
            self.internal_ancestor(id).map(|p| self.node(p).ucbinding.clone()).unwrap_or_default();
        node.ucbinding
            .iter()
            .filter(|r| !parent_ucb.iter().any(|x| x.eq_ignore_ascii_case(r)))
            .cloned()
            .collect()
    }

    /// Nearest ancestor that is a root or internal node.
    pub fn internal_ancestor(&self, id: AsgNodeId) -> Option<AsgNodeId> {
        let mut cur = self.node(id).parent;
        while let Some(p) = cur {
            match self.node(p).kind {
                AsgNodeKind::Root | AsgNodeKind::Internal => return Some(p),
                _ => cur = self.node(p).parent,
            }
        }
        None
    }

    /// Whether `node` lies in the subtree rooted at `of` (inclusive).
    pub fn is_descendant(&self, node: AsgNodeId, of: AsgNodeId) -> bool {
        let mut cur = Some(node);
        while let Some(c) = cur {
            if c == of {
                return true;
            }
            cur = self.node(c).parent;
        }
        false
    }

    /// Internal nodes that are neither `id`, nor in its subtree, nor on its
    /// ancestor path — the `v'_C` candidates of Rules 2 and 3.
    pub fn non_descendant_internals(&self, id: AsgNodeId) -> Vec<AsgNodeId> {
        self.internal_nodes()
            .map(|n| n.id)
            .filter(|&other| {
                other != id && !self.is_descendant(other, id) && !self.is_descendant(id, other)
            })
            .collect()
    }

    /// All node ids in the subtree rooted at `id` (inclusive, preorder).
    pub fn subtree(&self, id: AsgNodeId) -> Vec<AsgNodeId> {
        let mut out = vec![id];
        let mut i = 0;
        while i < out.len() {
            out.extend(self.node(out[i]).children.iter().copied());
            i += 1;
        }
        out
    }

    /// Resolve a tag path from the root (`["book", "publisher"]` → `vC2`).
    /// Returns every match (tags can repeat at a level).
    pub fn resolve_path(&self, steps: &[&str]) -> Vec<AsgNodeId> {
        let mut cur = vec![self.root];
        for step in steps {
            let mut next = Vec::new();
            for n in cur {
                for c in &self.node(n).children {
                    let child = self.node(*c);
                    if child.tag.eq_ignore_ascii_case(step)
                        || (*step == "text()" && child.kind == AsgNodeKind::Leaf)
                    {
                        next.push(*c);
                    }
                }
            }
            cur = next;
        }
        cur
    }

    /// The relation bound by the variable that constructs this node's
    /// subtree leaf for `attr`, used by update translation.
    pub fn leaf_under(&self, id: AsgNodeId, attr: &str) -> Option<&LeafInfo> {
        self.subtree(id).into_iter().find_map(|n| {
            let node = self.node(n);
            match (&node.leaf, node.parent) {
                (Some(info), Some(p))
                    if self.node(p).tag.eq_ignore_ascii_case(attr)
                        || info.name.column.eq_ignore_ascii_case(attr) =>
                {
                    Some(info)
                }
                _ => None,
            }
        })
    }

    /// Every aggregate scan the view references anywhere: `vA` nodes plus
    /// the aggregate predicates recorded as [`AsgNode::agg_deps`], in node
    /// order (duplicates removed).
    pub fn aggregate_sources(&self) -> Vec<AggSource> {
        let mut out: Vec<AggSource> = Vec::new();
        for n in &self.nodes {
            for a in n.agg.iter().chain(n.agg_deps.iter()) {
                if !out.contains(a) {
                    out.push(a.clone());
                }
            }
        }
        out
    }

    /// Whether `id` lies in a non-injective region: the node itself, an
    /// ancestor, or any node of its subtree carries the mark (an update on
    /// the node necessarily touches its whole subtree, and one inside a
    /// marked region inherits the region's deduplication).
    pub fn in_non_injective_region(&self, id: AsgNodeId) -> bool {
        let mut cur = Some(id);
        while let Some(c) = cur {
            if self.node(c).non_injective {
                return true;
            }
            cur = self.node(c).parent;
        }
        self.subtree(id).into_iter().any(|n| self.node(n).non_injective)
    }

    /// Every path-side column compared by an aggregate gate predicate
    /// anywhere in the view, in node order (duplicates removed). Part of
    /// the view's read-set for the independence analysis.
    pub fn gate_columns(&self) -> Vec<ColRef> {
        let mut out: Vec<ColRef> = Vec::new();
        for n in &self.nodes {
            for c in &n.gate_cols {
                if !out.contains(c) {
                    out.push(c.clone());
                }
            }
        }
        out
    }

    /// The aggregate predicates gating view membership anywhere on the
    /// root→`id` path (each paired with the tag of the node that declared
    /// it).
    pub fn path_agg_deps(&self, id: AsgNodeId) -> Vec<(String, AggSource)> {
        let mut out = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            let n = self.node(c);
            for a in &n.agg_deps {
                out.push((n.tag.clone(), a.clone()));
            }
            cur = n.parent;
        }
        out.reverse();
        out
    }

    /// Pretty-print the annotation tables, in the style of Fig. 8.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for n in &self.nodes {
            let kind = match n.kind {
                AsgNodeKind::Root => "vR",
                AsgNodeKind::Internal => "vC",
                AsgNodeKind::Tag => "vS",
                AsgNodeKind::Leaf => "vL",
                AsgNodeKind::Aggregate => "vA",
            };
            out.push_str(&format!("{kind}{}: name={}", n.id.0, n.tag));
            if let Some(leaf) = &n.leaf {
                out.push_str(&format!(" attr={} type={}", leaf.name, leaf.ty));
                if leaf.not_null {
                    out.push_str(" NOT-NULL");
                }
            }
            if let Some(agg) = &n.agg {
                out.push_str(&format!(" agg={agg}"));
            }
            if n.non_injective {
                out.push_str(" NON-INJECTIVE");
            }
            for a in &n.agg_deps {
                out.push_str(&format!(" [gate {a}]"));
            }
            for c in &n.gate_cols {
                out.push_str(&format!(" [gate-col {c}]"));
            }
            if matches!(n.kind, AsgNodeKind::Root | AsgNodeKind::Internal) {
                out.push_str(&format!(
                    " UCB={{{}}} UPB={{{}}}",
                    n.ucbinding.join(","),
                    n.upbinding.join(",")
                ));
            }
            if let (Some(up), Some(uc)) = (&n.upoint, &n.ucontext) {
                out.push_str(&format!(" ({up}|{uc})"));
            }
            out.push_str(&format!(" card={}", n.card));
            for c in &n.conditions {
                out.push_str(&format!(" [{c}]"));
            }
            out.push('\n');
        }
        out
    }
}
