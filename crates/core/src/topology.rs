//! A small textual DSL for describing HBSP^k machines.
//!
//! Testbeds are easier to version and share as text than as builder
//! code. The grammar:
//!
//! ```text
//! machine  := header* node
//! header   := ("g" | "k") "=" NUMBER
//! node     := "proc" IDENT attrs?
//!           | "cluster" IDENT attrs? "{" node+ "}"
//! attrs    := "(" pair ("," pair)* ")"
//! pair     := ("r" | "speed" | "L" | "c") "=" NUMBER
//! ```
//!
//! The optional `k = N` header declares the machine class; a tree of
//! another height is a [`ModelError::HeightMismatch`]
//! ([`ParsedMachine::defects`]), which [`parse`] refuses and `hbsp_check`
//! reports.
//!
//! `#` starts a comment to end of line. Example — the paper's Figure 1
//! machine:
//!
//! ```text
//! g = 1.0
//! cluster campus (L=500) {
//!     cluster smp (L=50) {
//!         proc smp0 (r=1, speed=1)
//!         proc smp1 (r=1.5, speed=0.8)
//!     }
//!     proc sgi (r=1.5, speed=0.9)
//!     cluster lan (L=100) {
//!         proc ws0 (r=2, speed=0.5)
//!         proc ws1 (r=3, speed=0.4)
//!     }
//! }
//! ```
//!
//! [`parse`] builds a validated [`MachineTree`]; [`to_dsl`] renders one
//! back to text (round-trip stable up to whitespace).

use crate::builder::TreeBuilder;
use crate::error::ModelError;
use crate::ids::NodeIdx;
use crate::params::{NodeParams, DEFAULT_G};
use crate::tree::{MachineTree, NodeKind};
use std::fmt::Write as _;

/// How deep cluster bodies may nest. The parser recurses once per
/// level, so the bound keeps a hostile file (a million `cluster c {`
/// lines, say) from overflowing the stack; no real hierarchy comes near
/// it.
const MAX_NESTING: usize = 128;

/// Parse a machine description into a validated tree: the first of
/// [`ParsedMachine::defects`], if any, is the error. See the module docs
/// for the grammar.
pub fn parse(input: &str) -> Result<MachineTree, ModelError> {
    let parsed = parse_unvalidated(input)?;
    match parsed.defects().into_iter().next() {
        Some(defect) => Err(defect),
        None => Ok(parsed.tree),
    }
}

/// The result of [`parse_unvalidated`]: a structurally complete but
/// invariant-unchecked machine, plus the source information a linter
/// needs for exhaustive, span-accurate diagnostics.
#[derive(Debug, Clone)]
pub struct ParsedMachine {
    /// The machine tree. Levels, coordinates, ranks, and
    /// representatives are derived, but `validate()` has *not* run.
    pub tree: MachineTree,
    /// The `k = N` header, if present.
    pub declared_k: Option<crate::ids::Level>,
    /// 1-based `(line, column)` of each node's `proc`/`cluster`
    /// keyword, indexed by node arena order.
    pub spans: Vec<(u32, u32)>,
}

impl ParsedMachine {
    /// Every defect of the machine the file describes: the tree's
    /// ([`MachineTree::defects`]), then a declared `k` that is not the
    /// tree's height.
    pub fn defects(&self) -> Vec<ModelError> {
        let mut out = self.tree.defects();
        let actual = self.tree.height();
        if let Some(declared) = self.declared_k.filter(|&k| k != actual) {
            out.push(ModelError::HeightMismatch { declared, actual });
        }
        out
    }
}

/// Parse a machine description without validating model invariants.
/// Only syntax errors are reported; broken parameters (bad `r`, `c`
/// sums, …) survive into the returned tree so a linter can report all
/// of them at once.
pub fn parse_unvalidated(input: &str) -> Result<ParsedMachine, ModelError> {
    Parser::new(input).machine()
}

/// Render a machine back to DSL text.
pub fn to_dsl(tree: &MachineTree) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "g = {}", fmt_num(tree.g()));
    let _ = writeln!(out, "k = {}", tree.height());
    write_node(tree, tree.root(), 0, &mut out);
    out
}

fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn write_node(tree: &MachineTree, idx: NodeIdx, depth: usize, out: &mut String) {
    let node = tree.node(idx);
    let pad = "    ".repeat(depth);
    let p = node.params();
    match node.kind() {
        NodeKind::Proc => {
            let _ = write!(
                out,
                "{pad}proc {} (r={}, speed={}",
                node.name(),
                fmt_num(p.r),
                fmt_num(p.speed)
            );
            if let Some(c) = p.c {
                let _ = write!(out, ", c={}", fmt_num(c));
            }
            let _ = writeln!(out, ")");
        }
        NodeKind::Cluster => {
            let _ = writeln!(
                out,
                "{pad}cluster {} (L={}) {{",
                node.name(),
                fmt_num(p.l_sync)
            );
            for &c in node.children() {
                write_node(tree, c, depth + 1, out);
            }
            let _ = writeln!(out, "{pad}}}");
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(f64),
    LBrace,
    RBrace,
    LParen,
    RParen,
    Comma,
    Eq,
    Eof,
}

struct Parser<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    /// Cluster bodies open around the node being parsed.
    depth: usize,
    line: u32,
    col: u32,
    /// Position of the most recently produced token, for error messages.
    tok_line: u32,
    tok_col: u32,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            text: src,
            src: src.as_bytes(),
            pos: 0,
            depth: 0,
            line: 1,
            col: 1,
            tok_line: 1,
            tok_col: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> ModelError {
        ModelError::Parse {
            line: self.tok_line,
            col: self.tok_col,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        loop {
            match self.src.get(self.pos) {
                Some(b' ' | b'\t' | b'\r' | b'\n') => {
                    self.bump();
                }
                Some(b'#') => {
                    while let Some(b) = self.bump() {
                        if b == b'\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    fn next_tok(&mut self) -> Result<Tok, ModelError> {
        self.skip_ws();
        self.tok_line = self.line;
        self.tok_col = self.col;
        let Some(&b) = self.src.get(self.pos) else {
            return Ok(Tok::Eof);
        };
        match b {
            b'{' => {
                self.bump();
                Ok(Tok::LBrace)
            }
            b'}' => {
                self.bump();
                Ok(Tok::RBrace)
            }
            b'(' => {
                self.bump();
                Ok(Tok::LParen)
            }
            b')' => {
                self.bump();
                Ok(Tok::RParen)
            }
            b',' => {
                self.bump();
                Ok(Tok::Comma)
            }
            b'=' => {
                self.bump();
                Ok(Tok::Eq)
            }
            b'0'..=b'9' | b'.' | b'-' | b'+' => {
                let start = self.pos;
                while matches!(
                    self.src.get(self.pos),
                    Some(b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E')
                ) {
                    self.bump();
                }
                // ASCII bytes only: both ends are char boundaries.
                let s = &self.text[start..self.pos];
                s.parse::<f64>()
                    .map(Tok::Number)
                    .map_err(|_| self.err(format!("invalid number `{s}`")))
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let start = self.pos;
                while matches!(
                    self.src.get(self.pos),
                    Some(b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_' | b'-')
                ) {
                    self.bump();
                }
                Ok(Tok::Ident(self.text[start..self.pos].to_string()))
            }
            other => Err(self.err(format!("unexpected character `{}`", other as char))),
        }
    }

    fn peek_tok(&mut self) -> Result<Tok, ModelError> {
        let save = (self.pos, self.line, self.col);
        let t = self.next_tok();
        (self.pos, self.line, self.col) = save;
        t
    }

    fn expect(&mut self, want: Tok, what: &str) -> Result<(), ModelError> {
        let got = self.next_tok()?;
        if got == want {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {got:?}")))
        }
    }

    fn machine(&mut self) -> Result<ParsedMachine, ModelError> {
        // Optional leading `g = NUMBER` / `k = NUMBER` headers, in any
        // order, each at most once.
        let mut g = None;
        let mut declared_k = None;
        while let Tok::Ident(id) = self.peek_tok()? {
            if id != "g" && id != "k" {
                break;
            }
            self.next_tok()?;
            self.expect(Tok::Eq, &format!("`=` after `{id}`"))?;
            let v = match self.next_tok()? {
                Tok::Number(v) => v,
                t => return Err(self.err(format!("expected number for {id}, found {t:?}"))),
            };
            let slot: &mut Option<f64> = if id == "g" { &mut g } else { &mut declared_k };
            if slot.replace(v).is_some() {
                return Err(self.err(format!("duplicate `{id}` header")));
            }
        }
        let declared_k = match declared_k {
            None => None,
            Some(v) if v >= 0.0 && v.fract() == 0.0 && v <= u32::MAX as f64 => {
                Some(v as crate::ids::Level)
            }
            Some(v) => return Err(self.err(format!("k must be a non-negative integer, got {v}"))),
        };
        let mut builder = TreeBuilder::new(g.unwrap_or(DEFAULT_G));
        let mut spans = Vec::new();
        self.node(&mut builder, None, &mut spans)?;
        match self.next_tok()? {
            Tok::Eof => {}
            t => return Err(self.err(format!("trailing input after machine: {t:?}"))),
        }
        Ok(ParsedMachine {
            tree: builder.build_unvalidated()?,
            declared_k,
            spans,
        })
    }

    fn node(
        &mut self,
        b: &mut TreeBuilder,
        parent: Option<NodeIdx>,
        spans: &mut Vec<(u32, u32)>,
    ) -> Result<NodeIdx, ModelError> {
        let kw = match self.next_tok()? {
            Tok::Ident(k) => k,
            t => return Err(self.err(format!("expected `proc` or `cluster`, found {t:?}"))),
        };
        // Nodes enter the builder's arena in parse order, so pushing
        // here keeps `spans` indexed by arena index.
        let span = (self.tok_line, self.tok_col);
        let name = match self.next_tok()? {
            Tok::Ident(n) => n,
            t => return Err(self.err(format!("expected machine name, found {t:?}"))),
        };
        let attrs = self.attrs()?;
        match kw.as_str() {
            "proc" => {
                let mut params = NodeParams::fastest();
                for (k, v) in &attrs {
                    match k.as_str() {
                        "r" => params.r = *v,
                        "speed" => params.speed = *v,
                        "c" => params.c = Some(*v),
                        "L" => return Err(self.err(
                            "`L` is a cluster attribute; processors have no subtree to synchronize",
                        )),
                        other => return Err(self.err(format!("unknown attribute `{other}`"))),
                    }
                }
                let idx = match parent {
                    Some(p) => b.child_proc(p, name, params),
                    None => b.proc_root(name, params),
                };
                spans.push(span);
                Ok(idx)
            }
            "cluster" => {
                let mut params = NodeParams::cluster(0.0);
                for (k, v) in &attrs {
                    match k.as_str() {
                        "L" => params.l_sync = *v,
                        "c" => params.c = Some(*v),
                        "r" | "speed" => {
                            return Err(self.err(format!(
                                "`{k}` on a cluster is derived from its fastest member; set it on processors"
                            )))
                        }
                        other => return Err(self.err(format!("unknown attribute `{other}`"))),
                    }
                }
                let idx = match parent {
                    Some(p) => b.child_cluster(p, name, params),
                    None => b.cluster(name, params),
                };
                spans.push(span);
                self.expect(Tok::LBrace, "`{` opening cluster body")?;
                if self.depth == MAX_NESTING {
                    return Err(self.err(format!("clusters nested deeper than {MAX_NESTING}")));
                }
                self.depth += 1;
                loop {
                    match self.peek_tok()? {
                        Tok::RBrace => {
                            self.next_tok()?;
                            break;
                        }
                        Tok::Eof => return Err(self.err("unterminated cluster body")),
                        _ => {
                            self.node(b, Some(idx), spans)?;
                        }
                    }
                }
                self.depth -= 1;
                Ok(idx)
            }
            other => Err(self.err(format!("expected `proc` or `cluster`, found `{other}`"))),
        }
    }

    fn attrs(&mut self) -> Result<Vec<(String, f64)>, ModelError> {
        let mut out = Vec::new();
        if self.peek_tok()? != Tok::LParen {
            return Ok(out);
        }
        self.next_tok()?; // consume '('
        loop {
            let key = match self.next_tok()? {
                Tok::Ident(k) => k,
                Tok::RParen if out.is_empty() => return Ok(out),
                t => return Err(self.err(format!("expected attribute name, found {t:?}"))),
            };
            self.expect(Tok::Eq, "`=` in attribute")?;
            let val = match self.next_tok()? {
                Tok::Number(v) => v,
                t => return Err(self.err(format!("expected number, found {t:?}"))),
            };
            out.push((key, val));
            match self.next_tok()? {
                Tok::Comma => continue,
                Tok::RParen => return Ok(out),
                t => return Err(self.err(format!("expected `,` or `)`, found {t:?}"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::MachineId;

    const FIGURE1: &str = r#"
# The paper's Figure 1 machine.
g = 1.0
cluster campus (L=500) {
    cluster smp (L=50) {
        proc smp0 (r=1, speed=1)
        proc smp1 (r=1.5, speed=0.8)
        proc smp2 (r=1.5, speed=0.8)
        proc smp3 (r=2, speed=0.7)
    }
    proc sgi (r=1.5, speed=0.9)
    cluster lan (L=100) {
        proc ws0 (r=2, speed=0.5)
        proc ws1 (r=3, speed=0.4)
        proc ws2 (r=3, speed=0.4)
        proc ws3 (r=4, speed=0.3)
        proc ws4 (r=4, speed=0.3)
    }
}
"#;

    #[test]
    fn parses_figure1() {
        let t = parse(FIGURE1).unwrap();
        assert_eq!(t.height(), 2);
        assert_eq!(t.num_procs(), 10);
        assert_eq!(t.machines_on_level(1).unwrap(), 3);
        let sgi = t.resolve(MachineId::new(1, 1)).unwrap();
        assert_eq!(t.node(sgi).name(), "sgi");
        assert_eq!(t.node(sgi).params().r, 1.5);
    }

    #[test]
    fn round_trip_preserves_structure() {
        let t = parse(FIGURE1).unwrap();
        let text = to_dsl(&t);
        let t2 = parse(&text).unwrap();
        assert_eq!(t.height(), t2.height());
        assert_eq!(t.num_procs(), t2.num_procs());
        for (a, b) in t.nodes().zip(t2.nodes()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.machine_id(), b.machine_id());
            assert_eq!(a.params().r, b.params().r);
            assert_eq!(a.params().l_sync, b.params().l_sync);
            assert_eq!(a.params().speed, b.params().speed);
        }
    }

    #[test]
    fn default_g_when_omitted() {
        let t = parse("proc solo (r=1, speed=1)").unwrap();
        assert_eq!(t.g(), DEFAULT_G);
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn rejects_l_on_proc() {
        let err = parse("proc solo (L=5)").unwrap_err();
        assert!(matches!(err, ModelError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("cluster attribute"));
    }

    #[test]
    fn rejects_r_on_cluster() {
        let err = parse("cluster c (r=2) { proc p (r=1, speed=1) }").unwrap_err();
        assert!(err.to_string().contains("fastest member"), "{err}");
    }

    #[test]
    fn reports_position() {
        let err = parse("cluster c (L=1) {\n  proc p (r=1, speed=1)\n").unwrap_err();
        match err {
            ModelError::Parse { line, .. } => assert_eq!(line, 3, "unterminated body at EOF"),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let err = parse("proc p (r=1, speed=1) proc q").unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn rejects_unknown_attribute() {
        let err = parse("proc p (bogus=1)").unwrap_err();
        assert!(err.to_string().contains("unknown attribute"), "{err}");
    }

    #[test]
    fn empty_attr_list_allowed() {
        let t = parse("cluster c (L=0) { proc p () proc q (r=2, speed=0.5) }");
        // p gets default fastest params.
        let t = t.unwrap();
        assert_eq!(t.num_procs(), 2);
    }

    #[test]
    fn model_invariants_still_checked() {
        // Parses fine but fails validation: no r=1 machine.
        let err = parse("cluster c (L=0) { proc p (r=2, speed=1) }").unwrap_err();
        assert!(matches!(err, ModelError::NoUnitR { .. }));
    }

    #[test]
    fn comments_and_weird_whitespace() {
        let t = parse("  # hi\n\tg=2.5 # bandwidth\n proc p(r=1,speed=1) # end\n").unwrap();
        assert_eq!(t.g(), 2.5);
    }

    #[test]
    fn k_header_checked_against_height() {
        let t = parse("k = 1\ncluster c (L=0) { proc p (r=1, speed=1) }").unwrap();
        assert_eq!(t.height(), 1);
        // Headers in either order.
        parse("k = 1\ng = 2\ncluster c (L=0) { proc p (r=1, speed=1) }").unwrap();
        let err = parse("k = 2\ncluster c (L=0) { proc p (r=1, speed=1) }").unwrap_err();
        assert!(
            matches!(
                err,
                ModelError::HeightMismatch {
                    declared: 2,
                    actual: 1
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn k_header_must_be_integer_and_unique() {
        let err = parse("k = 1.5\nproc p (r=1, speed=1)").unwrap_err();
        assert!(err.to_string().contains("non-negative integer"), "{err}");
        let err = parse("g = 1\ng = 2\nproc p (r=1, speed=1)").unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn to_dsl_declares_k() {
        let t = parse(FIGURE1).unwrap();
        let text = to_dsl(&t);
        assert!(text.contains("k = 2"), "{text}");
        parse(&text).unwrap();
    }

    #[test]
    fn unvalidated_parse_keeps_broken_params_and_spans() {
        let src = "cluster c (L=0) {\n    proc p (r=2, speed=1)\n}";
        let parsed = parse_unvalidated(src).unwrap();
        assert!(parsed.tree.validate().is_err(), "no r=1 leaf");
        assert_eq!(parsed.declared_k, None);
        // Arena order is parse order: the cluster then the proc.
        assert_eq!(parsed.spans, vec![(1, 1), (2, 5)]);
    }
}
