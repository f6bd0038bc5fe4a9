//! Graphviz DOT export — GMB's "graphical output".

use std::fmt::Write as _;

use crate::registry::{leaf_name, RbdSpec};

/// Renders an RBD spec as Graphviz DOT (a tree of gates and leaves).
#[must_use]
pub fn rbd_dot(name: &str, rbd: &RbdSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", sanitize(name));
    let _ = writeln!(out, "    rankdir=TB;");
    let mut counter = 0usize;
    emit(&mut out, rbd, &mut counter);
    out.push_str("}\n");
    out
}

fn emit(out: &mut String, node: &RbdSpec, counter: &mut usize) -> usize {
    let id = *counter;
    *counter += 1;
    match node {
        RbdSpec::Leaf(v) => {
            let _ = writeln!(out, "    n{id} [label=\"{}\", shape=box];", sanitize(&leaf_name(v)));
        }
        RbdSpec::Series(ch) => {
            let _ = writeln!(out, "    n{id} [label=\"SERIES\", shape=diamond];");
            for c in ch {
                let cid = emit(out, c, counter);
                let _ = writeln!(out, "    n{id} -> n{cid};");
            }
        }
        RbdSpec::Parallel(ch) => {
            let _ = writeln!(out, "    n{id} [label=\"PARALLEL\", shape=diamond];");
            for c in ch {
                let cid = emit(out, c, counter);
                let _ = writeln!(out, "    n{id} -> n{cid};");
            }
        }
        RbdSpec::KOfN { k, children } => {
            let _ =
                writeln!(out, "    n{id} [label=\"{k}-of-{}\", shape=diamond];", children.len());
            for c in children {
                let cid = emit(out, c, counter);
                let _ = writeln!(out, "    n{id} -> n{cid};");
            }
        }
    }
    id
}

fn sanitize(s: &str) -> String {
    s.replace('"', "'")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Value;

    #[test]
    fn rbd_dot_renders_all_node_kinds() {
        let rbd = RbdSpec::series(vec![
            RbdSpec::leaf(Value::constant(0.9)),
            RbdSpec::parallel(vec![
                RbdSpec::leaf(Value::param("a")),
                RbdSpec::leaf(Value::model("m")),
            ]),
            RbdSpec::k_of_n(
                2,
                vec![
                    RbdSpec::leaf(Value::constant(0.8)),
                    RbdSpec::leaf(Value::constant(0.8)),
                    RbdSpec::leaf(Value::constant(0.8)),
                ],
            ),
        ]);
        let dot = rbd_dot("tree", &rbd);
        assert!(dot.contains("SERIES"));
        assert!(dot.contains("PARALLEL"));
        assert!(dot.contains("2-of-3"));
        assert!(dot.contains("$a"));
        assert!(dot.contains("@m"));
    }

    #[test]
    fn quotes_sanitized() {
        let dot = rbd_dot("a\"b", &RbdSpec::leaf(Value::constant(0.5)));
        assert!(!dot.contains("a\"b"));
    }
}
