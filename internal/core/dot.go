package core

import (
	"fmt"
	"io"
)

// WriteDOT writes the expression as a Graphviz digraph in the tree
// rendering the paper uses in Section 5 (Figure 5): internal nodes are
// labeled with their operator, leaves with their annotation name or 0.
// Shared sub-expressions are expanded, so the drawn graph is a tree of
// Size() nodes.
func WriteDOT(w io.Writer, name string, e *Expr) error {
	if _, err := fmt.Fprintf(w, "digraph %q {\n  node [shape=plaintext];\n", name); err != nil {
		return err
	}
	n := 0
	var walk func(x *Expr) (int, error)
	walk = func(x *Expr) (int, error) {
		id := n
		n++
		label := ""
		switch x.Op() {
		case OpZero:
			label = "0"
		case OpVar:
			label = x.Annot().Name
		default:
			label = opSymbol(x.Op())
		}
		if _, err := fmt.Fprintf(w, "  n%d [label=%q];\n", id, label); err != nil {
			return 0, err
		}
		for _, k := range x.Children() {
			kid, err := walk(k)
			if err != nil {
				return 0, err
			}
			if _, err := fmt.Fprintf(w, "  n%d -> n%d;\n", id, kid); err != nil {
				return 0, err
			}
		}
		return id, nil
	}
	if _, err := walk(e); err != nil {
		return err
	}
	_, err := io.WriteString(w, "}\n")
	return err
}
