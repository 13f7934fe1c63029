// Package hyperprov is an equivalence-invariant algebraic provenance
// framework for hyperplane update queries — a Go implementation of
// Bourhis, Deutch and Moskovitch, "Equivalence-Invariant Algebraic
// Provenance for Hyperplane Update Queries" (SIGMOD 2020,
// arXiv:2007.05463).
//
// Hyperplane update queries are the domain-based fragment of relational
// transactions: single-tuple insertions, and deletions/modifications
// whose conditions compare individual attributes to constants with = or
// ≠. For this fragment the paper builds the algebraic structure UP[X],
// whose axioms mirror the sound and complete Karabeg–Vianu
// axiomatization of transaction set-equivalence; consequently two
// transactions produce equivalent provenance if and only if they are
// set-equivalent, so the recorded provenance captures the essence of
// the computation rather than the accidental way it was phrased.
//
// The package re-exports the user-facing API of the internal packages:
//
//   - expressions and normal forms (internal/core): Expr, NF, the
//     constructors, Normalize, Minimize, SimplifyZero;
//   - the relational substrate (internal/db): Schema, Tuple, Pattern,
//     Update, Transaction and the plain Database;
//   - the provenance engines (internal/engine): Engine with ModeNaive
//     and ModeNormalForm, plus the provenance applications (LiveDB,
//     DeletionPropagation, AbortTransactions, AccessControl, Certify);
//   - Update-Structures (internal/upstruct): Structure, Eval, the
//     Boolean/set/trust instances and the semiring bridge;
//   - the SQL / datalog front ends (internal/parser).
//
// The package examples walk through the paper's running example, access
// control, deletion propagation, certification, impact analysis and a
// TPC-C session, with checked output; cmd/ holds the command-line tools.
package hyperprov
