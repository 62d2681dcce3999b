package framework

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file is the framework's intra-procedural dataflow walker: def-use
// chains over types.Info, with no SSA construction. It gives analyzers a
// source-ordered view of every definition, write and read of each local
// variable in a function body. That is deliberately weaker than SSA — there is no phi, no
// path-sensitivity — but it is exactly enough for the lifecycle checks the
// suite does (pool Get/Release pairing, lock-held regions, write origins),
// and it stays a few hundred lines of standard library.

// A RefKind classifies one occurrence of a variable.
type RefKind int

const (
	// RefDef is the defining occurrence (:=, var, parameter, range var).
	RefDef RefKind = iota
	// RefWrite is a plain reassignment (x = ..., x++, &x passed out).
	RefWrite
	// RefRead is any other occurrence.
	RefRead
)

func (k RefKind) String() string {
	switch k {
	case RefDef:
		return "def"
	case RefWrite:
		return "write"
	default:
		return "read"
	}
}

// A Ref is one occurrence of a variable inside the analyzed body.
type Ref struct {
	Ident *ast.Ident
	Obj   *types.Var
	Kind  RefKind
	// Seq orders references by source position within the body; chains
	// for one variable are sorted by it.
	Seq int
}

// Chains holds the def-use chains of one function body.
type Chains struct {
	refs map[*types.Var][]Ref
}

// DefUseChains walks body once and indexes every identifier the type
// checker resolved to a *types.Var, classifying each occurrence as a
// definition, write or read by its syntactic role.
func DefUseChains(info *types.Info, body *ast.BlockStmt) *Chains {
	c := &Chains{refs: make(map[*types.Var][]Ref)}
	if body == nil {
		return c
	}

	// kinds collects identifiers that appear in a defining or writing
	// role; everything else defaults to a read.
	kinds := make(map[*ast.Ident]RefKind)
	classify := func(lhs ast.Expr, kind RefKind) {
		if id, ok := unparen(lhs).(*ast.Ident); ok {
			kinds[id] = kind
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if s.Tok.String() == ":=" {
					classify(lhs, RefDef)
				} else {
					classify(lhs, RefWrite)
				}
			}
		case *ast.IncDecStmt:
			classify(s.X, RefWrite)
		case *ast.RangeStmt:
			if s.Key != nil {
				classify(s.Key, RefDef)
			}
			if s.Value != nil {
				classify(s.Value, RefDef)
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				kinds[name] = RefDef
			}
		case *ast.UnaryExpr:
			// Taking the address makes every later state of the variable
			// reachable through the pointer; treat it as a write.
			if s.Op.String() == "&" {
				classify(s.X, RefWrite)
			}
		}
		return true
	})

	seq := 0
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.ObjectOf(id)
		v, okVar := obj.(*types.Var)
		if !okVar || v.IsField() {
			return true
		}
		kind, classified := kinds[id]
		if !classified {
			kind = RefRead
		}
		c.refs[v] = append(c.refs[v], Ref{Ident: id, Obj: v, Kind: kind, Seq: seq})
		seq++
		return true
	})
	for _, refs := range c.refs {
		sort.Slice(refs, func(i, j int) bool { return refs[i].Ident.Pos() < refs[j].Ident.Pos() })
		for i := range refs {
			refs[i].Seq = i
		}
	}
	return c
}

// Refs returns the ordered references to v (empty for unseen variables).
func (c *Chains) Refs(v *types.Var) []Ref { return c.refs[v] }

// RootVar resolves an expression to the local or package-level variable it
// names, unwrapping parentheses. It returns nil for anything more complex
// (selectors, index expressions, calls).
func RootVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, okVar := info.ObjectOf(id).(*types.Var)
	if !okVar {
		return nil
	}
	return v
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
