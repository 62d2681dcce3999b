// Package poolsafety audits the lifecycle of pooled objects — values drawn
// from a free-list pool with Get and returned with Release. The simulator
// recycles hot-path TLPs through pcie.TLPPool to keep steady-state
// event processing allocation-free, and recycling has exactly the failure
// modes garbage collection was invented to remove: use-after-release reads
// a packet that now belongs to someone else, double-release corrupts the
// free list, and a pooled pointer squirreled away in a struct or closure
// outlives its loan. The analyzer enforces the loan discipline statically.
//
// A type opts in by carrying a `//tca:pooled` marker in its doc comment.
// The marker is exported as an object fact from the defining package, so
// the rules follow the type into every importing package without
// whole-program analysis.
//
// Within each function the analyzer tracks variables bound to the result
// of a pool Get (a method named Get returning a pointer to a marked type)
// using the framework's def-use chains:
//
//   - the value must be consumed exactly once: released, returned, sent on
//     a channel, or handed to a callee (ownership transfers through call
//     arguments — Send, action constructors — are trusted);
//   - no use of the variable may follow its Release in the same block;
//   - Release must not run twice on the same binding;
//   - the pointer must not be stored into a struct field, slice, map or
//     package-level variable, or be captured by a function literal, unless
//     Pin() detached it from the pool first.
//
// Release also recycles a packet's payload buffer, so the same holds for
// the bytes of any pooled value, however it was obtained (a Get, a
// parameter, a field): an exported slice field such as TLP.Data, a slice
// of it, or a local bound to either must not be stored into a field, a
// slice, a map, a composite literal or a package-level variable, appended
// as an element, or captured by a function literal, unless the packet was
// pinned first. A receiver that keeps the bytes copies them
// (append(dst, t.Data...), copy).
package poolsafety

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tca/internal/analysis/framework"
)

// pooledFact marks a named type whose doc comment carries //tca:pooled.
// It travels from the type's defining package to every importer.
type pooledFact struct {
	// Marker records the comment that opted the type in, for -list style
	// debugging; facts must carry at least one exported field to satisfy
	// the gob round trip.
	Marker string
}

// AFact implements framework.Fact.
func (*pooledFact) AFact() {}

// Analyzer enforces the Get/Release loan discipline on //tca:pooled types.
var Analyzer = &framework.Analyzer{
	Name: "poolsafety",
	Doc: `enforce the Get/Release lifecycle of //tca:pooled objects

Values drawn from an object pool (a Get method returning a pointer to a
type whose doc comment carries //tca:pooled) are loans: each must reach
exactly one Release or be handed off (call argument, return, channel
send); no use may follow the Release; Release must not run twice; and the
pointer must not escape into a field, slice, map, package variable or
closure unless Pin() detached it from the pool first. The same escape rule
holds for a pooled value's payload (an exported slice field such as
TLP.Data, or a slice of it), which Release recycles.`,
	Run:       run,
	FactTypes: []framework.Fact{(*pooledFact)(nil)},
}

const marker = "//tca:pooled"

func run(pass *framework.Pass) error {
	exportMarkedTypes(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Each function literal is its own scope: a Get inside a
			// closure is checked against that closure's body alone.
			checkBody(pass, fd.Body)
			checkPayloads(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, okLit := n.(*ast.FuncLit); okLit {
					checkBody(pass, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// exportMarkedTypes records a pooledFact for every type in this package
// whose doc comment contains the //tca:pooled marker.
func exportMarkedTypes(pass *framework.Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, okTS := spec.(*ast.TypeSpec)
				if !okTS {
					continue
				}
				doc := ts.Doc
				if doc == nil {
					doc = gd.Doc
				}
				if doc == nil || !containsMarker(doc) {
					continue
				}
				obj := pass.TypesInfo.Defs[ts.Name]
				if obj != nil {
					pass.ExportObjectFact(obj, &pooledFact{Marker: marker})
				}
			}
		}
	}
}

func containsMarker(doc *ast.CommentGroup) bool {
	for _, c := range doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), marker) {
			return true
		}
	}
	return false
}

// pooledNamed returns the named type object behind t (unwrapping one
// pointer) if it carries the pooled fact.
func pooledNamed(pass *framework.Pass, t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	var fact pooledFact
	if pass.ImportObjectFact(obj, &fact) {
		return obj
	}
	return nil
}

// loan is one tracked pool loan: the variable a Get result was bound to.
type loan struct {
	v       *types.Var
	getPos  token.Pos
	consume int // count of consumption points
	pinned  bool
	pinPos  token.Pos
}

// checkBody runs the loan check over one function or closure body,
// ignoring nested function literals (they are separate scopes).
func checkBody(pass *framework.Pass, body *ast.BlockStmt) {
	chains := framework.DefUseChains(pass.TypesInfo, body)
	loans := findLoans(pass, body)
	for _, ln := range loans {
		auditLoan(pass, chains, body, ln)
	}
}

// findLoans locates `v := pool.Get()` / `v = pool.Get()` bindings of
// pooled results to a single variable, skipping nested closures.
func findLoans(pass *framework.Pass, body *ast.BlockStmt) []*loan {
	var loans []*loan
	skipNested(body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return
		}
		call, okCall := as.Rhs[0].(*ast.CallExpr)
		if !okCall || !isPoolGet(pass, call) {
			return
		}
		v := framework.RootVar(pass.TypesInfo, as.Lhs[0])
		if v == nil {
			return
		}
		loans = append(loans, &loan{v: v, getPos: call.Pos()})
	})
	return loans
}

// isPoolGet reports whether call invokes a method named Get returning a
// single pointer to a pooled type.
func isPoolGet(pass *framework.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Get" {
		return false
	}
	fn, okFn := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !okFn {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || sig.Results().Len() != 1 {
		return false
	}
	return pooledNamed(pass, sig.Results().At(0).Type()) != nil
}

// auditLoan applies the lifecycle rules to one loan.
func auditLoan(pass *framework.Pass, chains *framework.Chains, body *ast.BlockStmt, ln *loan) {
	name := ln.v.Name()
	var releases []token.Pos
	var uses []token.Pos // reads that are not part of the release itself
	sameBlock := releaseBlocks(body)

	skipNested(body, func(n ast.Node) {
		switch e := n.(type) {
		case *ast.CallExpr:
			if after(e.Pos(), ln.getPos) && receiverIs(pass, e, ln.v) {
				switch methodName(e) {
				case "Release":
					releases = append(releases, e.Pos())
					ln.consume++
					return
				case "Pin":
					ln.pinned = true
					ln.pinPos = e.Pos()
					ln.consume++
					return
				}
			}
			// Handing the pointer to a callee transfers ownership.
			for _, arg := range e.Args {
				if framework.RootVar(pass.TypesInfo, arg) == ln.v && after(arg.Pos(), ln.getPos) {
					if isAppend(pass, e) {
						ln.consume++
						pass.Reportf(arg.Pos(),
							"pooled %s %s appended to a slice that may outlive its release; Pin() it first",
							typeName(pass, ln), name)
					} else {
						ln.consume++
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range e.Results {
				if framework.RootVar(pass.TypesInfo, r) == ln.v && after(r.Pos(), ln.getPos) {
					ln.consume++
				}
			}
		case *ast.SendStmt:
			if framework.RootVar(pass.TypesInfo, e.Value) == ln.v && after(e.Pos(), ln.getPos) {
				ln.consume++
			}
		case *ast.AssignStmt:
			checkEscapeAssign(pass, ln, e)
		case *ast.FuncLit:
			if capturesVar(pass, e, ln.v) && !ln.pinned {
				ln.consume++
				pass.Reportf(e.Pos(),
					"pooled %s %s captured by a closure that may outlive its release; Pin() it first",
					typeName(pass, ln), name)
			}
		}
	})

	// Use-after-release and double-release, restricted to references in
	// the same statement list as the Release call so early-return branches
	// (`if lost { t.Release(); return }`) do not poison the fallthrough
	// path.
	isRelease := make(map[token.Pos]bool, len(releases))
	for _, p := range releases {
		isRelease[p] = true
	}
	flagged := make(map[token.Pos]bool)
	for _, relPos := range releases {
		relBlock := sameBlock[relPos]
		for _, ref := range chains.Refs(ln.v) {
			p := ref.Ident.Pos()
			if p <= relPos || ref.Kind != framework.RefRead || isRelease[p] || flagged[p] {
				continue
			}
			if relBlock != nil && sameBlock[p] == relBlock {
				flagged[p] = true
				uses = append(uses, p)
			}
		}
	}
	for _, p := range uses {
		pass.Reportf(p, "use of pooled %s %s after Release", typeName(pass, ln), name)
	}
	if len(releases) > 1 {
		// A second Release on the same binding in the same block is a
		// double release whatever path reaches it.
		first := releases[0]
		for _, p := range releases[1:] {
			if sameBlock[p] == sameBlock[first] && sameBlock[p] != nil {
				pass.Reportf(p, "double Release of pooled %s %s", typeName(pass, ln), name)
			}
		}
	}
	if ln.consume == 0 && !ln.pinned {
		pass.Reportf(ln.getPos,
			"pooled %s %s is never released or handed off; every pool Get must reach exactly one Release",
			typeName(pass, ln), name)
	}
}

// checkEscapeAssign flags stores of the loaned pointer into locations that
// outlive the function: struct fields, slice/map elements and
// package-level variables.
func checkEscapeAssign(pass *framework.Pass, ln *loan, as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		if framework.RootVar(pass.TypesInfo, rhs) != ln.v || !after(rhs.Pos(), ln.getPos) {
			continue
		}
		if i >= len(as.Lhs) {
			continue
		}
		if ln.pinned && ln.pinPos < as.Pos() {
			continue
		}
		switch lhs := as.Lhs[i].(type) {
		case *ast.SelectorExpr:
			ln.consume++
			pass.Reportf(rhs.Pos(),
				"pooled %s %s stored in field %s, which may outlive its release; Pin() it first",
				typeName(pass, ln), ln.v.Name(), lhs.Sel.Name)
		case *ast.IndexExpr:
			ln.consume++
			pass.Reportf(rhs.Pos(),
				"pooled %s %s stored in a slice or map, which may outlive its release; Pin() it first",
				typeName(pass, ln), ln.v.Name())
		case *ast.Ident:
			if v := framework.RootVar(pass.TypesInfo, lhs); v != nil && v.Parent() == pass.Pkg.Scope() {
				ln.consume++
				pass.Reportf(rhs.Pos(),
					"pooled %s %s stored in package-level var %s, which outlives its release; Pin() it first",
					typeName(pass, ln), ln.v.Name(), v.Name())
			}
		}
	}
}

// releaseBlocks maps every position in the body to its innermost
// enclosing statement list, so same-block checks are O(1).
func releaseBlocks(body *ast.BlockStmt) map[token.Pos]*ast.BlockStmt {
	m := make(map[token.Pos]*ast.BlockStmt)
	var walk func(n ast.Node, cur *ast.BlockStmt)
	walk = func(n ast.Node, cur *ast.BlockStmt) {
		ast.Inspect(n, func(c ast.Node) bool {
			switch b := c.(type) {
			case *ast.BlockStmt:
				if b != n {
					walk(b, b)
					return false
				}
			case *ast.FuncLit:
				return false // separate scope
			default:
				if c != nil {
					m[c.Pos()] = cur
				}
			}
			return true
		})
	}
	walk(body, body)
	return m
}

// skipNested walks body invoking fn on every node except those inside
// nested function literals.
func skipNested(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			fn(n) // let the closure-capture check see the literal itself
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

func methodName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

// receiverIs reports whether call is a method call whose receiver
// expression names v.
func receiverIs(pass *framework.Pass, call *ast.CallExpr, v *types.Var) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return framework.RootVar(pass.TypesInfo, sel.X) == v
}

func isAppend(pass *framework.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, okB := pass.TypesInfo.Uses[id].(*types.Builtin)
	return okB && b.Name() == "append"
}

func capturesVar(pass *framework.Pass, lit *ast.FuncLit, v *types.Var) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == v {
			found = true
		}
		return !found
	})
	return found
}

func typeName(pass *framework.Pass, ln *loan) string {
	t := ln.v.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

func after(p, q token.Pos) bool { return p > q }

// payloadRoot reports whether e is a pooled value's payload — an exported
// slice-typed field of a pooled type, possibly sliced — and returns the
// variable the value was reached from (nil when it is not a plain chain
// of selectors off one variable).
func payloadRoot(pass *framework.Pass, e ast.Expr) (root *types.Var, ok bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.SliceExpr:
			e = x.X
			continue
		}
		break
	}
	sel, isSel := e.(*ast.SelectorExpr)
	if !isSel || !sel.Sel.IsExported() {
		return nil, false
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return nil, false
	}
	if _, isSlice := selection.Type().Underlying().(*types.Slice); !isSlice {
		return nil, false
	}
	if pooledNamed(pass, selection.Recv()) == nil {
		return nil, false
	}
	return baseVar(pass, sel.X), true
}

// baseVar returns the variable at the root of a selector, index or
// dereference chain.
func baseVar(pass *framework.Pass, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return framework.RootVar(pass.TypesInfo, e)
		}
	}
}

// checkPayloads applies the payload escape rule to one function body,
// nested function literals included.
func checkPayloads(pass *framework.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	// aliases maps a local bound to a payload to the variable the payload
	// was reached from; pinned holds variables pinned in this body.
	aliases := make(map[*types.Var]*types.Var)
	pinned := make(map[*types.Var]token.Pos)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if methodName(x) == "Pin" {
				if v := baseVar(pass, x.Fun.(*ast.SelectorExpr).X); v != nil {
					if _, seen := pinned[v]; !seen {
						pinned[v] = x.Pos()
					}
				}
			}
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, rhs := range x.Rhs {
				if root, ok := payloadRoot(pass, rhs); ok {
					if v := framework.RootVar(info, x.Lhs[i]); v != nil && v.Parent() != pass.Pkg.Scope() {
						aliases[v] = root
					}
				}
			}
		case *ast.ValueSpec:
			for i, val := range x.Values {
				if root, ok := payloadRoot(pass, val); ok && i < len(x.Names) {
					if v, okV := info.Defs[x.Names[i]].(*types.Var); okV {
						aliases[v] = root
					}
				}
			}
		}
		return true
	})

	// payload reports whether e carries a payload and which variable it
	// came from.
	payload := func(e ast.Expr) (*types.Var, string, bool) {
		if root, ok := payloadRoot(pass, e); ok {
			return root, types.ExprString(e), true
		}
		if v := framework.RootVar(info, e); v != nil {
			if root, ok := aliases[v]; ok {
				return root, v.Name(), true
			}
		}
		return nil, "", false
	}
	escapes := func(e ast.Expr, at token.Pos, where string) {
		root, what, ok := payload(e)
		if !ok {
			return
		}
		if p, isPinned := pinned[root]; isPinned && p < at {
			return
		}
		pass.Reportf(e.Pos(), "pooled payload %s %s, which may outlive its Release; copy it or Pin() the packet first", what, where)
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, rhs := range x.Rhs {
				root, _, ok := payload(rhs)
				if !ok {
					continue
				}
				switch lhs := x.Lhs[i].(type) {
				case *ast.SelectorExpr:
					if baseVar(pass, lhs.X) == root && root != nil {
						continue // within the packet itself
					}
					escapes(rhs, x.Pos(), "stored in field "+lhs.Sel.Name)
				case *ast.IndexExpr:
					escapes(rhs, x.Pos(), "stored in a slice or map")
				case *ast.Ident:
					if v := framework.RootVar(info, lhs); v != nil && v.Parent() == pass.Pkg.Scope() {
						escapes(rhs, x.Pos(), "stored in package-level var "+v.Name())
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				escapes(elt, x.Pos(), "stored in a composite literal")
			}
		case *ast.CallExpr:
			if isAppend(pass, x) && !x.Ellipsis.IsValid() {
				for _, arg := range x.Args[1:] {
					escapes(arg, x.Pos(), "appended to a slice")
				}
			}
		case *ast.FuncLit:
			reported := false
			ast.Inspect(x.Body, func(m ast.Node) bool {
				e, ok := m.(ast.Expr)
				if !ok || reported {
					return !reported
				}
				root, _, isPayload := payload(e)
				if !isPayload || root == nil || (root.Pos() >= x.Pos() && root.Pos() < x.End()) {
					return true
				}
				if v := framework.RootVar(info, e); v != nil && v.Pos() >= x.Pos() && v.Pos() < x.End() {
					return true // an alias declared inside the closure
				}
				if p, isPinned := pinned[root]; isPinned && p < x.Pos() {
					return true
				}
				reported = true
				pass.Reportf(x.Pos(), "pooled payload %s captured by a closure, which may outlive its Release; copy it or Pin() the packet first", types.ExprString(e))
				return false
			})
		}
		return true
	})
}
