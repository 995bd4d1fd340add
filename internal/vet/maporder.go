package vet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// maporderAnalyzer flags `for range` over a map whose body performs an
// order-sensitive operation. Go randomizes map iteration order per run, so
// any such loop is a nondeterminism leak: appends build differently-ordered
// slices, writer/print calls emit differently-ordered bytes, float (and
// string) accumulation rounds (concatenates) in a different sequence,
// channel sends interleave differently, and a conditional assignment of the
// range key or value to a variable that outlives the loop — arg-max,
// arg-min, first match wins — picks whichever tied or matching entry the
// order reaches first.
//
// Two idioms are recognized and exempt:
//
//   - collect-then-sort: an appended-to slice that is later passed to a
//     sort/slices call in the same function;
//   - per-key state: appends and accumulation whose destination derives
//     from the range key or value (st := table[k]; st.xs = append(...)).
//     Each key's state only ever sees its own iterations, so cross-key
//     order cannot leak into it.
//
// Anything else needs the keys sorted before iteration, or a
// //firmvet:allow maporder directive on the range line with a reason.
var maporderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "flag order-sensitive operations inside map iteration",
	Run:  runMaporder,
}

// writerMethods are method names treated as io.Writer-style output.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// printFuncs are the fmt package-level output functions.
var printFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func runMaporder(pass *Pass) {
	for _, file := range pass.Files {
		enclosing := innermostFunc(file) // for the sort-later exemption

		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			// "The site is annotated": one allow directive on the range line
			// waives every finding inside the loop.
			rpos := pass.Fset.Position(rng.Pos())
			if pass.dirs.allowed(rpos.Filename, rpos.Line, "maporder") {
				return true
			}
			checkMapRangeBody(pass, rng, enclosing(rng.Pos()))
			return true
		})
	}
}

// checkMapRangeBody scans one map-range body for order-sensitive operations.
func checkMapRangeBody(pass *Pass, rng *ast.RangeStmt, fn ast.Node) {
	perKey := keyDerivedObjects(pass, rng)
	conditional := conditionalAssigns(rng.Body)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "maporder",
				"channel send inside map iteration: receive order follows map order; iterate sorted keys")
		case *ast.CallExpr:
			checkMapRangeCall(pass, n)
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, rng, fn, perKey, n)
			if conditional[n] {
				checkMapRangeSelect(pass, rng, perKey, n)
			}
		}
		return true
	})
}

// conditionalAssigns collects the assignments of a loop body that run only
// when a condition holds: those nested in an if, switch or select.
func conditionalAssigns(body *ast.BlockStmt) map[*ast.AssignStmt]bool {
	out := make(map[*ast.AssignStmt]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			ast.Inspect(n, func(m ast.Node) bool {
				if as, ok := m.(*ast.AssignStmt); ok {
					out[as] = true
				}
				return true
			})
			return false
		}
		return true
	})
	return out
}

// checkMapRangeSelect flags a conditional assignment that stores the range
// key or value (or anything derived from them) into state that outlives
// the iteration: an arg-max, arg-min or first-match selection, whose winner
// among tied or equally matching entries is the one map order reaches
// first (or last). Per-key state is exempt, as for appends; appends
// themselves are checkMapRangeAssign's.
func checkMapRangeSelect(pass *Pass, rng *ast.RangeStmt, perKey map[types.Object]bool, as *ast.AssignStmt) {
	if as.Tok != token.ASSIGN {
		return
	}
	for i, lhs := range as.Lhs {
		rhs := as.Rhs[0] // a, b = f(k): every target takes from the one call
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		}
		if call, ok := rhs.(*ast.CallExpr); ok && isBuiltin(pass, call.Fun, "append") {
			continue // an append: checkMapRangeAssign's rule, collect-then-sort included
		}
		if !referencesAny(pass, rhs, perKey) || referencesAny(pass, lhs, perKey) {
			continue
		}
		if id, ok := lhs.(*ast.Ident); ok {
			obj := pass.Info.ObjectOf(id)
			if obj == nil || (rng.Body.Pos() <= obj.Pos() && obj.Pos() <= rng.Body.End()) {
				continue // blank, or a per-iteration local
			}
		}
		pass.Reportf(as.Pos(), "maporder",
			"conditional assignment of the range key or value inside map iteration: which entry wins (arg-max/arg-min ties, first match) follows map order; iterate sorted keys")
		return
	}
}

// keyDerivedObjects collects the objects that hold per-key state: the range
// key and value variables, plus (transitively, in textual order) every
// variable assigned from an expression mentioning one of them — the
// `st := table[k]` idiom. State reached through such objects belongs to a
// single key, so the map's cross-key order cannot leak into it.
func keyDerivedObjects(pass *Pass, rng *ast.RangeStmt) map[types.Object]bool {
	derived := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok {
			if obj := pass.Info.ObjectOf(id); obj != nil {
				derived[obj] = true
			}
		}
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		// Only short declarations propagate: a `:=` local is fresh every
		// iteration, so it can only ever hold one key's state. Assignments to
		// variables that outlive the iteration (`names = append(names, k)`,
		// `sum += v`) accumulate across keys — exactly what must be flagged.
		if as.Tok != token.DEFINE {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || i >= len(as.Rhs) {
				continue
			}
			if referencesAny(pass, as.Rhs[i], derived) {
				if obj := pass.Info.ObjectOf(id); obj != nil {
					derived[obj] = true
				}
			}
		}
		return true
	})
	return derived
}

// referencesAny reports whether expr mentions any object in set.
func referencesAny(pass *Pass, expr ast.Expr, set map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && set[pass.Info.ObjectOf(id)] {
			found = true
		}
		return !found
	})
	return found
}

// checkMapRangeCall flags output calls (fmt prints, io.Writer writes) whose
// emission order would follow map order.
func checkMapRangeCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if ident, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pass.Info.Uses[ident].(*types.PkgName); ok {
			switch path := pn.Imported().Path(); {
			case path == "fmt" && printFuncs[name]:
				pass.Reportf(call.Pos(), "maporder",
					"fmt.%s inside map iteration emits in map order; iterate sorted keys", name)
			case path == "io" && name == "WriteString":
				pass.Reportf(call.Pos(), "maporder",
					"io.WriteString inside map iteration emits in map order; iterate sorted keys")
			}
			return
		}
	}
	if writerMethods[name] {
		pass.Reportf(call.Pos(), "maporder",
			"%s call inside map iteration emits in map order; iterate sorted keys", name)
	}
}

// checkMapRangeAssign flags appends (unless the slice is sorted later in
// the same function, or is per-key state) and float/string accumulation
// into shared state that outlives the loop body.
func checkMapRangeAssign(pass *Pass, rng *ast.RangeStmt, fn ast.Node, perKey map[types.Object]bool, as *ast.AssignStmt) {
	// Appends: s = append(s, ...) in any position.
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltin(pass, call.Fun, "append") {
			continue
		}
		if i < len(as.Lhs) {
			if referencesAny(pass, as.Lhs[i], perKey) {
				continue // per-key state: sees only its own key's iterations
			}
			if ident, ok := as.Lhs[i].(*ast.Ident); ok && sortedLater(pass, fn, rng, pass.Info.ObjectOf(ident)) {
				continue
			}
			if sel, ok := as.Lhs[i].(*ast.SelectorExpr); ok && sortedLater(pass, fn, rng, pass.Info.Uses[sel.Sel]) {
				continue
			}
		}
		pass.Reportf(call.Pos(), "maporder",
			"append inside map iteration builds a map-ordered slice; sort the keys first (or sort the result before use)")
	}

	// Accumulation: `acc op= v` or `acc = acc + v` where acc is a float or
	// string declared outside the loop body (integer accumulation commutes;
	// float rounding and string concatenation do not).
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if len(as.Lhs) == 1 && accumulatesOrdered(pass, rng, perKey, as.Lhs[0]) {
			pass.Reportf(as.Pos(), "maporder",
				"%s accumulation inside map iteration rounds in map order; iterate sorted keys", typeKind(pass, as.Lhs[0]))
		}
	case token.ASSIGN:
		if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if bin, ok := as.Rhs[0].(*ast.BinaryExpr); ok && referencesExpr(pass, bin, as.Lhs[0]) &&
				accumulatesOrdered(pass, rng, perKey, as.Lhs[0]) {
				pass.Reportf(as.Pos(), "maporder",
					"%s accumulation inside map iteration rounds in map order; iterate sorted keys", typeKind(pass, as.Lhs[0]))
			}
		}
	}
}

// accumulatesOrdered reports whether lhs is an order-sensitive accumulator:
// float or string typed, and referring to shared state declared outside the
// loop body (per-iteration locals reset every pass and cannot accumulate;
// per-key state sees only its own key's iterations).
func accumulatesOrdered(pass *Pass, rng *ast.RangeStmt, perKey map[types.Object]bool, lhs ast.Expr) bool {
	t := pass.Info.TypeOf(lhs)
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok || basic.Info()&(types.IsFloat|types.IsComplex|types.IsString) == 0 {
		return false
	}
	if referencesAny(pass, lhs, perKey) {
		return false
	}
	if ident, ok := lhs.(*ast.Ident); ok {
		if obj := pass.Info.ObjectOf(ident); obj != nil {
			declaredInside := rng.Body.Pos() <= obj.Pos() && obj.Pos() <= rng.Body.End()
			return !declaredInside
		}
	}
	// Selector / index targets are fields or shared slots: outside by nature.
	return true
}

// typeKind names the accumulator's kind for the message.
func typeKind(pass *Pass, e ast.Expr) string {
	if t := pass.Info.TypeOf(e); t != nil {
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
			return "string"
		}
	}
	return "float"
}

// referencesExpr reports whether expr mentions target (same object for
// idents).
func referencesExpr(pass *Pass, expr, target ast.Expr) bool {
	tid, ok := target.(*ast.Ident)
	if !ok {
		return false
	}
	tobj := pass.Info.ObjectOf(tid)
	if tobj == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.ObjectOf(id) == tobj {
			found = true
		}
		return !found
	})
	return found
}

// sortedLater implements the collect-then-sort exemption: the appended-to
// slice (a local variable, or a field matched by its field object) appears
// as an argument to a sort or slices call after the range loop, inside the
// same function.
func sortedLater(pass *Pass, fn ast.Node, rng *ast.RangeStmt, obj types.Object) bool {
	if obj == nil || fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgIdent, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.Info.Uses[pkgIdent].(*types.PkgName)
		if !ok {
			return true
		}
		if path := pn.Imported().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// isBuiltin reports whether fun resolves to the named predeclared function.
func isBuiltin(pass *Pass, fun ast.Expr, name string) bool {
	ident, ok := fun.(*ast.Ident)
	if !ok || ident.Name != name {
		return false
	}
	_, ok = pass.Info.Uses[ident].(*types.Builtin)
	return ok
}
