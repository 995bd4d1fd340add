package vet

import (
	"go/ast"
	"go/types"
	"strings"
)

// seedflowAnalyzer checks that every RNG construction in the deterministic
// packages — rand.NewSource (usually via rand.New(rand.NewSource(...))),
// sim.Stream, sim.NewSplitMix64 and (*sim.SplitMix64).Seed — takes a seed
// that traces to sim.DeriveSeed. Accepted seed expressions, recursively:
//
//   - a call to DeriveSeed, or to a helper whose name contains "Seed"
//     (derived-seed helpers like fig9bPairSeed);
//   - a parameter whose name contains "seed" (the caller owns derivation);
//   - a struct field whose name contains "Seed" (seed-carrying fields are
//     populated from DeriveSeed at construction sites);
//   - a local variable every assignment of which traces to one of the
//     above.
//
// Constants are rejected (a hard-coded seed couples the stream to nothing
// and collides across components), and so is seed arithmetic like seed+1:
// additive offsets produce correlated low-bit-differing streams — the exact
// bug PR 8 fixed in sim.Stream — where DeriveSeed's SplitMix64 finalizer
// guarantees independence.
var seedflowAnalyzer = &Analyzer{
	Name: "seedflow",
	Doc:  "trace every RNG construction's seed to sim.DeriveSeed",
	Run:  runSeedflow,
}

func runSeedflow(pass *Pass) {
	if !pass.deterministic() {
		return
	}
	for _, file := range pass.Files {
		innermost := innermostFunc(file)

		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			what, ok := rngConstruction(pass, call)
			if !ok {
				return true
			}
			if bad, why := traceSeed(pass, innermost(call.Pos()), call.Args[0], 0); bad {
				pass.Reportf(call.Pos(), "seedflow", "%s seed %s", what, why)
			}
			return true
		})
	}
}

// rngConstruction reports whether call constructs an RNG stream whose first
// argument is a seed: math/rand's NewSource, or sim's Stream, NewSplitMix64
// or SplitMix64.Seed (qualified or, inside package sim, unqualified).
func rngConstruction(pass *Pass, call *ast.CallExpr) (what string, ok bool) {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[fun.Sel]
	case *ast.Ident:
		obj = pass.Info.Uses[fun]
	default:
		return "", false
	}
	f, ok := obj.(*types.Func)
	if !ok || f.Pkg() == nil {
		return "", false
	}
	switch path := f.Pkg().Path(); {
	case (path == "math/rand" || path == "math/rand/v2") && f.Name() == "NewSource":
		return "rand.NewSource", true
	case strings.HasSuffix(path, "/sim") && (f.Name() == "Stream" || f.Name() == "NewSplitMix64"):
		return "sim." + f.Name(), true
	case strings.HasSuffix(path, "/sim") && f.Name() == "Seed" && strings.HasSuffix(f.FullName(), "SplitMix64).Seed"):
		return "sim.SplitMix64.Seed", true
	}
	return "", false
}

// traceSeed walks a seed expression back to its origin. It returns
// bad=false when the seed provably flows from sim.DeriveSeed (per the
// conventions in the analyzer doc), and bad=true with a reason otherwise.
func traceSeed(pass *Pass, fn ast.Node, e ast.Expr, depth int) (bad bool, why string) {
	if depth > 10 {
		return true, "is too indirect to trace to sim.DeriveSeed"
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return traceSeed(pass, fn, e.X, depth+1)
	case *ast.CallExpr:
		// A conversion like int64(x) is transparent.
		if tv, ok := pass.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return traceSeed(pass, fn, e.Args[0], depth+1)
		}
		name := calleeName(e)
		if name == "DeriveSeed" || strings.Contains(strings.ToLower(name), "seed") {
			return false, ""
		}
		return true, "comes from " + name + "(...), not sim.DeriveSeed (or a *Seed helper)"
	case *ast.SelectorExpr:
		if strings.Contains(strings.ToLower(e.Sel.Name), "seed") {
			return false, ""
		}
		return true, "field " + e.Sel.Name + " is not a seed-carrying (*Seed) field; derive it with sim.DeriveSeed"
	case *ast.BasicLit:
		return true, "is the constant " + e.Value + "; derive it with sim.DeriveSeed(parentSeed, label)"
	case *ast.UnaryExpr:
		return true, "uses seed arithmetic; offsets correlate streams — mix with sim.DeriveSeed instead"
	case *ast.BinaryExpr:
		return true, "uses seed arithmetic; offsets correlate streams — mix with sim.DeriveSeed instead"
	case *ast.Ident:
		obj := pass.Info.ObjectOf(e)
		switch obj := obj.(type) {
		case *types.Const:
			return true, "is the constant " + e.Name + "; derive it with sim.DeriveSeed(parentSeed, label)"
		case *types.Var:
			if assigns := findAssignments(pass, fn, obj); len(assigns) > 0 {
				for _, rhs := range assigns {
					if bad, why := traceSeed(pass, fn, rhs, depth+1); bad {
						return true, why
					}
				}
				return false, ""
			}
			// No assignment in this function: a parameter (or captured
			// outer variable). The caller owns derivation; the convention
			// is that seed-carrying names say so.
			if strings.Contains(strings.ToLower(e.Name), "seed") {
				return false, ""
			}
			return true, "variable " + e.Name + " cannot be traced to sim.DeriveSeed (name it *seed* if it carries a derived seed)"
		}
		return true, "cannot be traced to sim.DeriveSeed"
	default:
		return true, "cannot be traced to sim.DeriveSeed"
	}
}

// calleeName renders the called function's name for a message.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	default:
		return "an untraceable expression"
	}
}

// findAssignments collects the right-hand sides assigned to obj inside fn:
// short declarations, assignments, and var specs with initializers.
func findAssignments(pass *Pass, fn ast.Node, obj types.Object) []ast.Expr {
	if fn == nil {
		return nil
	}
	var out []ast.Expr
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || pass.Info.ObjectOf(id) != obj {
					continue
				}
				if len(n.Rhs) == len(n.Lhs) {
					out = append(out, n.Rhs[i])
				} else if len(n.Rhs) == 1 {
					out = append(out, n.Rhs[0])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if pass.Info.ObjectOf(name) != obj || len(n.Values) == 0 {
					continue
				}
				if len(n.Values) == len(n.Names) {
					out = append(out, n.Values[i])
				} else {
					out = append(out, n.Values[0])
				}
			}
		}
		return true
	})
	return out
}
