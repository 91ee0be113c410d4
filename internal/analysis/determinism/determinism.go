// Package determinism checks the repo's bit-exactness contract: in
// packages whose package doc carries //uerl:deterministic (evalx, rl, nn,
// mathx, lifecycle), every run with the same seed must produce identical
// bits for any worker count. The analyzer flags the constructs that
// silently break that promise:
//
//   - wall-clock reads (time.Now/Since/Until) — inject a clock instead;
//   - the global math/rand generator (rand.Intn, rand.Float64, ... and
//     Seed/Read) — use a seeded mathx.RNG; explicit-source constructors
//     (rand.New, rand.NewSource, ...) stay legal;
//   - GOMAXPROCS/NumCPU reads — worker counts may change wall clock but
//     must never change results, so results must not branch on them;
//   - iteration over a map that feeds accumulation or output: appends to
//     outer slices (unless the slice is sorted immediately after),
//     assignments to outer variables, string building, returns that
//     depend on the iteration variables, channel sends, and printing.
//     Order-independent sinks (integer counters, constant flags, writes
//     into other maps) pass. Floating-point accumulation under a map
//     range is left to the fpreduce analyzer so each finding is reported
//     once.
//
// //uerl:nondet-ok <reason> on the offending line (or the line above)
// waives a finding; the reason is mandatory.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the determinism contract checker.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "flag wall-clock, global RNG, GOMAXPROCS and map-order dependence in //uerl:deterministic packages",
	Run:  run,
}

const waiver = "nondet-ok"

// randConstructors take an explicit Source/seed, so they are
// deterministic; everything else exported by math/rand draws from the
// global generator.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	if !pass.Markers.Deterministic {
		return nil
	}
	for _, f := range pass.Files {
		var enclosing *ast.FuncDecl
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				enclosing = n
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				if analysis.IsMap(pass.TypesInfo, n.X) {
					checkMapRange(pass, n, enclosing)
				}
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	pkg, name, ok := analysis.PkgFunc(pass.TypesInfo, call)
	if !ok {
		return
	}
	switch {
	case pkg == "time" && (name == "Now" || name == "Since" || name == "Until"):
		pass.ReportWaivable(call.Pos(), waiver,
			"time.%s reads the wall clock in a deterministic package; take the time as an argument (as Controller.Recommend does) or waive with //uerl:nondet-ok <reason>", name)
	case (pkg == "math/rand" || pkg == "math/rand/v2") && !randConstructors[name]:
		pass.ReportWaivable(call.Pos(), waiver,
			"rand.%s draws from the global math/rand generator; use a seeded mathx.RNG so streams are reproducible and forkable", name)
	case pkg == "runtime" && (name == "GOMAXPROCS" || name == "NumCPU"):
		pass.ReportWaivable(call.Pos(), waiver,
			"runtime.%s makes behavior depend on the machine's core count; parallelism may change wall clock but never results", name)
	}
}

// checkMapRange flags order-sensitive sinks inside a `range` over a map.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, enclosing *ast.FuncDecl) {
	info := pass.TypesInfo

	// Objects bound by this range statement (key/value variables).
	rangeVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				rangeVars[obj] = true
			}
		}
	}

	declaredOutside := func(e ast.Expr) (types.Object, bool) {
		id := analysis.RootIdent(e)
		if id == nil {
			return nil, false
		}
		obj := info.ObjectOf(id)
		if obj == nil || obj.Pos() == token.NoPos {
			return nil, false
		}
		outside := obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
		return obj, outside
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, rng, n, declaredOutside, enclosing)
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if tv, ok := info.Types[res]; ok && tv.Value != nil {
					continue // constant result: order-independent
				}
				uses := false
				ast.Inspect(res, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && rangeVars[info.ObjectOf(id)] {
						uses = true
					}
					return !uses
				})
				if uses {
					pass.ReportWaivable(n.Pos(), waiver,
						"return inside map iteration depends on which key is encountered first; iterate a sorted key slice instead")
					break
				}
			}
		case *ast.SendStmt:
			if _, outside := declaredOutside(n.Chan); outside {
				pass.ReportWaivable(n.Pos(), waiver,
					"channel send inside map iteration publishes values in nondeterministic order")
			}
		case *ast.CallExpr:
			if pkg, name, ok := analysis.PkgFunc(info, n); ok && pkg == "fmt" &&
				(name == "Print" || name == "Println" || name == "Printf" ||
					name == "Fprint" || name == "Fprintln" || name == "Fprintf") {
				pass.ReportWaivable(n.Pos(), waiver,
					"fmt.%s inside map iteration emits output in nondeterministic order; collect and sort first", name)
			}
		}
		return true
	})
}

func checkAssign(pass *analysis.Pass, rng *ast.RangeStmt, as *ast.AssignStmt,
	declaredOutside func(ast.Expr) (types.Object, bool), enclosing *ast.FuncDecl) {
	info := pass.TypesInfo
	for i, lhs := range as.Lhs {
		// Writes into another map are order-independent (distinct keys
		// land in the same final map whatever the visit order).
		if ix, ok := lhs.(*ast.IndexExpr); ok && analysis.IsMap(info, ix.X) {
			continue
		}
		obj, outside := declaredOutside(lhs)
		if !outside || obj == nil {
			continue
		}
		t := info.TypeOf(lhs)
		if t == nil {
			continue
		}
		switch as.Tok {
		case token.DEFINE:
			continue
		case token.ASSIGN:
			// x = append(x, ...) — order-sensitive unless sorted after.
			if i < len(as.Rhs) {
				if call, ok := as.Rhs[i].(*ast.CallExpr); ok && isBuiltin(info, call, "append") {
					if sortedAfter(info, enclosing, rng, obj) {
						continue
					}
					pass.ReportWaivable(as.Pos(), waiver,
						"append to %q inside map iteration accumulates in nondeterministic order; sort the result or iterate sorted keys", obj.Name())
					continue
				}
				// Constant stores (done = true) are order-independent.
				if tv, ok := info.Types[as.Rhs[i]]; ok && tv.Value != nil {
					continue
				}
			}
			pass.ReportWaivable(as.Pos(), waiver,
				"assignment to %q inside map iteration keeps the last-visited entry, which is nondeterministic", obj.Name())
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			switch {
			case analysis.IsString(t):
				pass.ReportWaivable(as.Pos(), waiver,
					"string concatenation into %q inside map iteration builds a nondeterministic string; sort keys first", obj.Name())
			case analysis.IsFloat(t):
				// fpreduce reports floating-point reduction order.
			default:
				// Integer accumulation is associative and commutative:
				// order cannot change the result.
			}
		}
	}
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// sortedAfter reports whether obj is passed to a sort.* or slices.Sort*
// call after the range statement ends, inside the enclosing function —
// the idiomatic collect-keys-then-sort pattern.
func sortedAfter(info *types.Info, enclosing *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	if enclosing == nil || enclosing.Body == nil {
		return false
	}
	found := false
	ast.Inspect(enclosing.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		pkg, name, ok := analysis.PkgFunc(info, call)
		if !ok {
			return true
		}
		isSort := pkg == "sort" || (pkg == "slices" && (name == "Sort" || name == "SortFunc" || name == "SortStableFunc"))
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			if id := analysis.RootIdent(arg); id != nil && info.ObjectOf(id) == obj {
				found = true
			}
		}
		return true
	})
	return found
}
