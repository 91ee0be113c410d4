// Package fpreduce checks floating-point reduction order in bit-exact
// (//uerl:deterministic) packages. Float addition and multiplication are
// not associative: accumulating into a shared variable from a goroutine
// body or under map iteration produces bits that depend on scheduling or
// map order. The contract — proven by evalx.ReplayAll's worker-count
// invariance tests — is that parallel code accumulates into per-index
// state and reduces in explicit index order afterwards (the parx
// discipline).
//
// The analyzer flags `+=`, `-=`, `*=`, `/=` on float or complex values
// whose target is declared outside the enclosing concurrent region,
// where a concurrent region is:
//
//   - a goroutine body (`go func() { ... }()`),
//   - a function literal passed to parx.For (its iterations run on
//     multiple workers), or
//   - the body of a `range` over a map (iteration order is random even
//     single-threaded).
//
// //uerl:nondet-ok <reason> waives a finding (e.g. an accumulation that
// is provably confined to one worker).
package fpreduce

import (
	"go/ast"
	"go/token"

	"repro/internal/analysis"
)

// Analyzer is the floating-point reduction-order checker.
var Analyzer = &analysis.Analyzer{
	Name: "fpreduce",
	Doc:  "flag out-of-order floating-point accumulation in goroutine bodies and map iteration inside //uerl:deterministic packages",
	Run:  run,
}

const waiver = "nondet-ok"

func run(pass *analysis.Pass) error {
	if !pass.Markers.Deterministic {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkRegion(pass, lit.Body, lit, "goroutine body")
				}
			case *ast.CallExpr:
				if pkg, name, ok := analysis.PkgFunc(pass.TypesInfo, n); ok &&
					pkg == "repro/internal/parx" && name == "For" {
					for _, arg := range n.Args {
						if lit, ok := arg.(*ast.FuncLit); ok {
							checkRegion(pass, lit.Body, lit, "parx.For worker body")
						}
					}
				}
			case *ast.RangeStmt:
				if analysis.IsMap(pass.TypesInfo, n.X) {
					checkRegion(pass, n.Body, n, "map iteration")
				}
			}
			return true
		})
	}
	return nil
}

// checkRegion flags float augmented assignments inside body whose target
// is declared outside the region node.
func checkRegion(pass *analysis.Pass, body *ast.BlockStmt, region ast.Node, what string) {
	info := pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		default:
			return true
		}
		for _, lhs := range as.Lhs {
			t := info.TypeOf(lhs)
			if t == nil || !analysis.IsFloat(t) {
				continue
			}
			id := analysis.RootIdent(lhs)
			if id == nil {
				continue
			}
			obj := info.ObjectOf(id)
			if obj == nil || obj.Pos() == token.NoPos {
				continue
			}
			if obj.Pos() >= region.Pos() && obj.Pos() <= region.End() {
				continue // region-local accumulator: single-owner, ordered
			}
			pass.ReportWaivable(as.Pos(), waiver,
				"floating-point accumulation into %q inside a %s: reduction order is nondeterministic, so results are not bit-exact; accumulate per index and reduce in order (parx discipline)",
				obj.Name(), what)
		}
		return true
	})
}
