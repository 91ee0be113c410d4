package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"testing"
)

// reachAllowed lists the non-test functions of module repro that no
// program reaches but that stay on purpose, keyed by types.Func.FullName
// (or by package path, for a whole package), each with its reason.
var reachAllowed = map[string]string{
	"repro/internal/analysis/analysistest":     "the fixture harness every analyzer test runs through",
	"repro/internal/errlog.ReadCSV":            "reads back the CSV that cmd/uerlgen writes",
	"repro/internal/evalx.OraclePoints":        "the reference the indexed oracle form is tested against",
	"repro/internal/fleet.WithStageGate":       "fault seam: holds a worker between stage and commit",
	"repro.withCandidateHook":                  "fault seam: corrupts a candidate before the shadow gate",
	"(*repro/internal/mathx.fastSource).Int63": "math/rand calls it through rand.Source",
	"(*repro/internal/mathx.fastSource).Seed":  "math/rand calls it through rand.Source",
	"repro.ApprovalCallback":                   "the documented way to plug an operator into the approval gate",
	"(*repro.Guard).Events":                    "the guard's audit trail, read by operators",
	"repro.WithRestartable":                    "the paper's second user parameter (restartable jobs)",
}

// alwaysLive names methods the standard library calls through its own
// interfaces (fmt, errors, encoding/json, sort), which no repro body
// references.
var alwaysLive = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Format": true,
}

// TestReachability fails on any non-test function of module repro that
// no program reaches. The roots are every function of a main package in
// repro (cmd/*, examples/*), every function of the benchmark module,
// init functions and package-level initializers; an edge is each
// function or method a body references, and a reference to an interface
// method reaches every method of that name.
func TestReachability(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	repro, _, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, _, err := Load(filepath.Join(root, "benchmark"), "./...")
	if err != nil {
		t.Fatal(err)
	}

	// body maps each declared function to the functions its body
	// references, methods maps a method name to every method declared
	// with it, and decls keeps repro's non-root functions for the sweep.
	body := map[string][]*types.Func{}
	decls := map[string]*types.Func{}
	methods := map[string][]string{}
	var work []string
	var rootRefs []*types.Func
	for i, pkg := range append(repro, bench...) {
		for _, e := range pkg.Errors {
			t.Fatalf("%s: %s", pkg.PkgPath, e)
		}
		isRoot := i >= len(repro) || pkg.Types.Name() == "main"
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					rootRefs = append(rootRefs, refs(pkg.TypesInfo, d)...)
					continue
				}
				fn := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				name := fn.FullName()
				body[name] = refs(pkg.TypesInfo, fd)
				if fd.Recv != nil {
					methods[fn.Name()] = append(methods[fn.Name()], name)
				}
				if isRoot || fd.Recv == nil && fn.Name() == "init" || fd.Recv != nil && alwaysLive[fn.Name()] {
					work = append(work, name)
				}
				if !isRoot {
					decls[name] = fn
				}
			}
		}
	}

	reached := map[string]bool{}
	ifaceNames := map[string]bool{}
	visit := func(fn *types.Func) {
		fn = fn.Origin()
		if recv := fn.Signature().Recv(); recv != nil && isInterface(recv.Type()) {
			if !ifaceNames[fn.Name()] {
				ifaceNames[fn.Name()] = true
				work = append(work, methods[fn.Name()]...)
			}
			return
		}
		work = append(work, fn.FullName())
	}
	propagate := func() {
		for len(work) > 0 {
			name := work[len(work)-1]
			work = work[:len(work)-1]
			if reached[name] {
				continue
			}
			reached[name] = true
			for _, fn := range body[name] {
				visit(fn)
			}
		}
	}
	for _, fn := range rootRefs {
		visit(fn)
	}
	propagate()

	// An allowlisted function must still be unreached, and what it calls
	// stays with it.
	kept := map[string]bool{}
	for name, fn := range decls {
		for _, key := range []string{name, fn.Pkg().Path()} {
			if _, ok := reachAllowed[key]; ok && !reached[name] {
				kept[key] = true
				work = append(work, name)
			}
		}
	}
	for key := range reachAllowed {
		if !kept[key] {
			t.Errorf("reachAllowed lists %s, which a program now reaches or which is gone; drop the entry", key)
		}
	}
	propagate()

	var dead []string
	for name := range decls {
		if !reached[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("no program reaches %s; delete it, or allowlist it in reachAllowed with its reason", name)
	}
}

// refs returns every function or method node references, generic ones
// by their origin.
func refs(info *types.Info, node ast.Node) []*types.Func {
	var out []*types.Func
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				out = append(out, fn.Origin())
			}
		}
		return true
	})
	return out
}

// isInterface reports whether a method receiver is an interface or a
// type parameter, whose calls resolve only at run time.
func isInterface(t types.Type) bool {
	if _, ok := t.(*types.TypeParam); ok {
		return true
	}
	return types.IsInterface(t)
}
