package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The //uerl: directive namespace. Directives are machine-readable
// contract declarations, written like //go: directives (no space after
// the slashes) so gofmt leaves them alone and CommentGroup.Text omits
// them from rendered docs.
//
//	//uerl:deterministic              package doc: bit-exact package; the
//	                                  determinism and fpreduce analyzers apply
//	//uerl:hotpath                    func doc: zero-allocation hot path; the
//	                                  hotpath analyzer applies
//	//uerl:locked <mu>                func doc: caller holds <mu>; satisfies
//	                                  guarded-by checks inside the function
//	//uerl:serial-only <reason>       type doc: Decider deliberately not
//	                                  concurrency-safe (parallel replay falls
//	                                  back to serial)
//	//uerl:guarded-by <mu>            struct field: only touch under <mu>
//	//uerl:restrict-to <f1,f2,...>    struct field: only the named functions
//	                                  and methods may touch this field
//	//uerl:nondet-ok <reason>         line waiver for determinism/fpreduce
//	//uerl:alloc-ok <reason>          line waiver for hotpath
const directivePrefix = "//uerl:"

// waiverKinds are the directives that suppress a diagnostic on their own
// line or the line immediately below.
var waiverKinds = map[string]bool{"nondet-ok": true, "alloc-ok": true}

// declDirectives are the directives that must be attached to a
// declaration (package clause, func, type, or struct field).
var declDirectives = map[string]bool{
	"deterministic": true,
	"hotpath":       true,
	"locked":        true,
	"serial-only":   true,
	"guarded-by":    true,
	"restrict-to":   true,
}

// A Waiver is one //uerl:nondet-ok / //uerl:alloc-ok comment.
type Waiver struct {
	Kind   string
	Reason string
	File   string
	Line   int
	Pos    token.Pos
}

// Markers is the parsed //uerl: contract surface of one package.
type Markers struct {
	fset *token.FileSet

	// Deterministic is set when any file's package doc carries
	// //uerl:deterministic.
	Deterministic bool

	// Hot maps function declarations marked //uerl:hotpath.
	Hot map[*ast.FuncDecl]bool
	// Locked maps function declarations marked //uerl:locked <mu> to the
	// mutex field name the caller must hold.
	Locked map[*ast.FuncDecl]string
	// SerialOnly maps type objects marked //uerl:serial-only to the
	// documented reason.
	SerialOnly map[types.Object]string
	// Guarded maps struct field objects marked //uerl:guarded-by to the
	// guarding mutex field name.
	Guarded map[types.Object]string
	// Restricted maps struct field objects marked //uerl:restrict-to to
	// the list of function/method names allowed to touch them.
	Restricted map[types.Object][]string

	// Problems are malformed or misplaced directives; the "directive"
	// analyzer reports them.
	Problems []Diagnostic

	waivers map[string][]*Waiver // file name -> waivers
}

// Waived reports whether a waiver of the given kind covers pos: the
// waiver comment sits on the same line as pos or on the line directly
// above it (a full-line comment over a multi-line construct).
func (m *Markers) Waived(kind string, pos token.Pos) bool {
	p := m.fset.Position(pos)
	for _, w := range m.waivers[p.Filename] {
		if w.Kind == kind && (w.Line == p.Line || w.Line == p.Line-1) {
			return true
		}
	}
	return false
}

type directive struct {
	name string
	args string
	pos  token.Pos
}

func parseDirective(c *ast.Comment) (directive, bool) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return directive{}, false
	}
	rest := strings.TrimPrefix(c.Text, directivePrefix)
	name, args, _ := strings.Cut(rest, " ")
	return directive{name: name, args: strings.TrimSpace(args), pos: c.Pos()}, true
}

func groupDirectives(cg *ast.CommentGroup) []directive {
	if cg == nil {
		return nil
	}
	var out []directive
	for _, c := range cg.List {
		if d, ok := parseDirective(c); ok {
			out = append(out, d)
		}
	}
	return out
}

// ParseMarkers extracts the package's //uerl: directives and validates
// their placement and arguments.
func ParseMarkers(fset *token.FileSet, files []*ast.File, info *types.Info) *Markers {
	m := &Markers{
		fset:       fset,
		Hot:        map[*ast.FuncDecl]bool{},
		Locked:     map[*ast.FuncDecl]string{},
		SerialOnly: map[types.Object]string{},
		Guarded:    map[types.Object]string{},
		Restricted: map[types.Object][]string{},
		waivers:    map[string][]*Waiver{},
	}
	// Positions of directives claimed by a declaration; every //uerl:
	// comment not claimed and not a waiver is misplaced.
	claimed := map[token.Pos]bool{}

	claim := func(d directive) { claimed[d.pos] = true }
	problem := func(pos token.Pos, format string, args ...any) {
		m.Problems = append(m.Problems, Diagnostic{
			Pos: pos, Category: "directive", Message: fmt.Sprintf(format, args...),
		})
	}

	for _, f := range files {
		// Package-level: //uerl:deterministic in the package doc group.
		for _, d := range groupDirectives(f.Doc) {
			claim(d)
			switch d.name {
			case "deterministic":
				m.Deterministic = true
			default:
				problem(d.pos, "//uerl:%s is not a package-level directive", d.name)
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				for _, d := range groupDirectives(decl.Doc) {
					claim(d)
					switch d.name {
					case "hotpath":
						m.Hot[decl] = true
					case "locked":
						if d.args == "" {
							problem(d.pos, "//uerl:locked needs the held mutex field name")
							continue
						}
						m.Locked[decl] = d.args
					default:
						problem(d.pos, "//uerl:%s is not a function-level directive", d.name)
					}
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					docs := groupDirectives(ts.Doc)
					if ts.Doc == nil && len(decl.Specs) == 1 {
						docs = groupDirectives(decl.Doc)
					}
					for _, d := range docs {
						claim(d)
						switch d.name {
						case "serial-only":
							if d.args == "" {
								problem(d.pos, "//uerl:serial-only needs a reason")
								continue
							}
							if obj := info.Defs[ts.Name]; obj != nil {
								m.SerialOnly[obj] = d.args
							}
						default:
							problem(d.pos, "//uerl:%s is not a type-level directive", d.name)
						}
					}
				}
			}
		}
		// Struct fields anywhere in the file (including nested types).
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				var ds []directive
				ds = append(ds, groupDirectives(field.Doc)...)
				ds = append(ds, groupDirectives(field.Comment)...)
				for _, d := range ds {
					claim(d)
					switch d.name {
					case "guarded-by":
						if d.args == "" {
							problem(d.pos, "//uerl:guarded-by needs the guarding mutex field name")
							continue
						}
						for _, name := range field.Names {
							if obj := info.Defs[name]; obj != nil {
								m.Guarded[obj] = d.args
							}
						}
					case "restrict-to":
						if d.args == "" {
							problem(d.pos, "//uerl:restrict-to needs a comma-separated function list")
							continue
						}
						var fns []string
						for _, s := range strings.Split(d.args, ",") {
							if s = strings.TrimSpace(s); s != "" {
								fns = append(fns, s)
							}
						}
						for _, name := range field.Names {
							if obj := info.Defs[name]; obj != nil {
								m.Restricted[obj] = fns
							}
						}
					default:
						problem(d.pos, "//uerl:%s is not a struct-field directive", d.name)
					}
				}
			}
			return true
		})
		// Waivers and misplaced directives from the full comment stream.
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c)
				if !ok {
					continue
				}
				if waiverKinds[d.name] {
					if d.args == "" {
						problem(d.pos, "//uerl:%s needs a reason: waivers document why the contract holds anyway", d.name)
						continue
					}
					p := fset.Position(d.pos)
					m.waivers[p.Filename] = append(m.waivers[p.Filename], &Waiver{
						Kind: d.name, Reason: d.args, File: p.Filename, Line: p.Line, Pos: d.pos,
					})
					continue
				}
				if claimed[d.pos] {
					continue
				}
				if declDirectives[d.name] {
					problem(d.pos, "//uerl:%s is not attached to a declaration (no blank line between directive and decl)", d.name)
				} else {
					problem(d.pos, "unknown directive //uerl:%s", d.name)
				}
			}
		}
	}
	return m
}

// DirectiveAnalyzer surfaces malformed //uerl: directives: unknown names,
// misplaced markers, and waivers without reasons. It keeps the contract
// language itself honest.
var DirectiveAnalyzer = &Analyzer{
	Name: "directive",
	Doc:  "check that //uerl: contract directives are well-formed, attached to declarations, and that waivers carry reasons",
	Run: func(pass *Pass) error {
		for _, p := range pass.Markers.Problems {
			pass.Reportf(p.Pos, "%s", p.Message)
		}
		return nil
	},
}
