package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding, rendered as `file:line: [rule] message`.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the diagnostic in the canonical file:line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Msg)
}

// Analyzer is one determinism-contract rule.
type Analyzer struct {
	// Name is the rule identifier printed in diagnostics, e.g. "map-order".
	Name string
	// Key is the suppression keyword accepted after //nowlint:, e.g.
	// "ordered". The full Name is accepted too.
	Key string
	// Doc is a one-line description for -rules listings and the README.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Pkg   *Package
	rule  string
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:  p.Pkg.Fset.Position(pos),
		Rule: p.rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if the type-checker did not record
// one.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Pkg.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := p.Pkg.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ObjectOf resolves an identifier to its object (use or definition).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.Pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Pkg.Info.Defs[id]
}

// Analyzers returns the full determinism-contract suite in reporting
// order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapOrder,
		RNGDiscipline,
		FloatFoldOrder,
		ClassExhaustive,
	}
}

// AnalyzerByKey resolves a suppression keyword (Key or Name) to its
// analyzer, or nil.
func AnalyzerByKey(key string, analyzers []*Analyzer) *Analyzer {
	for _, a := range analyzers {
		if a.Key == key || a.Name == key {
			return a
		}
	}
	return nil
}

// Run executes the analyzers over the packages, applies //nowlint
// suppressions, and returns the surviving diagnostics sorted by position.
// Malformed suppressions (missing justification, unknown rule) are
// themselves diagnostics under the "suppression" rule, so `nowlint` exits
// nonzero on an unjustified silence.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Pkg: pkg, rule: a.Name, diags: &raw}
			a.Run(pass)
		}
	}

	var out []Diagnostic
	sups := make(map[string]*fileSuppressions)
	for _, pkg := range pkgs {
		sup, supDiags := collectSuppressions(pkg, analyzers)
		out = append(out, supDiags...)
		for file, fs := range sup {
			sups[file] = fs
		}
	}
	for _, d := range raw {
		if fs, ok := sups[d.Pos.Filename]; ok && fs.suppresses(d.Rule, d.Pos.Line) {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return out
}
