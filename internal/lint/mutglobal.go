package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// MutableGlobal keeps process-wide mutable state out of internal/: every
// setting a run depends on (worker count, journal, cascade mode) travels
// on a value the caller passes in, so two runs in one process cannot leak
// into each other. It flags a package-level var declared in a non-test
// file under internal/ when either holds:
//
//   - the var is assigned, incremented, index-assigned or has its address
//     taken (explicitly, or by a pointer-method call) anywhere other than
//     its declaration or an init function;
//   - its type comes from sync or sync/atomic, which exists only to be
//     written concurrently.
//
// `_` assertions, sentinel errors and lookup tables initialised at
// declaration and never written are not flagged. A write to such a var
// from another package is flagged at the write site.
var MutableGlobal = &Analyzer{
	Name: "mutable-global",
	Key:  "global",
	Doc:  "package-level vars under internal/ are never written after initialisation and hold no sync state",
	Run:  runMutableGlobal,
}

const internalPrefix = "nowover/internal/"

func runMutableGlobal(p *Pass) {
	own := strings.HasPrefix(p.Pkg.ImportPath, internalPrefix)
	written := make(map[*types.Var]token.Pos) // own-package var -> first write
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Recv == nil && fn.Name.Name == "init" {
				continue
			}
			forEachWrite(p, fn.Body, func(v *types.Var, at token.Pos) {
				switch {
				case v.Pkg() == p.Pkg.Types:
					if _, seen := written[v]; !seen && own {
						written[v] = at
					}
				case strings.HasPrefix(v.Pkg().Path(), internalPrefix):
					p.Reportf(at, "writes package-level var %s.%s from outside its package; pass the value explicitly instead", v.Pkg().Name(), v.Name())
				}
			})
		}
	}
	if !own {
		return
	}
	for _, f := range p.Pkg.Files {
		if strings.HasSuffix(p.Pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					v, ok := p.Pkg.Info.Defs[name].(*types.Var)
					if !ok || name.Name == "_" {
						continue
					}
					if path, isSync := syncType(v.Type()); isSync {
						p.Reportf(name.Pos(), "package-level var %s holds %s state; move it into the value that owns it", v.Name(), path)
					} else if at, ok := written[v]; ok {
						pos := p.Pkg.Fset.Position(at)
						p.Reportf(name.Pos(), "package-level var %s is written after initialisation (%s:%d); move it into the value that owns it",
							v.Name(), filepath.Base(pos.Filename), pos.Line)
					}
				}
			}
		}
	}
}

// forEachWrite calls report for every package-level var that body
// assigns, increments, index-assigns or takes the address of.
func forEachWrite(p *Pass, body *ast.BlockStmt, report func(*types.Var, token.Pos)) {
	target := func(e ast.Expr) {
		if v := rootVar(p, e); v != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			report(v, e.Pos())
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				target(lhs)
			}
		case *ast.IncDecStmt:
			target(x.X)
		case *ast.RangeStmt:
			if x.Tok == token.ASSIGN {
				target(x.Key)
				if x.Value != nil {
					target(x.Value)
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				target(x.X)
			}
		case *ast.SelectorExpr:
			// v.M() with a pointer receiver on a non-pointer v is (&v).M().
			if sel, ok := p.Pkg.Info.Selections[x]; ok && sel.Kind() == types.MethodVal {
				_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
				_, ptrX := p.TypeOf(x.X).(*types.Pointer)
				if ptrRecv && !ptrX {
					target(x.X)
				}
			}
		}
		return true
	})
}

// rootVar resolves the variable an lvalue or operand is rooted in:
// v.f[i] -> v, *v -> v, pkg.V.f -> pkg.V. It returns nil for anything
// else (calls, literals, non-variable identifiers).
func rootVar(p *Pass, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			v, _ := p.ObjectOf(x).(*types.Var)
			return v
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, qualified := p.ObjectOf(id).(*types.PkgName); qualified {
					e = x.Sel
					continue
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// syncType reports whether t (through pointers, arrays and slices) is a
// named type from sync or sync/atomic, returning that package's path.
func syncType(t types.Type) (string, bool) {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Array:
			t = x.Elem()
		case *types.Slice:
			t = x.Elem()
		case *types.Named:
			if pkg := x.Obj().Pkg(); pkg != nil && (pkg.Path() == "sync" || pkg.Path() == "sync/atomic") {
				return pkg.Path(), true
			}
			return "", false
		default:
			return "", false
		}
	}
}
