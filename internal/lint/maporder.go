package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder flags `range` statements over maps whose bodies observe the
// iteration order: appending to an outer slice, writing output, merging
// order-sensitive accumulators (ledgers/digests), drawing from an RNG,
// assigning floats to outer state, or returning a loop-dependent value.
// Go randomizes map iteration per process, so any such site makes output
// a function of the hash seed instead of the simulation seed — the exact
// hazard the determinism contract (byte-identical tables at any
// parallelism) forbids.
//
// The collect-then-sort idiom is recognized and allowed: appending keys
// to a slice that is passed to a sort/slices call after the loop does not
// observe the order. Anything else needs a sorted key walk or a
// //nowlint:ordered <justification>.
var MapOrder = &Analyzer{
	Name: "map-order",
	Key:  "ordered",
	Doc:  "range over a map must not feed order-sensitive sinks (slices, output, ledgers/digests, RNGs, float state, early returns)",
	Run:  runMapOrder,
}

func runMapOrder(p *Pass) {
	for _, f := range p.Pkg.Files {
		sortCalls := collectSortCalls(p, f)
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if !isMap(p.TypeOf(rs.X)) {
				return true
			}
			if sink := findOrderSink(p, rs, sortCalls); sink != "" {
				p.Reportf(rs.For, "map iteration order is observable: the body of `range %s` %s; iterate a sorted key slice or annotate //nowlint:ordered <why order cannot matter>",
					types.ExprString(rs.X), sink)
			}
			return true
		})
	}
}

// collectSortCalls records, for every object passed to a sort.* or
// slices.* call in the file, the latest position of such a call. An
// append inside a map range is harmless when the slice is sorted after
// the loop.
func collectSortCalls(p *Pass, f *ast.File) map[types.Object]token.Pos {
	out := make(map[types.Object]token.Pos)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		path, _, ok := pkgFuncCall(p, call)
		if !ok || (path != "sort" && path != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if id := baseIdent(arg); id != nil {
				if obj := p.ObjectOf(id); obj != nil {
					if call.End() > out[obj] {
						out[obj] = call.End()
					}
				}
			}
		}
		return true
	})
	return out
}

// findOrderSink returns a description of the first order-sensitive sink in
// the range body, or "" if the body is order-blind.
func findOrderSink(p *Pass, rs *ast.RangeStmt, sortCalls map[types.Object]token.Pos) string {
	var sink string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if s := callSink(p, rs, x, sortCalls); s != "" {
				sink = s
			}
		case *ast.AssignStmt:
			if x.Tok != token.ASSIGN {
				return true
			}
			for _, lhs := range x.Lhs {
				if !isFloat(p.TypeOf(lhs)) {
					continue
				}
				id := baseIdent(lhs)
				if id == nil {
					continue
				}
				obj := p.ObjectOf(id)
				if obj != nil && !declaredWithin(obj, rs.Body) {
					sink = "assigns the floating-point value " + types.ExprString(lhs) + " declared outside the loop (float folds and max-updates are evaluated in iteration order)"
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if isLoopConstant(p, res) {
					continue
				}
				sink = "returns a loop-dependent value (which key triggers the return depends on iteration order)"
				return false
			}
		}
		return true
	})
	return sink
}

// callSink classifies a call expression inside a map-range body.
func callSink(p *Pass, rs *ast.RangeStmt, call *ast.CallExpr, sortCalls map[types.Object]token.Pos) string {
	// Builtin append to a slice declared outside the loop.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
		if _, isBuiltin := p.ObjectOf(id).(*types.Builtin); isBuiltin && len(call.Args) > 0 {
			target := baseIdent(call.Args[0])
			if target != nil {
				obj := p.ObjectOf(target)
				if obj != nil && !declaredWithin(obj, rs.Body) {
					if pos, sorted := sortCalls[obj]; sorted && pos > rs.End() {
						return "" // collect-then-sort idiom
					}
					return "appends to the slice " + target.Name + " declared outside the loop"
				}
			}
		}
		return ""
	}

	// Package-level calls: fmt printing, xrand helpers.
	if path, name, ok := pkgFuncCall(p, call); ok {
		if path == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
			return "writes output via fmt." + name
		}
		if path == xrandPath {
			return "draws from the deterministic RNG via xrand." + name + " (consumption order perturbs every later draw)"
		}
		return ""
	}

	// Method calls.
	if _, recvType, name, ok := methodCall(p, call); ok {
		switch name {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			return "writes output via " + name
		case "Merge":
			return "merges an accumulator via Merge (merge order is observable state)"
		case "Add", "Record", "Observe":
			for _, tn := range [...]string{"Digest", "Welford"} {
				if namedAs(recvType, metricsPath, tn) {
					return "feeds the order-sensitive accumulator metrics." + tn
				}
			}
		}
		if namedAs(recvType, xrandPath, "Rand") {
			return "draws from the deterministic RNG (consumption order perturbs every later draw)"
		}
	}
	return ""
}

// isLoopConstant reports whether a return expression cannot depend on the
// iteration (a typed constant or nil).
func isLoopConstant(p *Pass, e ast.Expr) bool {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		if tv.Value != nil {
			return true
		}
		if tv.IsNil() {
			return true
		}
	}
	return false
}
