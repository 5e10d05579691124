package simvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Maporder flags `range` over a map whose loop body does something
// order-sensitive with the iteration: appends to an outer slice (with
// no deterministic sort afterwards), writes ordered output, emits obs
// events, merges Result counters, or returns a value derived from the
// iteration variables (first-match-wins). Go randomizes map iteration
// order per run, so each of these makes output differ between two runs
// of the same seed — the bug class that broke tools from fleet-result
// merging to diagnostic printing.
//
// Map-ness is inferred syntactically: explicit map types on variables,
// fields, parameters and results; make(map...)/map-literal
// assignments; package-level map declarations; plus a small table of
// well-known stdlib map sources (parser.ParseDir results and
// ast.Package.Files, the idiom behind most Go tooling's map-order
// bugs). Ranging over a value the analyzer cannot type is not flagged.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc:  "flag order-sensitive work inside range-over-map loops",
	Run:  runMaporder,
}

// mergedFields are the Result counters whose map-order merging the
// analyzer treats as order-sensitive accounting.
var mergedFields = map[string]bool{
	"Completed": true, "Offered": true, "Dropped": true,
	"Throughput": true, "Goodput": true, "DropRate": true,
}

func runMaporder(pass *Pass) error {
	pkgMaps, mapFields := packageMapInfo(pass.Files)
	for _, file := range pass.Files {
		mc := &mapCtx{
			pass:      pass,
			pkgMaps:   pkgMaps,
			mapFields: mapFields,
			parser:    importName(file, "go/parser"),
			goAST:     importName(file, "go/ast") != "" || importName(file, "go/parser") != "",
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			mc.checkFunc(fn)
		}
	}
	return nil
}

// packageMapInfo gathers map-typed package-level variables and the
// names of map-typed struct fields declared anywhere in the package.
// A field name used with both map and non-map types in the same
// package (ir's Func.Blocks slice vs Loop.Blocks set) is ambiguous and
// dropped — the analyzer under-approximates rather than guess.
func packageMapInfo(files []*ast.File) (vars, fields map[string]bool) {
	vars, fields = map[string]bool{}, map[string]bool{}
	nonMap := map[string]bool{}
	for _, file := range files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					if s.Type != nil && isMapType(s.Type) {
						for _, n := range s.Names {
							vars[n.Name] = true
						}
					}
					for i, v := range s.Values {
						if i < len(s.Names) && isMapLiteral(v) {
							vars[s.Names[i].Name] = true
						}
					}
				case *ast.TypeSpec:
					st, ok := s.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, f := range st.Fields.List {
						set := nonMap
						if isMapType(f.Type) {
							set = fields
						}
						for _, n := range f.Names {
							set[n.Name] = true
						}
					}
				}
			}
		}
	}
	for name := range nonMap {
		delete(fields, name)
	}
	return vars, fields
}

// isMapLiteral reports whether an expression constructs a map directly.
func isMapLiteral(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.CompositeLit:
		return isMapType(v.Type)
	case *ast.UnaryExpr:
		return v.Op == token.AND && isMapLiteral(v.X)
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "make" && len(v.Args) > 0 {
			return isMapType(v.Args[0])
		}
	}
	return false
}

// mapCtx carries the per-file map-inference state.
type mapCtx struct {
	pass      *Pass
	pkgMaps   map[string]bool
	mapFields map[string]bool
	parser    string // local name of go/parser, "" if not imported
	goAST     bool   // file works with go/ast or go/parser packages

	mapVars     map[string]bool // function-local map-typed identifiers
	outputFuncs map[string]bool // local closures whose body writes output
}

// checkFunc analyzes one function declaration (nested literals are
// treated as part of it; the variable inference over-approximates,
// which only widens what counts as a map).
func (mc *mapCtx) checkFunc(fn *ast.FuncDecl) {
	mc.mapVars = map[string]bool{}
	mc.outputFuncs = map[string]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if isMapType(f.Type) {
				for _, n := range f.Names {
					mc.mapVars[n.Name] = true
				}
			}
		}
	}
	addFields(fn.Recv)
	addFields(fn.Type.Params)
	addFields(fn.Type.Results)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ValueSpec:
			if s.Type != nil && isMapType(s.Type) {
				for _, name := range s.Names {
					mc.mapVars[name.Name] = true
				}
			}
			for i, v := range s.Values {
				if i < len(s.Names) && mc.isMapExpr(v) {
					mc.mapVars[s.Names[i].Name] = true
				}
			}
		case *ast.AssignStmt:
			// pkgs, err := parser.ParseDir(...): a known map-returning
			// call assigns its map to the first variable.
			if len(s.Rhs) == 1 && len(s.Lhs) >= 1 {
				if call, ok := s.Rhs[0].(*ast.CallExpr); ok && mc.isKnownMapCall(call) {
					if id, ok := s.Lhs[0].(*ast.Ident); ok {
						mc.mapVars[id.Name] = true
					}
				}
			}
			if len(s.Rhs) == len(s.Lhs) {
				for i, rhs := range s.Rhs {
					if id, ok := s.Lhs[i].(*ast.Ident); ok {
						if mc.isMapExpr(rhs) {
							mc.mapVars[id.Name] = true
						}
						if isOutputClosure(rhs) {
							mc.outputFuncs[id.Name] = true
						}
					}
				}
			}
		}
		return true
	})

	walkStmtLists(fn.Body, func(list []ast.Stmt) {
		for i, stmt := range list {
			if ls, ok := stmt.(*ast.LabeledStmt); ok {
				stmt = ls.Stmt
			}
			rs, ok := stmt.(*ast.RangeStmt)
			if !ok || !mc.isMapExpr(rs.X) {
				continue
			}
			mc.checkMapRange(rs, list[i+1:])
		}
	})
}

// isMapExpr reports whether the analyzer can prove an expression is a
// map: literal construction, a known map variable, a map-typed struct
// field, or a well-known stdlib map source.
func (mc *mapCtx) isMapExpr(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.Ident:
		return mc.mapVars[v.Name] || mc.pkgMaps[v.Name]
	case *ast.SelectorExpr:
		if mc.mapFields[v.Sel.Name] {
			return true
		}
		// ast.Package.Files / similar go tooling maps, the stdlib idiom
		// behind cmd/docgate's original map-order bug.
		return mc.goAST && v.Sel.Name == "Files"
	case *ast.CallExpr:
		return mc.isKnownMapCall(v)
	case *ast.ParenExpr:
		return mc.isMapExpr(v.X)
	}
	return isMapLiteral(e)
}

func (mc *mapCtx) isKnownMapCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	base, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	return mc.parser != "" && base.Name == mc.parser && sel.Sel.Name == "ParseDir"
}

// checkMapRange analyzes one proven range-over-map; tail holds the
// statements following it in the same block, where a deterministic
// sort redeems an append.
func (mc *mapCtx) checkMapRange(rs *ast.RangeStmt, tail []ast.Stmt) {
	ranged := exprText(rs.X)
	// Taint: the loop variables and everything assigned from them.
	taint := map[string]bool{}
	for _, v := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
			taint[id.Name] = true
		}
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range s.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" || taint[id.Name] {
						continue
					}
					rhs := s.Rhs[0]
					if len(s.Rhs) == len(s.Lhs) {
						rhs = s.Rhs[i]
					}
					if referencesAny(rhs, taint) {
						taint[id.Name] = true
						changed = true
					}
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					if name.Name == "_" || taint[name.Name] || i >= len(s.Values) {
						continue
					}
					if referencesAny(s.Values[i], taint) {
						taint[name.Name] = true
						changed = true
					}
				}
			}
			return true
		})
	}
	// Identifiers declared inside the body: appends to those cannot leak
	// iteration order out of the loop.
	local := map[string]bool{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				for _, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						local[id.Name] = true
					}
				}
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				local[name.Name] = true
			}
		case *ast.RangeStmt:
			for _, v := range []ast.Expr{s.Key, s.Value} {
				if id, ok := v.(*ast.Ident); ok {
					local[id.Name] = true
				}
			}
		}
		return true
	})

	report := func(pos token.Pos, category, suggestion, format string, args ...any) {
		mc.pass.Report(Diagnostic{
			Pos:        pos,
			Analyzer:   "maporder",
			Category:   category,
			Message:    fmt.Sprintf(format, args...),
			Suggestion: suggestion,
		})
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if call, ok := appendCall(s); ok {
				target, ok := s.Lhs[0].(*ast.Ident)
				if ok && !local[target.Name] && taintedArgs(call.Args[1:], taint) && !sortedAfter(tail, target.Name) {
					report(s.Pos(), "map-order-append",
						fmt.Sprintf("sort %s after the loop (sort.Slice / slices.Sort) or collect the keys, sort them, and iterate the sorted keys", target.Name),
						"append to %s inside range over map %s leaks the randomized iteration order; no deterministic sort follows", target.Name, ranged)
				}
			}
			if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
				for _, lhs := range s.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if ok && mergedFields[sel.Sel.Name] && referencesAny(s.Rhs[0], taint) {
						report(s.Pos(), "map-order-merge",
							"iterate the per-machine Results as an ordered slice, as rack.mergeResults does",
							"Result.%s merged in map iteration order over %s", sel.Sel.Name, ranged)
					}
				}
			}
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok {
				break
			}
			switch {
			case mc.isOutputCall(call) && taintedArgs(call.Args, taint):
				report(s.Pos(), "map-order-output",
					"collect the lines (or keys) into a slice, sort it, then print",
					"ordered output written in map iteration order over %s", ranged)
			case isEmitCall(call) && taintedArgs(call.Args, taint):
				report(s.Pos(), "map-order-emit",
					"emit from a deterministically ordered collection; timelines are diffed byte-for-byte between runs",
					"obs events emitted in map iteration order over %s", ranged)
			case isMergeCall(call, local) && taintedArgs(call.Args, taint):
				report(s.Pos(), "map-order-merge",
					"merge from a deterministically ordered collection (sorted keys or an ordered slice)",
					"%s merges values in map iteration order over %s", exprText(call.Fun), ranged)
			}
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if referencesAny(res, taint) {
					report(s.Pos(), "map-order-return",
						"iterate deterministically (sorted keys, or scan an ordered source) so the same element wins every run",
						"return value depends on which element of map %s is visited first", ranged)
					break
				}
			}
		}
		return true
	})
}

// appendCall matches x = append(x, ...) / x := append(x, ...).
func appendCall(s *ast.AssignStmt) (*ast.CallExpr, bool) {
	if len(s.Rhs) != 1 || len(s.Lhs) == 0 {
		return nil, false
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) < 2 {
		return nil, false
	}
	return call, true
}

func taintedArgs(args []ast.Expr, taint map[string]bool) bool {
	for _, a := range args {
		if referencesAny(a, taint) {
			return true
		}
	}
	return false
}

// isOutputCall matches direct ordered-output calls: the fmt printing
// family, the print builtins, io writer methods, and local closures
// that wrap them (the `report := func(...)` idiom).
func (mc *mapCtx) isOutputCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "print" || fun.Name == "println" || mc.outputFuncs[fun.Name]
	case *ast.SelectorExpr:
		if base, ok := fun.X.(*ast.Ident); ok && base.Name == "fmt" {
			n := fun.Sel.Name
			return strings.HasPrefix(n, "Print") || strings.HasPrefix(n, "Fprint")
		}
		switch fun.Sel.Name {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			return true
		}
	}
	return false
}

// isOutputClosure reports whether an expression is a function literal
// whose body performs direct ordered output.
func isOutputClosure(e ast.Expr) bool {
	lit, ok := e.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "print" || fun.Name == "println" {
				found = true
			}
		case *ast.SelectorExpr:
			if base, ok := fun.X.(*ast.Ident); ok && base.Name == "fmt" {
				n := fun.Sel.Name
				if strings.HasPrefix(n, "Print") || strings.HasPrefix(n, "Fprint") {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func isEmitCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return sel.Sel.Name == "Emit"
}

// isMergeCall matches Add-style accumulation onto a receiver declared
// outside the loop body (pooling samples, merging histograms).
func isMergeCall(call *ast.CallExpr, local map[string]bool) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Add" {
		return false
	}
	root := sel.X
	for {
		switch v := root.(type) {
		case *ast.SelectorExpr:
			root = v.X
		case *ast.IndexExpr:
			root = v.X
		case *ast.ParenExpr:
			root = v.X
		case *ast.Ident:
			return !local[v.Name]
		default:
			return false
		}
	}
}

// sortedAfter reports whether a statement after the loop sorts the
// named slice (sort.* or slices.* call referencing it).
func sortedAfter(tail []ast.Stmt, target string) bool {
	names := map[string]bool{target: true}
	for _, s := range tail {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		if base, ok := sel.X.(*ast.Ident); ok && (base.Name == "sort" || base.Name == "slices") && referencesAny(call, names) {
			return true
		}
	}
	return false
}

// walkStmtLists visits every statement list in the body: blocks, case
// clauses, and select clauses.
func walkStmtLists(body *ast.BlockStmt, visit func(list []ast.Stmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.BlockStmt:
			visit(s.List)
		case *ast.CaseClause:
			visit(s.Body)
		case *ast.CommClause:
			visit(s.Body)
		}
		return true
	})
}
