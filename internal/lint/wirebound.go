package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strings"

	"repro/internal/lint/analysis"
)

// Wirebound enforces the repository's decoder discipline as a type
// rule: outside internal/wire, whose Len, Bytes and String check every
// length against its format's cap, no make() may be sized by a raw wire
// read — encoding/binary's Read or a byte order's Uint16/32/64, or a
// local variable that holds one. Callees are resolved by the type
// checker, so a renamed import hides nothing.
//
// It also enforces the sim scenario decoder's strictness contract: a
// json.Decoder constructed in package sim must call
// DisallowUnknownFields before decoding, so a typo'd scenario key is
// an error rather than a silently ignored knob.
var Wirebound = &analysis.Analyzer{
	Name: "wirebound",
	Doc: "outside internal/wire, raw wire reads must not size an allocation\n\n" +
		"A make() sized by encoding/binary's Read or a byte order's Uint16/32/64,\n" +
		"directly or through a local variable, lets a hostile length field drive\n" +
		"an unbounded allocation; read lengths with wire.Decoder.Len/Bytes/String.\n" +
		"In package sim, json.Decoder values must call DisallowUnknownFields.",
	Run: runWirebound,
}

func runWirebound(pass *analysis.Pass) error {
	checkBounds := pass.PkgPath() != "repro/internal/wire"
	checkJSON := path.Base(pass.PkgPath()) == "sim"
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if checkBounds {
				checkWireBounds(pass, fd.Body)
			}
			if checkJSON {
				checkJSONDecoders(pass, fd.Body)
			}
		}
	}
	return nil
}

// checkWireBounds reports every make() in body sized by a raw wire
// read. In source order, a variable taints once it is assigned from a
// read or a tainted variable, or once binary.Read fills it through its
// address (hdr taints hdr.N). No comparison and no min() is a bound:
// outside the toolkit, lengths that size memory come from wire.Decoder.
func checkWireBounds(pass *analysis.Pass, body *ast.BlockStmt) {
	tainted := map[*types.Var]bool{}
	taint := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				e = x.X
				continue
			case *ast.Ident:
				if v, ok := pass.TypesInfo.ObjectOf(x).(*types.Var); ok {
					tainted[v] = true
				}
			}
			return
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if readsWire(pass, tainted, n.Rhs...) {
				for _, lhs := range n.Lhs {
					taint(lhs)
				}
			}
		case *ast.ValueSpec:
			if readsWire(pass, tainted, n.Values...) {
				for _, id := range n.Names {
					taint(id)
				}
			}
		case *ast.CallExpr:
			// binary.Read(r, order, &x) fills x; a byte order's
			// UintNN takes one argument.
			if isWireRead(pass, n) && len(n.Args) == 3 {
				if u, ok := n.Args[2].(*ast.UnaryExpr); ok && u.Op == token.AND {
					taint(u.X)
				}
			}
			id, ok := n.Fun.(*ast.Ident)
			if ok && pass.TypesInfo.Uses[id] == types.Universe.Lookup("make") && readsWire(pass, tainted, n.Args[1:]...) {
				pass.Reportf(n.Pos(), "make sized by a raw wire read; outside internal/wire, read lengths with wire.Decoder.Len/Bytes/String, which check them against a cap")
			}
		}
		return true
	})
}

// readsWire reports whether any of es calls a raw wire read or names a
// tainted variable.
func readsWire(pass *analysis.Pass, tainted map[*types.Var]bool, es ...ast.Expr) bool {
	found := false
	for _, e := range es {
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				found = found || isWireRead(pass, n)
			case *ast.Ident:
				v, _ := pass.TypesInfo.Uses[n].(*types.Var)
				found = found || tainted[v]
			}
			return !found
		})
	}
	return found
}

// isWireRead reports whether call is a raw wire read: encoding/binary's
// Read, or a byte order's Uint16/32/64. The callee is the type
// checker's, so any import name resolves to it.
func isWireRead(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/binary" {
		return false
	}
	if fn.Type().(*types.Signature).Recv() == nil {
		return fn.Name() == "Read"
	}
	return strings.HasPrefix(fn.Name(), "Uint")
}

// checkJSONDecoders flags json.NewDecoder values in package sim that
// are never hardened with DisallowUnknownFields in the same function,
// and bare json.NewDecoder(r).Decode(v) chains that cannot be.
func checkJSONDecoders(pass *analysis.Pass, body *ast.BlockStmt) {
	decoders := map[string]token.Pos{} // var name -> creation pos
	hardened := map[string]bool{}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !isJSONNewDecoder(pass, rhs) || i >= len(n.Lhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					decoders[id.Name] = rhs.Pos()
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if isJSONNewDecoder(pass, sel.X) {
				// json.NewDecoder(r).Decode(v): no variable to harden.
				if sel.Sel.Name != "DisallowUnknownFields" {
					pass.Reportf(n.Pos(), "sim json.Decoder used without DisallowUnknownFields: unknown scenario keys must be errors, not silently dropped knobs")
				}
				return true
			}
			if sel.Sel.Name == "DisallowUnknownFields" {
				if id, ok := sel.X.(*ast.Ident); ok {
					hardened[id.Name] = true
				}
			}
		}
		return true
	})

	for name, pos := range decoders {
		if !hardened[name] {
			pass.Reportf(pos, "sim json.Decoder %q never calls DisallowUnknownFields: unknown scenario keys must be errors, not silently dropped knobs", name)
		}
	}
}

// isJSONNewDecoder reports whether e calls encoding/json's NewDecoder,
// resolved through the type checker as isWireRead resolves its callees,
// so any import name of the package matches and no lookalike does.
func isJSONNewDecoder(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" && fn.Name() == "NewDecoder"
}
