package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"

	"repro/internal/lint/analysis"
)

// Wirebound enforces the repository's decoder discipline: a length
// field decoded off the wire must be compared against a bound before
// it sizes an allocation. Every framed format in the tree (quant
// frames, cluster rendezvous, health control messages, elastic
// snapshots, nn checkpoints) is decoded through internal/wire, whose
// Len, Bytes and String check each announced length against the
// format's named cap before trusting it, and this analyzer makes that
// contract mechanical: in the toolkit and the decoder packages it
// flags make() calls whose size derives from a binary.*Endian.UintNN
// or binary.Read value with no intervening comparison of that value.
//
// It also enforces the sim scenario decoder's strictness contract: a
// json.Decoder constructed in package sim must call
// DisallowUnknownFields before decoding, so a typo'd scenario key is
// an error rather than a silently ignored knob.
var Wirebound = &analysis.Analyzer{
	Name: "wirebound",
	Doc: "decoded wire lengths must be bounds-checked before they size an allocation\n\n" +
		"In internal/wire and the decoder packages (quant, comm, health, elastic,\n" +
		"cluster, nn) a make() whose size data-flows from binary.*Endian.UintNN\n" +
		"or binary.Read without an intervening comparison lets a corrupted or\n" +
		"hostile length field drive an unbounded allocation. In package sim,\n" +
		"json.Decoder values must call DisallowUnknownFields before Decode.",
	Run: runWirebound,
}

// decoderPackages are the packages that decode framed wire formats,
// internal/wire among them; the bound rule applies only there.
var decoderPackages = map[string]bool{
	"quant": true, "comm": true, "health": true,
	"elastic": true, "cluster": true, "nn": true, "wire": true,
}

func runWirebound(pass *analysis.Pass) error {
	base := path.Base(pass.PkgPath())
	checkBounds := decoderPackages[base]
	checkJSON := base == "sim"
	if !checkBounds && !checkJSON {
		return nil
	}
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

// checkWireBounds runs the function-local taint walk: collect wire-
// derived values, the comparisons that bound them and the make() sinks
// that consume them, then flag every sink with a tainted, unbounded
// size. The analysis is positional — a guard counts if it appears
// before the sink in source order — which matches the straight-line
// shape of every decoder in the tree.
func checkWireBounds(pass *analysis.Pass, body *ast.BlockStmt) {
	tainted := map[string]token.Pos{} // value key -> first taint position
	guarded := map[string]token.Pos{} // value key -> first bound position

	type sink struct {
		pos    token.Pos
		size   ast.Expr
		direct bool // size expression itself contains a wire read
	}
	var sinks []sink

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			taint := false
			for _, rhs := range n.Rhs {
				if boundedExpr(rhs) {
					continue // min()/max() caps the value by construction
				}
				if exprReadsWire(rhs) || mentionsAny(rhs, tainted) {
					taint = true
				}
			}
			if taint {
				for _, lhs := range n.Lhs {
					if key := exprKey(lhs); key != "" {
						if _, ok := tainted[key]; !ok {
							tainted[key] = n.Pos()
						}
					}
				}
			}
		case *ast.CallExpr:
			// binary.Read(r, order, &x) taints x through the pointer.
			if isBinaryRead(n) && len(n.Args) == 3 {
				if u, ok := n.Args[2].(*ast.UnaryExpr); ok && u.Op == token.AND {
					if key := exprKey(u.X); key != "" {
						if _, ok := tainted[key]; !ok {
							tainted[key] = n.Pos()
						}
					}
				}
			}
			if boundedExpr(n) { // min(x, cap) bounds every operand
				markGuards(n, guarded)
			}
			if isBuiltin(pass, n, "make") && len(n.Args) >= 2 {
				for _, size := range n.Args[1:] {
					sinks = append(sinks, sink{pos: n.Pos(), size: size, direct: exprReadsWire(size)})
				}
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
				// Any comparison that can reject the decoded value
				// before the allocation counts as the bound: the cap
				// checks (n > maxElems) and the pin-to-expected checks
				// (rows != p.Value.Rows) both qualify.
				markGuards(n, guarded)
			}
		}
		return true
	})

	for _, s := range sinks {
		if s.direct {
			pass.Reportf(s.pos, "make size reads a wire length field directly with no bound check; compare it against a cap first (see internal/wire)")
			continue
		}
		if boundedExpr(s.size) {
			continue
		}
		for key, tpos := range tainted {
			if !mentionsKey(s.size, key) || tpos >= s.pos {
				continue
			}
			if gpos, ok := guarded[key]; ok && gpos < s.pos {
				continue
			}
			pass.Reportf(s.pos, "make size derives from wire-decoded length %q with no intervening bound check; compare it against a cap first (see internal/wire)", key)
		}
	}
}

// markGuards records every plain identifier or selector mentioned in a
// bounding expression.
func markGuards(e ast.Expr, guarded map[string]token.Pos) {
	ast.Inspect(e, func(n ast.Node) bool {
		if key := exprKey(n); key != "" {
			if _, ok := guarded[key]; !ok {
				guarded[key] = e.Pos()
			}
		}
		return true
	})
}

// exprKey names a taint-trackable value: a plain identifier ("n") or a
// one-level selector ("h.N"). Anything else — index expressions,
// calls — is not tracked.
func exprKey(n ast.Node) string {
	switch n := n.(type) {
	case *ast.Ident:
		return n.Name
	case *ast.SelectorExpr:
		if x, ok := n.X.(*ast.Ident); ok {
			return x.Name + "." + n.Sel.Name
		}
	}
	return ""
}

func mentionsAny(e ast.Expr, keys map[string]token.Pos) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if key := exprKey(n); key != "" {
			if _, hit := keys[key]; hit {
				found = true
			}
		}
		return !found
	})
	return found
}

func mentionsKey(e ast.Expr, key string) bool {
	return mentionsAny(e, map[string]token.Pos{key: 0})
}

// exprReadsWire reports whether e contains a call that produces an
// attacker-controlled integer: binary.LittleEndian.Uint16/32/64 (and
// the BigEndian/NativeEndian spellings) or binary.Read.
func exprReadsWire(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isEndianUint(call) || isBinaryRead(call) {
			found = true
		}
		return !found
	})
	return found
}

func isEndianUint(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Uint16", "Uint32", "Uint64":
	default:
		return false
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := inner.X.(*ast.Ident)
	if !ok || pkg.Name != "binary" {
		return false
	}
	switch inner.Sel.Name {
	case "LittleEndian", "BigEndian", "NativeEndian":
		return true
	}
	return false
}

func isBinaryRead(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Read" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "binary"
}

// boundedExpr reports whether e is intrinsically bounded: a call to
// the min or max builtins (the chunked-read idiom caps every size it
// produces with min).
func boundedExpr(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "min" || id.Name == "max") {
		return true
	}
	return false
}

// isBuiltin reports whether call invokes the named Go builtin,
// consulting type information when available so a local function
// shadowing the builtin does not confuse the check.
func isBuiltin(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	if obj, ok := pass.TypesInfo.Uses[id]; ok {
		_, isB := obj.(*types.Builtin)
		return isB
	}
	return true
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
				if !isJSONNewDecoder(rhs) || i >= len(n.Lhs) {
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
			if isJSONNewDecoder(sel.X) {
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

func isJSONNewDecoder(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "NewDecoder" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "json"
}
