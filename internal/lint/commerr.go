package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Commerr enforces the error contract PR 2 bought by converting the
// fabrics' shutdown-race panics into returned errors: a discarded
// comm.Transport.Send/RecvInto result reintroduces exactly the silent data
// loss that change eliminated, because a rank that drops a transport
// error keeps training on a torn mesh until the digests diverge. The
// same applies to the framed encoders' EncodeTo (a short write
// corrupts the stream for every later frame) and the health monitor's
// control-plane writes (a dropped verdict write can strand a peer on
// its slow silence deadline).
var Commerr = &analysis.Analyzer{
	Name: "commerr",
	Doc: "comm.Transport.Send/RecvInto/Recv, EncodeTo and Monitor control-plane write results must not be discarded\n\n" +
		"Flags calls whose result is dropped on the floor: expression\n" +
		"statements, go/defer statements, and blank assignments of the\n" +
		"error (or the monitor write's delivered bool).",
	Run: runCommerr,
}

func runCommerr(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if name := trackedCall(pass, n.X); name != "" {
					pass.Reportf(n.Pos(), "result of %s discarded: transport and control-plane failures must be handled or explicitly allowed", name)
				}
			case *ast.GoStmt:
				if name := trackedCall(pass, n.Call); name != "" {
					pass.Reportf(n.Pos(), "result of %s discarded by go statement", name)
				}
			case *ast.DeferStmt:
				if name := trackedCall(pass, n.Call); name != "" {
					pass.Reportf(n.Pos(), "result of %s discarded by defer statement", name)
				}
			case *ast.AssignStmt:
				checkBlankAssign(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkBlankAssign flags assignments that bind a tracked call's error
// result (always the last result) to the blank identifier.
func checkBlankAssign(pass *analysis.Pass, n *ast.AssignStmt) {
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		// v, err := f.Recv(...): error is the last LHS.
		if name := trackedCall(pass, n.Rhs[0]); name != "" && isBlank(n.Lhs[len(n.Lhs)-1]) {
			pass.Reportf(n.Pos(), "error from %s assigned to blank: transport failures must be handled or explicitly allowed", name)
		}
		return
	}
	for i, rhs := range n.Rhs {
		if i >= len(n.Lhs) {
			break
		}
		if name := trackedCall(pass, rhs); name != "" && isBlank(n.Lhs[i]) {
			pass.Reportf(n.Pos(), "error from %s assigned to blank: transport failures must be handled or explicitly allowed", name)
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// trackedCall reports whether e is a call whose result the commerr
// contract protects, returning a human-readable name for it ("" when
// not tracked): Send/RecvInto/Recv on any repro/comm type (including
// the Transport interface), EncodeTo on the quant and elastic encoders,
// and the health monitor's link write.
func trackedCall(pass *analysis.Pass, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return ""
	}
	recvPkg, recvName := namedRecv(selection.Recv())
	if recvPkg == "" {
		return ""
	}
	switch sel.Sel.Name {
	case "Send", "RecvInto", "Recv":
		if recvPkg == "repro/comm" {
			return "comm." + recvName + "." + sel.Sel.Name
		}
	case "EncodeTo":
		if recvPkg == "repro/quant" || recvPkg == "repro/elastic" {
			return recvName + ".EncodeTo"
		}
	case "write":
		if recvPkg == "repro/health" && recvName == "Monitor" {
			return "health.Monitor.write"
		}
	}
	return ""
}

// namedRecv resolves a method receiver type to its declaring package
// path and type name, looking through pointers.
func namedRecv(t types.Type) (pkgPath, name string) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return "", ""
	}
	return n.Obj().Pkg().Path(), n.Obj().Name()
}
