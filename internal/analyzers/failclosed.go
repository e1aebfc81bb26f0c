package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FailClosed enforces the decode-dispatch invariant from DESIGN.md: a switch
// over a format/kind enum in the codec packages must dispatch every unknown
// value into an explicit fail-closed default — never fall off the end of the
// switch and keep going, which is how an unknown format tag silently
// misparses as v1 (the bug shape PR 7 and PR 8 each had to design out).
//
// Two switch shapes are in scope inside internal/wire and internal/stindex:
//
//   - expression switches whose tag is a named type ending in Kind or Format
//     (wire.MsgKind, stindex's chunkFormat);
//   - type switches inside decode/unmarshal functions (the per-message decode
//     dispatch).
//
// The default clause must visibly fail closed: end in a return or panic, or
// assign to an error-typed variable (the decoder-struct style, d.err = ...).
var FailClosed = &Analyzer{
	Name: "failclosed",
	Doc: "format-tag/kind switches in internal/wire and internal/stindex decoders must have a default " +
		"branch that fails closed (return/panic/error assignment) — unknown values must never fall through",
	Match: func(p string) bool {
		return pathIn(p, "stcam/internal/wire", "stcam/internal/stindex")
	},
	Run: runFailClosed,
}

func runFailClosed(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			inDecoder := isDecodeFunc(fd.Name.Name)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch sw := n.(type) {
				case *ast.SwitchStmt:
					if sw.Tag == nil || !isEnumTagType(pass, sw.Tag) {
						return true
					}
					checkFailClosedDefault(pass, sw.Body, sw.Switch, "switch on "+typeName(pass, sw.Tag))
				case *ast.TypeSwitchStmt:
					if !inDecoder {
						return true
					}
					checkFailClosedDefault(pass, sw.Body, sw.Switch, "decode-dispatch type switch")
				}
				return true
			})
		}
	}
}

func isDecodeFunc(name string) bool {
	l := strings.ToLower(name)
	return strings.HasPrefix(l, "decode") || strings.HasPrefix(l, "unmarshal") || strings.Contains(l, "unmarshal")
}

// isEnumTagType reports whether e's type is a named type whose name ends in
// Kind or Format.
func isEnumTagType(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok {
		return false
	}
	n, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	name := n.Obj().Name()
	return strings.HasSuffix(name, "Kind") || strings.HasSuffix(name, "Format")
}

func typeName(pass *Pass, e ast.Expr) string {
	if tv, ok := pass.Info.Types[e]; ok {
		return tv.Type.String()
	}
	return "enum"
}

func checkFailClosedDefault(pass *Pass, body *ast.BlockStmt, pos token.Pos, what string) {
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			// TypeSwitchStmt bodies hold *ast.CaseClause too; anything else
			// is malformed and the type checker already rejected it.
			continue
		}
		if cc.List != nil {
			continue // not the default clause
		}
		if defaultFailsClosed(pass, cc.Body) {
			return
		}
		pass.Report(cc.Pos(), "%s has a default that does not fail closed: it must return, panic, or record an error so unknown values are never silently decoded", what)
		return
	}
	pass.Report(pos, "%s has no default clause: unknown values fall off the switch and decode silently — add a fail-closed default returning an error", what)
}

// defaultFailsClosed reports whether the default body visibly stops the
// decode: ends in return/panic/goto, or assigns to an error-typed lvalue.
func defaultFailsClosed(pass *Pass, body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	for _, s := range body {
		if as, ok := s.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if tv, ok := pass.Info.Types[lhs]; ok && isErrorType(tv.Type) {
					return true
				}
			}
		}
	}
	switch last := body[len(body)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "error" && n.Obj().Pkg() == nil
}
