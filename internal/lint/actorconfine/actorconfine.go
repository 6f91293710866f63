// Package actorconfine implements the gdrlint analyzer that enforces the
// serving tier's actor confinement: a core.Session is single-writer by
// design, and internal/server runs every command on one under its session's
// turn in (*actor).do — HTTP handlers must never touch a session directly.
// The analyzer flags, inside any package whose import-path base is
// "server", every core.Session method call whose receiver is not rooted in
// a function parameter.
//
// The parameter rule is how confinement propagates: the only sanctioned
// ways to hold a session are the `func(sess *core.Session)` closures handed
// to (*actor).do — where sess is the closure's parameter — and helpers that
// take the session as an argument, which are only callable from a context
// that already holds it legitimately. What the rule forbids is minting a
// session reference out of thin air: reading it off a struct field (the
// actor's own sess field included) or a constructor result and calling
// methods on it. The store's construction-time read of a freshly built
// session, before any actor exists, carries a justified //lint:ignore
// suppression.
package actorconfine

import (
	"go/ast"
	"go/types"

	"gdr/internal/lint/analysis"
)

// Analyzer is the actorconfine check.
var Analyzer = &analysis.Analyzer{
	Name: "actorconfine",
	Doc: "in server packages, core.Session methods may only be called on a " +
		"session received as a function parameter (the actor's do-closures " +
		"and helpers they call) — never on one pulled from a field or " +
		"constructed locally, which would skip the session's turn",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if analysis.PathBase(pass.Pkg.Path()) != "server" {
		return nil, nil
	}
	analysis.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection := pass.TypesInfo.Selections[sel]
		if selection == nil || selection.Kind() != types.MethodVal || !isCoreSession(selection.Recv()) {
			return true
		}
		// The receiver must itself be a parameter identifier: `sess.Groups()`
		// where sess came in as an argument. Reaching the session through a
		// field (a.sess), a local copy, or a constructor call mints an
		// unconfined reference and is exactly what the invariant forbids.
		recv := ast.Unparen(sel.X)
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = ast.Unparen(star.X)
		}
		if id, ok := recv.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil && analysis.IsParamOf(pass.TypesInfo, stack, obj) {
				return true
			}
		}
		pass.Reportf(call.Pos(),
			"core.Session method called outside its actor: session state is actor-confined — enqueue the work through (*actor).do and use the closure's session parameter")
		return true
	})
	return nil, nil
}

// isCoreSession reports whether t is (a pointer to) the Session type of a
// package whose import-path base is "core".
func isCoreSession(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Session" &&
		obj.Pkg() != nil && analysis.PathBase(obj.Pkg().Path()) == "core"
}
