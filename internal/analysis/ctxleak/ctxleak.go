// Package ctxleak enforces PR-3's cancellation plumbing: inside a
// function that takes a context.Context, the context must actually
// reach the work the function starts. Three leak shapes are flagged:
//
//  1. A context-capable callee invoked with context.Background() or
//     context.TODO() — directly, or through a chain of local
//     assignments the reaching-definitions pass resolves — severs the
//     caller's cancellation on that path. The dataflow matters: a
//     `ctx = context.Background()` on one branch poisons every call the
//     redefinition reaches, which an AST pattern-match cannot see.
//
//  2. A goroutine spawned without the context: neither an argument of
//     the `go` call nor a reference inside the spawned closure mentions
//     any context-typed value, so the goroutine outlives cancellation.
//
//  3. A call to a method M that ignores the context when the receiver
//     also offers MCtx or MContext taking one — such as the
//     Measure/MeasureCtx pair of core.ContextEnvironment, whose
//     context-threading regressions this analyzer exists to catch.
//
// Functions whose context parameter is blank (`_ context.Context`) are
// skipped: they have declared they cannot thread it. Deliberate
// detachments (fire-and-forget cleanup, background flush) carry
// //edgebol:allow ctxleak -- <reason>.
package ctxleak

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

// Analyzer is the ctxleak check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxleak",
	Doc:  "a context.Context parameter must reach spawned goroutines and context-capable calls on every path",
	Match: func(pkgPath string) bool {
		return strings.HasPrefix(pkgPath, "repro/internal/")
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		// Analyze every function-shaped body that declares a named
		// context parameter: top-level functions and function literals
		// (each literal is its own scope and gets its own graph).
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, fn, fn.Type, fn.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, fn, fn.Type, fn.Body)
			}
			return true
		})
	}
	return nil
}

// checkFunc analyzes one function with a named context.Context
// parameter; others are skipped.
func checkFunc(pass *analysis.Pass, fn ast.Node, ft *ast.FuncType, body *ast.BlockStmt) {
	ctxVar := contextParam(pass, ft)
	if ctxVar == nil {
		return
	}
	g := cfg.New(body)
	reach := cfg.Reach(g, fn, pass.TypesInfo)

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A nested literal is analyzed as its own function; its
			// body is not part of this graph.
			return false
		case *ast.GoStmt:
			checkGo(pass, n)
			return true
		case *ast.CallExpr:
			checkCall(pass, g, reach, n)
			return true
		}
		return true
	})
}

// contextParam returns the (named, non-blank) context.Context parameter
// of ft, or nil.
func contextParam(pass *analysis.Pass, ft *ast.FuncType) *types.Var {
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && isContext(v.Type()) {
				return v
			}
		}
	}
	return nil
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isBackgroundCall reports whether e is context.Background() or
// context.TODO().
func isBackgroundCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != "Background" && sel.Sel.Name != "TODO" {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// checkCall flags context-capable calls whose context argument resolves
// to a detached root, and context-ignoring calls with a context-capable
// sibling method.
func checkCall(pass *analysis.Pass, g *cfg.Graph, reach *cfg.ReachingDefs, call *ast.CallExpr) {
	at, _ := g.NodeAt(call.Pos())
	hasCtxArg := false
	for _, arg := range call.Args {
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok || !isContext(tv.Type) {
			continue
		}
		hasCtxArg = true
		if isBackgroundCall(pass, arg) {
			pass.Reportf(arg.Pos(), "call passes %s instead of the in-scope context, severing cancellation", exprText(arg))
			continue
		}
		if at == nil {
			continue // unreachable code; nothing to resolve against
		}
		srcs := reach.Sources(arg, at)
		if len(srcs) == 0 {
			continue // unknown origin: stay quiet
		}
		detached := true
		for _, s := range srcs {
			if !isBackgroundCall(pass, s) {
				detached = false
				break
			}
		}
		if detached {
			pass.Reportf(arg.Pos(), "context argument resolves to context.Background()/TODO() on every reaching path, severing cancellation")
		}
	}
	if !hasCtxArg {
		checkSibling(pass, call)
	}
}

// checkSibling flags recv.M(...) when recv also has MCtx/MContext
// taking a context — the call silently opted out of cancellation.
func checkSibling(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return
	}
	recv := selection.Recv()
	for _, suffix := range []string{"Ctx", "Context"} {
		obj, _, _ := types.LookupFieldOrMethod(recv, true, pass.Pkg, sel.Sel.Name+suffix)
		sib, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		sig := sib.Type().(*types.Signature)
		if sig.Params().Len() == 0 || !isContext(sig.Params().At(0).Type()) {
			continue
		}
		pass.Reportf(call.Pos(), "%s ignores the in-scope context; use %s to propagate cancellation", sel.Sel.Name, sib.Name())
		return
	}
}

// checkGo flags goroutines that can never observe the context: no
// argument and no captured reference is context-typed.
func checkGo(pass *analysis.Pass, g *ast.GoStmt) {
	call := g.Call
	for _, arg := range call.Args {
		if tv, ok := pass.TypesInfo.Types[arg]; ok && isContext(tv.Type) {
			return
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		found := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && isContext(obj.Type()) {
					found = true
				}
			}
			return true
		})
		if found {
			return
		}
	}
	pass.Reportf(g.Pos(), "goroutine is spawned without the in-scope context and cannot observe cancellation")
}

// exprText renders the short source form of a context root for the
// diagnostic message.
func exprText(e ast.Expr) string {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			return "context." + sel.Sel.Name + "()"
		}
	}
	return "a detached context"
}
