package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SpanendAnalyzer closes the gap between span hygiene counters and the code
// review that has to find the leak. The trace package counts UnmatchedEnds
// and OpenSpans at runtime, but a Begin without an End on some error path
// only surfaces after a run that happens to take that path. For span ids
// held in plain locals — begun and ended inside one function — the pairing
// is statically checkable: every return path and the fall-through of the
// declaring block must pass through EndSpan/EndSpanDetail.
//
// Ids that escape the function (stored in a struct, captured by a closure,
// passed to another function) follow the request across event boundaries
// and are out of scope here; the runtime counters still cover them.
var SpanendAnalyzer = &Analyzer{
	Name: "spanend",
	Doc:  "every locally-held trace span id must be ended on all paths out of its block",
	Run:  runSpanend,
}

const tracePkgPath = "df3/internal/trace"

// isSpanBegin matches the calls that mint a locally-owned span id.
func isSpanBegin(fn *types.Func) bool {
	return FuncIs(fn, tracePkgPath, "Recorder.BeginSpan")
}

// isSpanEnd matches the calls that discharge the end obligation.
func isSpanEnd(fn *types.Func) bool {
	return FuncIs(fn, tracePkgPath, "Recorder.EndSpan") ||
		FuncIs(fn, tracePkgPath, "Recorder.EndSpanDetail")
}

// isSpanLifecycle matches every call a span id may flow into without
// escaping: begins (as the parent argument), ends, and instants.
func isSpanLifecycle(fn *types.Func) bool {
	return isSpanBegin(fn) || isSpanEnd(fn) ||
		FuncIs(fn, tracePkgPath, "Recorder.Instant")
}

func runSpanend(pass *Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.FuncDecl:
			body = n.Body
		case *ast.FuncLit:
			body = n.Body
		}
		if body == nil {
			return true
		}
		checkSpansIn(pass, body)
		return true
	})
	return nil
}

// checkSpansIn finds `x := r.BeginSpan(...)` statements whose x stays local
// to fn and verifies the end-on-all-paths property for each. Nested
// function literals are skipped here (Inspect visits them separately) by
// comparing the enclosing literal.
func checkSpansIn(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			return false // its own walk handles it
		}
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, s := range block.List {
			obj := spanDefine(pass, s)
			if obj == nil {
				continue
			}
			if spanEscapes(pass, body, obj, s) {
				continue
			}
			w := &spanWalk{pass: pass, obj: obj, declPos: s.Pos()}
			ended, terminated := w.stmts(block.List[i+1:], false)
			if w.bailed {
				continue
			}
			if !ended && !terminated {
				pass.Reportf(s.Pos(),
					"span %s is not ended when its block falls through: call EndSpan/EndSpanDetail on every path out (or let the id escape intentionally and annotate //df3:allow(spanend) <reason>)",
					obj.Name())
			}
		}
		return true
	})
}

// spanDefine matches `x := recorder.BeginSpan(...)` and returns x's object.
func spanDefine(pass *Pass, s ast.Stmt) types.Object {
	asg, ok := s.(*ast.AssignStmt)
	if !ok || asg.Tok != token.DEFINE || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return nil
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	if fn := pass.CalleeFunc(call); !isSpanBegin(fn) {
		return nil
	}
	id, ok := asg.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return pass.ObjectOf(id)
}

// spanEscapes reports whether obj is used anywhere that takes it out of
// this function's hands: captured by a closure, stored, returned, or passed
// to anything other than the span lifecycle calls (EndSpan, EndSpanDetail,
// and the parent argument of BeginSpan/Instant).
func spanEscapes(pass *Pass, body *ast.BlockStmt, obj types.Object, def ast.Stmt) bool {
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || pass.ObjectOf(id) != obj {
			return true
		}
		path, _ := pathToIdent(body, id)
		for _, anc := range path {
			if _, ok := anc.(*ast.FuncLit); ok {
				escapes = true // closure may run on another path/time
				return false
			}
		}
		if !spanUseAllowed(pass, body, id, def) {
			escapes = true
			return false
		}
		return true
	})
	return escapes
}

// spanUseAllowed reports whether this mention of the span id keeps it
// local: its defining statement, a lifecycle call argument, or a pure
// comparison.
func spanUseAllowed(pass *Pass, body *ast.BlockStmt, id *ast.Ident, def ast.Stmt) bool {
	path, _ := pathToIdent(body, id)
	if len(path) == 0 {
		return false
	}
	// Walk outward from the ident.
	for i := len(path) - 1; i >= 0; i-- {
		switch p := path[i].(type) {
		case *ast.CallExpr:
			return isSpanLifecycle(pass.CalleeFunc(p))
		case *ast.BinaryExpr:
			// comparisons like x != 0 don't move the id anywhere
			if p.Op == token.EQL || p.Op == token.NEQ {
				continue
			}
			return false
		case *ast.AssignStmt:
			return p == def // only its own definition may write it
		case *ast.ParenExpr, *ast.IfStmt, *ast.ExprStmt, *ast.BlockStmt, *ast.CaseClause, *ast.SwitchStmt:
			continue
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt, *ast.UnaryExpr, *ast.IndexExpr, *ast.RangeStmt:
			return false
		default:
			continue
		}
	}
	return true
}

// pathToIdent returns the ancestor chain from root down to id.
func pathToIdent(root ast.Node, id *ast.Ident) ([]ast.Node, bool) {
	var path []ast.Node
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		if n == nil {
			if !found && len(path) > 0 {
				path = path[:len(path)-1]
			}
			return false
		}
		path = append(path, n)
		if n == ast.Node(id) {
			found = true
			return false
		}
		return true
	})
	if !found {
		return nil, false
	}
	return path[:len(path)-1], true // drop the ident itself
}

// spanWalk is the structured "ended on all paths" interpreter.
type spanWalk struct {
	pass    *Pass
	obj     types.Object
	declPos token.Pos
	bailed  bool // goto/label encountered: give up silently
}

// stmts interprets a statement list. It returns (ended-at-fallthrough,
// terminated): terminated means control cannot fall off the end (every
// path returned, panicked or branched away).
func (w *spanWalk) stmts(list []ast.Stmt, ended bool) (bool, bool) {
	for _, s := range list {
		var term bool
		ended, term = w.stmt(s, ended)
		if term || w.bailed {
			return ended, term
		}
	}
	return ended, false
}

func (w *spanWalk) stmt(s ast.Stmt, ended bool) (bool, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if w.isEndCall(s.X) {
			return true, false
		}
		if call, ok := s.X.(*ast.CallExpr); ok && isPanicCall(w.pass, call) {
			return ended, true
		}
		return ended, false
	case *ast.DeferStmt:
		if w.isEndCall(s.Call) {
			// A deferred End covers every later exit.
			return true, false
		}
		return ended, false
	case *ast.ReturnStmt:
		if !ended {
			w.pass.Reportf(s.Pos(),
				"return leaks span %s (begun at line %d): end it before returning or defer the EndSpan",
				w.obj.Name(), w.pass.Fset.Position(w.declPos).Line)
		}
		return ended, true
	case *ast.BlockStmt:
		return w.stmts(s.List, ended)
	case *ast.IfStmt:
		if s.Init != nil {
			ended, _ = w.stmt(s.Init, ended)
		}
		thenEnded, thenTerm := w.stmts(s.Body.List, ended)
		elseEnded, elseTerm := ended, false
		if s.Else != nil {
			elseEnded, elseTerm = w.stmt(s.Else, ended)
		}
		switch {
		case thenTerm && elseTerm:
			return ended, true
		case thenTerm:
			return elseEnded, false
		case elseTerm:
			return thenEnded, false
		default:
			return thenEnded && elseEnded, false
		}
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.branches(s, ended)
	case *ast.ForStmt:
		w.stmts(s.Body.List, ended) // audit returns inside; 0-iteration case keeps `ended`
		return ended, false
	case *ast.RangeStmt:
		w.stmts(s.Body.List, ended)
		return ended, false
	case *ast.BranchStmt:
		if s.Tok == token.GOTO {
			w.bailed = true
		}
		// break/continue leave the surrounding loop logic to the
		// conservative loop rule above.
		return ended, true
	case *ast.LabeledStmt:
		w.bailed = true
		return ended, false
	default:
		return ended, false
	}
}

// branches folds ended-ness over the case bodies of a switch or select.
func (w *spanWalk) branches(s ast.Stmt, ended bool) (bool, bool) {
	var (
		list       []ast.Stmt
		hasDefault bool
	)
	switch s := s.(type) {
	case *ast.SwitchStmt:
		list = s.Body.List
	case *ast.TypeSwitchStmt:
		list = s.Body.List
	case *ast.SelectStmt:
		list = s.Body.List
	}
	allEnded, allTerm := true, true
	for _, cc := range list {
		var body []ast.Stmt
		switch cc := cc.(type) {
		case *ast.CaseClause:
			body = cc.Body
			hasDefault = hasDefault || cc.List == nil
		case *ast.CommClause:
			body = cc.Body
			hasDefault = hasDefault || cc.Comm == nil
		}
		e, t := w.stmts(body, ended)
		if !t {
			allEnded = allEnded && e
			allTerm = false
		}
	}
	if !hasDefault {
		// The no-case-taken path falls through with the incoming state.
		allEnded = allEnded && ended
		allTerm = false
	}
	if len(list) == 0 {
		return ended, false
	}
	return allEnded, allTerm
}

// isEndCall matches EndSpan/EndSpanDetail with the tracked id as argument.
func (w *spanWalk) isEndCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if !isSpanEnd(w.pass.CalleeFunc(call)) {
		return false
	}
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && w.pass.ObjectOf(id) == w.obj {
			return true
		}
	}
	return false
}

func isPanicCall(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic" && pass.TypesInfo.Types[call.Fun].IsBuiltin()
}
